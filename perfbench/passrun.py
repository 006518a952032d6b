"""One measured pass of one workload, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
imports the package, builds the seeded inputs, marks itself ready, runs the
timed operations one at a time, reads its peak resident memory, and only then
checks every result against its oracle.

The machine's speed is sampled with a short fixed reference loop that calls
no package code: before the first operation, after each one, and, in an
untraced pass, every ``TICK_S`` during an operation from a ``SIGALRM``
handler.  An operation's latency excludes the handler's time, and its
reference time is the mean of the samples from the loop before it to the
loop after it, so ``run.py`` can tell the program's speed from the machine's.
It prints one JSON line:

    {"ready": <perf_counter at ready>, "latencies": [...], "reference_s": [...],
     "peak_rss_kb": ..., "attempted": n, "failed": k, "failures": [...],
     "layers": {...}}

``layers`` is present only with ``--trace``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import rubbertaut  # noqa: F401  (import cost belongs to set-up)
import workloads


#: Seconds between speed samples during an untraced operation.  The machine
#: the benchmark was defined on switches speed every 0.1 to 1 s, so samples
#: taken only between long operations miss what those operations saw.
TICK_S = 0.02


def reference_loop() -> None:
    """Fixed pure-Python work of about 1 ms: Fraction arithmetic, dict updates.

    The workloads spend their time in the same kind of interpreter work, so a
    slower machine slows this loop and the operations alike.
    """
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 97 + 1, i % 13 + 2) * Fraction(3, i + 1)
    table: dict[tuple[int, int], int] = {}
    for i in range(500):
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i


def time_reference() -> float:
    """Duration of one reference loop.

    The cyclic collector is off during the loop, so that its time does not
    grow with the heap the workload has built up; its state is restored
    after, as the loop also runs from a signal inside an operation.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Reference-loop samples taken from a timer signal during an operation."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.samples.append(time_reference())
        self.handler_s += time.perf_counter() - start

    def start(self, before: float, ticking: bool) -> None:
        self.samples = [before]
        self.handler_s = 0.0
        if ticking:
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()

    state: dict = {}
    raised: dict[str, str] = {}
    latencies: list[float] = []
    references: list[float] = []
    meter = Speedometer()
    before = time_reference()
    clock = time.perf_counter
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
            tracer.active = True
        meter.start(before, ticking=tracer is None)
        start = clock()
        try:
            state[op.name] = op.run(state)
        except Exception as exc:  # an op that raises is a failed op
            raised[op.name] = f"{type(exc).__name__}: {exc}"
        meter.stop()  # first, so that every tick counted in handler_s is before end
        end = clock()
        if tracer is not None:
            tracer.active = False
        before = time_reference()
        latencies.append(end - start - meter.handler_s)
        references.append(statistics.fmean(meter.samples + [before]))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.corrupt and workload.corrupt_op in state:
        state[workload.corrupt_op] = workload.corrupt(state[workload.corrupt_op])
    failures = [f"{name}: raised {message}" for name, message in raised.items()]
    for op in workload.ops:
        if op.name in raised:
            continue
        try:
            ok = op.check(state[op.name], state)
        except Exception:
            ok = False
            traceback.print_exc()
        if not ok:
            failures.append(f"{op.name}: wrong result")

    report = {
        "ready": ready,
        "latencies": latencies,
        "reference_s": references,
        "peak_rss_kb": peak_rss_kb,
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
