"""Benchmark for the rubbertaut pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is not installed: every pass
runs ``perfbench/passrun.py`` in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED=0`` and no
``RUBBER_TAUT_THREADS``, one pass at a time (a closed loop with one client
and one operation in flight).  A pass builds the seeded inputs, runs the
workload's operations, and checks every result against the benchmark's own
oracles after the timed region.  Passes repeat until the next one would end
after ``--seconds``, and there are at least ``MIN_PASSES`` of them, so a run
pools at least 100 operation samples (ten beyond p90).

Times are reported at a nominal machine speed.  The speed of the machine
this benchmark was defined on, a 2-vCPU VM, switches between levels up to
1.7x apart every 0.1 to 1 s, far more than a regression bound.  So a pass
also times a fixed reference loop of about 1 ms before and after each
operation and every 20 ms during it (see ``passrun.py``), and every measured
duration is scaled by ``REFERENCE_NOMINAL_S / reference``, with
``reference`` the mean loop time over that duration.  A program change does
not touch the loop; a machine slowdown slows both and cancels.  Over 40
passes of hodge-solve, the spread (coefficient of variation) of a solve
taking 0.1 s or more fell from 11-17% unscaled to 2-6% this way.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics:

* ``setup_s``      process start to first operation ready (interpreter,
                   package import, inputs), the median over the passes
* ``run_s``        seconds of one pass's timed operations, the median
* ``op_p50_ms``, ``op_p90_ms``  percentiles of all passes' operation samples
* ``peak_rss_mb``  peak resident memory of a pass process, the median

The share of failed operations is the object's ``failed / attempted``; a
summary on standard error prints it as ``failed_ratio`` with the sample
counts.  With ``--trace 1`` untraced and traced passes alternate, and the
metrics are the per-layer ones of ``spans.py`` (medians over the traced
passes) plus ``trace.overhead_ratio``, traced ``run_s`` over untraced.

The exit code is 0 when every operation passed its oracle, 1 when one failed
or a pass crashed, and 2 when the checkout holds no package to measure.
``--corrupt`` perturbs one result per pass before its check (the checker
self-test uses it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hodge-solve", "weight-classes", "graph-sums", "hurwitz-pairs")
#: Fewest passes in a timed run; every workload has at least 25 operations.
MIN_PASSES = 5
#: Fewest untraced and traced pairs in a traced run, whose metrics have no
#: bound; fewer than MIN_PASSES keeps a traced run near ``--seconds``.
MIN_TRACED_PAIRS = 3
PASS_TIMEOUT_S = 150
#: Reference-loop time that defines the nominal machine speed (a typical
#: loop time on the 2-vCPU VM the benchmark was defined on).
REFERENCE_NOMINAL_S = 0.00085


class PassError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RUBBER_TAUT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(workload: str, seed: int, *flags: str) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload, "--seed", str(seed)]
    cmd += flags
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"pass exceeded {PASS_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited with {proc.returncode}: {err.strip()[-2000:]}")
    report = json.loads(lines[-1])
    # perf_counter is the system-wide monotonic clock, so the child's ready
    # time and the spawn time here are on one time line.
    report["setup_s"] = report["ready"] - spawn
    if err.strip():
        print(err.strip(), file=sys.stderr)
    return report


def warm_up() -> None:
    """Import the package once so that byte-code compilation is not measured."""
    subprocess.run(
        [sys.executable, "-c", "import rubbertaut"],
        cwd=ROOT,
        env=child_env(),
        check=True,
        timeout=PASS_TIMEOUT_S,
    )


def run_passes(args: argparse.Namespace, kinds: tuple[bool, ...]) -> list[dict]:
    """Cycle through pass kinds (traced or not) until the time budget is spent."""
    reports: list[dict] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for trace in kinds:
            flags = ["--trace"] * trace + ["--corrupt"] * args.corrupt
            reports.append(run_pass(args.workload, args.seed, *flags))
        rounds = len(reports) // len(kinds)
        fewest = MIN_TRACED_PAIRS if args.trace else MIN_PASSES
        elapsed = time.perf_counter() - start
        if rounds >= fewest and elapsed + (time.perf_counter() - round_start) > args.seconds:
            return reports


def latencies(report: dict) -> list[float]:
    """A pass's operation latencies at the nominal machine speed."""
    return [
        seconds * REFERENCE_NOMINAL_S / reference
        for seconds, reference in zip(report["latencies"], report["reference_s"])
    ]


def pass_seconds(reports: list[dict]) -> float:
    return statistics.median(sum(latencies(r)) for r in reports)


def end_to_end(reports: list[dict]) -> dict:
    samples = [x for r in reports for x in latencies(r)]
    setups = [r["setup_s"] * REFERENCE_NOMINAL_S / r["reference_s"][0] for r in reports]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (pass_seconds(reports), "s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(samples, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reports) / 1024, "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    from spans import metric_names

    metrics = {}
    for name, unit in metric_names():
        if name == "trace.overhead_ratio":
            value = pass_seconds(traced) / pass_seconds(plain)
        elif unit == "s":
            value = statistics.median(
                r["layers"][name] * REFERENCE_NOMINAL_S / statistics.median(r["reference_s"])
                for r in traced
            )
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value, unit)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true", help="perturb one result per pass")
    args = parser.parse_args()

    if not (ROOT / "src" / "rubbertaut" / "__init__.py").is_file():
        print(f"no package to measure: {ROOT / 'src' / 'rubbertaut'} is missing", file=sys.stderr)
        return 2
    try:
        warm_up()
        kinds = (False, True) if args.trace else (False,)
        reports = run_passes(args, kinds)
    except (PassError, subprocess.SubprocessError) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    plain = [r for r in reports if "layers" not in r]
    traced = [r for r in reports if "layers" in r]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if args.trace:
        metrics = per_layer(plain, traced)
        detail = f"{len(plain)} untraced and {len(traced)} traced passes"
    else:
        metrics = end_to_end(plain)
        detail = f"{len(plain)} passes of {plain[0]['attempted']} ops, {attempted} op samples"

    print(f"{args.workload} seed {args.seed}: {detail}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"  failed_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})", file=sys.stderr)
    for failure in sorted({f for r in reports for f in r["failures"]})[:20]:
        print(f"  FAILED {failure}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
