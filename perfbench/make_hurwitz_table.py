"""Generate the frozen Hurwitz table that the hurwitz-pairs workload checks against.

Run once from the repository root:

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/make_hurwitz_table.py

For every ordered pair of partitions of ``d`` in 5..7 inside the exact-count
caps (at least one and at most ``MAX_SIMPLE_BRANCH`` simple branch points) it
asks ``hurwitz_oracle`` in both orders.  A value is admitted only when the two
orders agree and, where one profile has a single part, when it equals the
closed form ``(l-1)! d^(l-2)``.  Each ordered pair also gets a frozen cost:
the best of five timings, taken in five sweeps over the whole table and each
scaled to the nominal machine speed by the reference loop timed around it,
as ``run.py`` scales its measurements.  The workload uses those costs only
to draw pairs of like cost for every seed, never as a measurement.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from passrun import time_reference
from rubbertaut.hurwitz import MAX_SIMPLE_BRANCH, hurwitz_oracle
from rubbertaut.partitions import enumerate_partitions
from run import REFERENCE_NOMINAL_S

DEGREES = (5, 6, 7)
SWEEPS = 5
OUT = Path(__file__).resolve().parent / "hurwitz_table.json"


def closed_form(nu: tuple[int, ...], d: int) -> Fraction:
    l = len(nu)
    return Fraction(math.factorial(l - 1)) * Fraction(d) ** (l - 2)


def main() -> int:
    rows = []
    for d in DEGREES:
        profiles = enumerate_partitions(d)
        for i, alpha in enumerate(profiles):
            for beta in profiles[i:]:
                r = len(alpha) + len(beta) - 2
                if not 1 <= r <= MAX_SIMPLE_BRANCH:
                    continue
                forward = hurwitz_oracle(alpha, beta)
                if forward != hurwitz_oracle(beta, alpha):
                    print(f"orders disagree at {alpha}/{beta}", file=sys.stderr)
                    return 1
                for one, other in ((alpha, beta), (beta, alpha)):
                    if len(one) == 1 and forward != closed_form(other, d):
                        print(f"closed form fails at {alpha}/{beta}", file=sys.stderr)
                        return 1
                rows.append([list(alpha), list(beta), str(forward), math.inf])
                if alpha != beta:
                    rows.append([list(beta), list(alpha), str(forward), math.inf])
    for _ in range(SWEEPS):
        for row in rows:
            before = time_reference()
            start = time.perf_counter()
            hurwitz_oracle(row[0], row[1])
            seconds = time.perf_counter() - start
            reference = (before + time_reference()) / 2
            row[3] = min(row[3], seconds * REFERENCE_NOMINAL_S / reference)
    for row in rows:
        row[3] = round(row[3], 5)
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    OUT.write_text(
        '{"degrees": %s, "columns": ["alpha", "beta", "value", "seconds"], "pairs": [\n%s\n]}\n'
        % (json.dumps(list(DEGREES)), lines)
    )
    print(f"wrote {len(rows)} ordered pairs to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
