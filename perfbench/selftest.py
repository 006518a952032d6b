"""Self-test of the benchmark's checkers: every oracle must be able to fail.

    python3 perfbench/selftest.py

For each workload it runs one clean pass and one pass with ``--corrupt``,
which perturbs one result before its oracle check.  The clean pass must exit
0 with nothing failed; the corrupted one must exit non-zero, report
``correct: false`` and a higher ``failed / attempted``.  It also checks that
the same seed draws the same inputs (and another seed other inputs, where the
workload uses it), and that the benchmark refuses, without
printing a result, a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: With no time budget, a run makes its fewest passes (``MIN_PASSES``).
RUN = [sys.executable, "perfbench/run.py", "--seconds", "0", "--trace", "0"]


def bench(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "5", *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class CheckerSelfTest(unittest.TestCase):
    def test_corrupted_result_is_counted_as_failed(self) -> None:
        for workload in ("hodge-solve", "weight-classes", "graph-sums", "hurwitz-pairs"):
            with self.subTest(workload=workload):
                code, clean = bench(workload)
                self.assertEqual(code, 0)
                self.assertTrue(clean["correct"])
                self.assertEqual(clean["failed"], 0)
                code, bad = bench(workload, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(bad["correct"])
                self.assertGreater(bad["failed"] / bad["attempted"], 0)

    def test_same_seed_same_inputs(self) -> None:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads

        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = [op.name for op in build(7).ops]
                self.assertEqual(first, [op.name for op in build(7).ops])
                if name in ("weight-classes", "hurwitz-pairs"):
                    self.assertNotEqual(first, [op.name for op in build(8).ops])

    def test_refuses_a_directory_without_the_package(self) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            code, result = bench("hodge-solve", cwd=Path(tmp))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
