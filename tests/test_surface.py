"""Names that code outside the package relies on: the benchmark tracer's
wrapped entry points and the README's library quick start."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import rubbertaut

ROOT = Path(__file__).resolve().parents[1]

_TRACE_SCRIPT = """
import rubbertaut, rubbertaut.cli
from spans import Tracer

tracer = Tracer()
tracer.install()
tracer.active = True
rubbertaut.evaluate_and_solve(2)
rubbertaut.genus1_polynomial(4).evaluate((1, 2, 3))
metrics = tracer.layer_metrics()
print(metrics["locgraphs.calls"] > 0, metrics["tautring.calls"] > 0)
"""


def test_benchmark_tracer_installs_on_the_package() -> None:
    """``perfbench/spans.py`` wraps entry points by name, so renaming or
    deleting one breaks the traced benchmark run; install it on the package
    and trace two calls."""
    package_root = Path(rubbertaut.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package_root), str(ROOT / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", _TRACE_SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True True\n"


def test_readme_library_quick_start_runs() -> None:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})
