"""Command-line surface: exit codes, output formats, determinism."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from rubbertaut import cli, goldentables


def _run(argv: list[str], capsys: pytest.CaptureFixture[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# hurwitz
# ---------------------------------------------------------------------------


def test_hurwitz_default_prints_bare_value(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["hurwitz", "--alpha", "2", "--beta", "1,1"], capsys)
    assert code == 0
    assert out == "1\n"


def test_hurwitz_json_carries_the_declared_fields(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["hurwitz", "--alpha", "2", "--beta", "1,1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"alpha": [2], "beta": [1, 1], "method": "one_part", "value": "1"}


def test_hurwitz_json_reports_oracle_method(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["hurwitz", "--alpha", "2,1", "--beta", "2,1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "oracle"
    assert payload["value"] == "4"


def test_hurwitz_psi_divides_by_branch_factorial(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(
        ["hurwitz", "--alpha", "3", "--beta", "1,1,1", "--psi", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "rubber_psi"
    assert payload["value"] == "3"


def test_hurwitz_csv_is_a_one_row_table(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["hurwitz", "--alpha", "2,1", "--beta", "1,1,1", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["alpha", "beta", "method", "value"]
    assert rows[1] == ["2,1", "1,1,1", "oracle", "24"]


def test_hurwitz_profile_mismatch_exits_one(capsys: pytest.CaptureFixture[str]) -> None:
    code = cli.main(["hurwitz", "--alpha", "9,9", "--beta", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error[invalid-argument]: ")
    assert "(9, 9) does not sum to degree 1" in captured.err


def test_hurwitz_resource_cap_exits_one(capsys: pytest.CaptureFixture[str]) -> None:
    code, _ = _run(["hurwitz", "--alpha", "6,5", "--beta", "6,5"], capsys)
    assert code == 1


def test_usage_errors_exit_one() -> None:
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["hurwitz"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_log_sine_table_shows_the_leading_coefficient(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out = _run(["series", "--log-sine", "--d", "1", "--order", "2"], capsys)
    assert code == 0
    assert "1/24" in out


def test_series_json_shape(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(
        ["series", "--log-sine", "--d", "1", "--order", "2", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "log-sine-1"
    assert payload["order"] == 2
    assert payload["coeffs"] == ["0", "0", "1/24"]


def test_series_tau_low_coefficients(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["series", "--tau", "--order", "3", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["coeffs"] == ["0", "1", "1", "3/2"]


def test_series_csv_parses(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(
        ["series", "--log-sine", "--d", "2", "--order", "4", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["power", "coefficient"]
    assert rows[3] == ["2", "1/6"]


def test_series_rejects_bad_order(capsys: pytest.CaptureFixture[str]) -> None:
    code, _ = _run(["series", "--tau", "--order", "0"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# localize
# ---------------------------------------------------------------------------


def test_localize_json_rows_degree_two(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["localize", "--d", "2", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [row["row"] for row in rows] == list(range(1, 8))
    first = rows[0]
    assert first["graph"] == "2^g{2,3}"
    assert first["prefactor"] == "1/2"
    assert first["pole"] == {"1,0": "4"}
    empty = {row["row"] for row in rows if row["pole"] == {}}
    assert empty == {2, 5}


def test_localize_golden_passes_both_degrees(capsys: pytest.CaptureFixture[str]) -> None:
    for d in ("2", "3"):
        code, out = _run(["localize", "--d", d, "--golden"], capsys)
        assert code == 0
        assert "matches the frozen rows" in out


def test_localize_golden_flags_a_doctored_table(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setitem(goldentables.R2_RELATION, 1, {(1, 0): Fraction(5)})
    code, out = _run(["localize", "--d", "2", "--golden"], capsys)
    assert code == 2
    assert "DIFF" in out


def test_localize_table_output_is_deterministic(capsys: pytest.CaptureFixture[str]) -> None:
    _, first = _run(["localize", "--d", "3"], capsys)
    _, second = _run(["localize", "--d", "3"], capsys)
    assert first == second


# ---------------------------------------------------------------------------
# pclass / hain / interp
# ---------------------------------------------------------------------------


def test_pclass_json_lists_the_three_mark_coefficients(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out = _run(["pclass", "--marks", "3", "--format", "json"], capsys)
    assert code == 0
    entries = {tuple(item["exponents"]): item["class"] for item in json.loads(out)}
    assert entries == {
        (2, 0): "psi_1 - D(2|13)",
        (0, 2): "psi_1 - D(3|12)",
        (1, 1): "psi_1 - D(1|23)",
    }


def test_pclass_latex_renders_generators(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["pclass", "--marks", "3", "--format", "latex"], capsys)
    assert code == 0
    assert r"\psi_1" in out


def test_pclass_rejects_too_few_marks(capsys: pytest.CaptureFixture[str]) -> None:
    code, _ = _run(["pclass", "--marks", "2"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pclass", "--marks", "12"], "12 marks exceed the weight-polynomial cap 11"),
        (["pclass", "--marks", "14"], "14 marks exceed the weight-polynomial cap 11"),
        (
            ["hain", "--genus", "8", "--weights", "1,2,-3"],
            "genus 8 over 3 marks needs more than 50000 monomials",
        ),
        (
            ["hain", "--genus", "3", "--weights", "1,2,4,8,-15"],
            "genus 3 over 5 marks needs more than 50000 monomials",
        ),
        (
            ["hain", "--genus", "2", "--weights", ",".join(["1"] * 40 + ["-40"])],
            "genus 2 over 41 marks needs more than 50000 monomials",
        ),
    ],
    ids=["pclass-12", "pclass-14", "hain-g8", "hain-g3-t5", "hain-t41"],
)
def test_weight_class_caps_exit_one_at_once(
    argv: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error[resource-limit]: {message}\n"
    assert elapsed < 1.0


def test_hain_csv_parses_and_leads_with_the_frozen_monomial(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out = _run(["hain", "--genus", "2", "--weights", "1,-1", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["monomial", "coefficient"]
    assert rows[1] == ["delta_1(1)*delta_1(1)", "1/128"]
    total = sum(Fraction(value) for _, value in rows[1:])
    assert total == Fraction(9, 32)


def test_hain_rejects_unbalanced_weights(capsys: pytest.CaptureFixture[str]) -> None:
    code, _ = _run(["hain", "--genus", "2", "--weights", "1,1"], capsys)
    assert code == 1


def test_interp_reports_exact_round_trips(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(
        ["interp", "--nvars", "2", "--degrees", "2,2", "--seed", "7", "--trials", "2"], capsys
    )
    assert code == 0
    assert out.strip() == "PASS interp: 2 round-trips exact"


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def test_verify_all_reports_every_section(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = _run(["verify-all", "--g-max", "2", "--d-max", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_all_fails_loudly_on_a_doctored_table(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setitem(goldentables.R2_RELATION, 1, {(1, 0): Fraction(5)})
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    assert any(line.startswith("FAIL localize:") for line in out.strip().splitlines())


@pytest.mark.parametrize(
    "predicate, section, witness",
    [
        ("verify_scaling", "series", "g=1"),
        ("check_pullback_stability", "pclass", "t=4"),
        ("check_equivariance", "pclass", "t=3"),
        ("check_homogeneity", "pclass", "t=3"),
    ],
)
def test_verify_all_fails_when_a_predicate_is_false(
    predicate: str,
    section: str,
    witness: str,
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(cli, predicate, lambda *args: False)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failures) == 1
    assert failures[0].startswith(f"FAIL {section}:")
    assert witness in failures[0]


def test_verify_all_reports_a_resource_limit_as_a_limit(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "11"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "LIMIT hurwitz: one-part-and-symmetry-d<=11 — degree 11 exceeds the exact-count cap 10",
        "LIMIT hodge: graph-sum-cross-check-g<=1-d<=11 — degree 11 exceeds the exact-count cap 10",
    ]


def test_verify_all_violation_outranks_a_limit(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(cli, "verify_scaling", lambda *args: False)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "11"], capsys)
    assert code == 2
    statuses = [line.split(":")[0] for line in out.splitlines() if not line.startswith("PASS ")]
    assert statuses == ["FAIL series", "LIMIT hurwitz", "LIMIT hodge"]


def _run_process(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the CLI in a child interpreter, so an uncaught error shows as a traceback."""
    # Run from the directory holding the imported package, so the child
    # interpreter finds it without PYTHONPATH or an install.
    package_root = Path(cli.__file__).parents[1]
    command = [sys.executable, "-m", "rubbertaut.cli", *argv]
    return subprocess.run(command, capture_output=True, text=True, cwd=package_root)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hain", "--genus", "2", "--weights", "1,x"], "not a rational: 'x'"),
        (["hain", "--genus", "2", "--weights", "1/0,1"], "not a rational: '1/0'"),
        (["interp", "--degrees", "2,x"], "bad degrees '2,x'"),
    ],
    ids=["hain-word", "hain-zero-denominator", "interp-word"],
)
def test_malformed_numbers_exit_one_without_a_traceback(argv: list[str], message: str) -> None:
    result = _run_process(argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error[invalid-argument]: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["interp", "--nvars", "3", "--degrees", "30,30,30", "--trials", "1"],
            "1 round trips of 29791 grid points exceed the cap 125",
        ),
        (
            ["interp", "--trials", "100000000"],
            "100000000 round trips of 9 grid points exceed the cap 125",
        ),
    ],
    ids=["grid", "trials"],
)
def test_interp_cap_exits_one_at_once(
    argv: list[str], message: str, capsys: pytest.CaptureFixture[str]
) -> None:
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error[resource-limit]: {message}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "bounds", [["--g-max", "0", "--d-max", "0"], ["--g-max", "-3"]], ids=["zero", "negative"]
)
def test_verify_all_rejects_a_vacuous_sweep(
    bounds: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    code = cli.main(["verify-all", *bounds])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_verify_all_is_byte_identical_across_runs() -> None:
    command = [sys.executable, "-m", "rubbertaut.cli", "verify-all", "--g-max", "2", "--d-max", "3"]
    # Run from the directory holding the imported package, so the child
    # interpreter finds it without PYTHONPATH or an install.
    package_root = Path(cli.__file__).parents[1]
    first = subprocess.run(command, capture_output=True, check=True, cwd=package_root)
    second = subprocess.run(command, capture_output=True, check=True, cwd=package_root)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"PASS") == 11


# ---------------------------------------------------------------------------
# Transcripts: stdout and exit codes frozen in tests/data/cli
# ---------------------------------------------------------------------------

TRANSCRIPTS = Path(__file__).parent / "data" / "cli"
TRANSCRIPT_CASES = json.loads((TRANSCRIPTS / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_CASES))
def test_cli_output_matches_the_frozen_transcript(
    name: str, capsys: pytest.CaptureFixture[str]
) -> None:
    case = TRANSCRIPT_CASES[name]
    code, out = _run(case["argv"], capsys)
    assert code == case["exit"]
    assert out.encode() == (TRANSCRIPTS / f"{name}.out").read_bytes()
