"""Command-line surface: exit codes, output formats, determinism."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest

from rubbertaut import cli, goldentables, hodge, locgraphs, polyclasses
from rubbertaut.errors import TheoremViolationError
from rubbertaut.hodge import MAX_GENUS
from rubbertaut.partitions import MAX_PARTITION_DEGREE, aut
from rubbertaut.polyclasses import MultiPoly
from rubbertaut.series import MAX_SERIES_ORDER, LaurentPoly, series, series_log_sine, series_to_json
from rubbertaut.tautring import linear_combination


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_localize_golden_refuses_a_machine_format(fmt: str) -> None:
    # The golden diff prints plain lines only; a json or csv request is
    # refused instead of answered in the table form.
    result = _run_process(["localize", "--d", "2", "--golden", "--format", fmt])
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error[invalid-argument]: --golden prints a plain diff, not --format {fmt}\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_series_tau_refuses_a_scaling_degree(fmt: str) -> None:
    # --d scales the log-sine series only; with --tau it is refused instead
    # of silently ignored.
    result = _run_process(["series", "--tau", "--d", "3", "--order", "3", "--format", fmt])
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error[invalid-argument]: --d scales --log-sine only, not --tau\n"


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
        ["interp", "--degrees", "2,2", "--seed", "7", "--trials", "2"], capsys
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


def test_golden_rows_are_matched_by_their_graph(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    # Rows 10 and 11 agree in every field but the graph: which of marks 2
    # and 3 sits on the part of size 2.
    table = list(goldentables.TABLE_D3)
    assert [(row.index, row.label) for row in table[9:11]] == [(10, "2{2}+1{3}"), (11, "2{3}+1{2}")]
    table[9], table[10] = table[10], table[9]
    monkeypatch.setattr(goldentables, "TABLE_D3", tuple(table))
    code, out = _run(["localize", "--d", "3", "--golden"], capsys)
    assert code == 2
    assert out.splitlines() == [
        "DIFF row 11: graph 2{2}+1{3} != 2{3}+1{2}",
        "DIFF row 10: graph 2{3}+1{2} != 2{2}+1{3}",
    ]
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failures) == 1 and failures[0].startswith("FAIL localize: degree-2-and-3-tables")


@pytest.mark.parametrize(
    "index, field, value, line",
    [
        (1, "prefactor", Fraction(1, 4), "DIFF row 1: prefactor 1/2 != 1/4"),
        (4, "multiplicity", 1, "DIFF row 4: multiplicity 2 != 1"),
        (3, "locus", (("M", 1, 3),), "DIFF row 3: locus M_{1,3} x rub_0(1+1;2) != M_{1,3}"),
    ],
)
def test_golden_diff_flags_each_doctored_row_field(
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
    index: int,
    field: str,
    value: object,
    line: str,
) -> None:
    table = list(goldentables.TABLE_D2)
    table[index - 1] = dataclasses.replace(table[index - 1], **{field: value})
    monkeypatch.setattr(goldentables, "TABLE_D2", tuple(table))
    code, out = _run(["localize", "--d", "2", "--golden"], capsys)
    assert code == 2
    assert out.splitlines() == [line]
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [text for text in out.splitlines() if text.startswith("FAIL ")]
    assert len(failures) == 1 and failures[0].startswith("FAIL localize: degree-2-and-3-tables")


@pytest.mark.parametrize(
    "index, terms, line",
    [
        (1, {(1, 0): Fraction(5)}, "DIFF row 1: pole {'1,0': '4'} != {'1,0': '5'}"),
        (2, {(0, 0): Fraction(-1)}, "DIFF row 2: pole {} != {'0,0': '-1'}"),
        (8, {(0, 0): Fraction(1)}, "DIFF row 8: pole {} != {'0,0': '1'}"),
    ],
    ids=["changed", "added", "past-the-table"],
)
def test_golden_diff_flags_a_doctored_pole_entry(
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
    index: int,
    terms: dict,
    line: str,
) -> None:
    monkeypatch.setitem(goldentables.R2_RELATION, index, terms)
    code, out = _run(["localize", "--d", "2", "--golden"], capsys)
    assert code == 2
    assert out.splitlines() == [line]
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [text for text in out.splitlines() if text.startswith("FAIL ")]
    assert failures == [f"FAIL localize: degree-2-and-3-tables — degree-2 table: {line[5:]}"]


def test_golden_diff_reads_the_rows_localize_prints(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """A printed row that differs from the frozen one fails both table checks,
    although the graph layer itself is honest."""
    honest = cli._localize_rows

    def doctored(d: int) -> list[dict]:
        rows = honest(d)
        rows[0]["prefactor"] = "1/3"
        return rows

    monkeypatch.setattr(cli, "_localize_rows", doctored)
    code, out = _run(["localize", "--d", "2", "--golden"], capsys)
    assert code == 2
    assert out.splitlines() == ["DIFF row 1: prefactor 1/3 != 1/2"]
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [text for text in out.splitlines() if text.startswith("FAIL ")]
    assert failures == [
        "FAIL localize: degree-2-and-3-tables — degree-2 table: row 1: prefactor 1/3 != 1/2"
    ]


def test_golden_checks_run_without_the_laurent_product(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """The table checks compare what ``localize`` prints; the full Laurent
    product is compared with the factor cells in the tests alone."""

    def refuse(self: LaurentPoly, other: LaurentPoly) -> LaurentPoly:
        raise AssertionError("a Laurent product was multiplied")

    monkeypatch.setattr(LaurentPoly, "mul", refuse)
    for argv in (["localize", "--d", "2", "--golden"], ["localize", "--d", "3", "--golden"], ["verify-all"]):
        code, out = _run(argv, capsys)
        assert code == 0, out


def _doctor_targets(monkeypatch: pytest.MonkeyPatch) -> None:
    """Add 1 to every degree-2 log-sine target that ``verify_scaling`` reads."""
    honest = hodge.n_target
    monkeypatch.setattr(hodge, "n_target", lambda g, d: honest(g, d) + (d == 2))


def _doctor_quadric(
    monkeypatch: pytest.MonkeyPatch, reshape: Callable[[int, dict], dict]
) -> None:
    """Give the ``check_*`` predicates ``reshape(t, coefficients)`` of the
    ``t``-mark quadric; the divisor solve in verify-all reads its own copy."""
    honest = polyclasses.genus1_polynomial
    monkeypatch.setattr(
        polyclasses,
        "genus1_polynomial",
        lambda t: MultiPoly(t - 1, reshape(t, dict(honest(t).coeffs))),
    )


def _power(t: int, mark: int, power: int) -> tuple[int, ...]:
    """Exponents of ``x_mark ** power`` in the ``t``-mark quadric."""
    return tuple(power if m == mark else 0 for m in range(2, t + 1))


def _drop_a_square_at_four_marks(t: int, coeffs: dict) -> dict:
    if t == 4:
        del coeffs[_power(4, 2, 2)]
    return coeffs


def _fold_the_mark_3_square_into_mark_2(t: int, coeffs: dict) -> dict:
    # Pullback is linear, so this stays stable; swapping marks 2 and 3 breaks it.
    square2, square3 = _power(t, 2, 2), _power(t, 3, 2)
    coeffs[square2] = linear_combination([(1, coeffs[square2]), (1, coeffs[square3])])
    return coeffs


def _add_linear_terms(t: int, coeffs: dict) -> dict:
    # Each x_i carries the x_i^2 coefficient: stable and equivariant, not homogeneous.
    for mark in range(2, t + 1):
        coeffs[_power(t, mark, 1)] = coeffs[_power(t, mark, 2)]
    return coeffs


#: Per predicate: how its input is doctored, and the end of the FAIL line.
_PREDICATE_DOCTORS: dict[str, tuple[Callable[[pytest.MonkeyPatch], None], str]] = {
    "verify_scaling": (_doctor_targets, "g=1, d=2"),
    "check_pullback_stability": (
        lambda mp: _doctor_quadric(mp, _drop_a_square_at_four_marks),
        "t=4: coefficient (2, 0, 0) is missing",
    ),
    "check_equivariance": (
        lambda mp: _doctor_quadric(mp, _fold_the_mark_3_square_into_mark_2),
        "t=3: swapping marks 2, 3 at exponents (2, 0)",
    ),
    "check_homogeneity": (
        lambda mp: _doctor_quadric(mp, _add_linear_terms),
        "t=3, scale 5, point (2, 3)",
    ),
}


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
    doctor, detail = _PREDICATE_DOCTORS[predicate]
    doctor(monkeypatch)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failures) == 1
    assert failures[0].startswith(f"FAIL {section}:")
    assert witness in failures[0] and failures[0].endswith(detail)


@pytest.mark.parametrize(
    "name, doctor, section",
    [
        # tau replaced by x, which does not solve tau = x exp(tau)
        ("series_tau", lambda honest: lambda order: series([0, 1], order=order), "series"),
        # every one-part count off by one
        ("hurwitz_one_part", lambda honest: lambda nu, d: honest(nu, d) + 1, "hurwitz"),
        # the mixed coefficient of the three-mark quadric replaced by a pure one
        (
            "genus1_polynomial",
            lambda honest: lambda t: MultiPoly(
                t - 1, {**honest(t).coeffs, (1, 1): honest(t).coeffs[(2, 0)]}
            ),
            "divisors",
        ),
        # every coefficient doubled, the anchor included
        (
            "hain_expand",
            lambda honest: lambda g, t, w: {m: 2 * c for m, c in honest(g, t, w).items()},
            "hain",
        ),
        # the polynomial rebuilt from values shifted by one
        (
            "interpolate",
            lambda honest: lambda fn, degrees: honest(lambda point: fn(point) + 1, degrees),
            "interp",
        ),
    ],
    ids=["series", "hurwitz", "divisors", "hain", "interp"],
)
def test_verify_all_fails_on_a_doctored_input(
    name: str,
    doctor: Callable,
    section: str,
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Each of these checks fails, alone, when the value it checks is wrong."""
    monkeypatch.setattr(cli, name, doctor(getattr(cli, name)))
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if not line.startswith("PASS ")]
    assert len(failures) == 1
    assert failures[0].startswith(f"FAIL {section}:")


@pytest.mark.parametrize(
    "d_max, alpha, beta, pair",
    [
        (7, (4, 3), (5, 2), "(5, 2)/(4, 3)"),
        # neither profile is one-part or 1^d
        (9, (5, 4), (3, 3, 3), "(5, 4)/(3, 3, 3)"),
    ],
    ids=["degree-7", "degree-9"],
)
def test_verify_all_checks_hurwitz_symmetry_on_every_pair(
    d_max: int,
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
    pair: str,
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """One count off by one, in one order only, fails the sweep."""
    honest = cli.hurwitz_row

    def doctored(profile: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        row = honest(profile)
        if tuple(profile) == alpha:
            row[beta] += 1
        return row

    monkeypatch.setattr(cli, "hurwitz_row", doctored)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", str(d_max)], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if not line.startswith("PASS ")]
    assert failures == [
        f"FAIL hurwitz: one-part-and-symmetry-d<={d_max} — symmetry fails at {pair}"
    ]


@pytest.mark.parametrize(
    "name, doctor, failure",
    [
        # the pair normalization by aut(alpha) instead of aut(beta)
        (
            "hurwitz_oracle",
            lambda honest: lambda alpha, beta: honest(alpha, beta) * aut(alpha) / aut(beta),
            "pair count fails at (1, 1)/(2,)",
        ),
        # the rubber integral divided by (r - 1)! instead of r!
        (
            "rubber_psi_integral",
            lambda honest: lambda alpha, beta: honest(alpha, beta) * (len(alpha) + len(beta) - 2),
            "rubber integral fails at (1, 1)/(1, 1)",
        ),
    ],
    ids=["oracle-normalization", "rubber-integral"],
)
def test_verify_all_checks_what_the_hurwitz_command_prints(
    name: str,
    doctor: Callable,
    failure: str,
    capsys: pytest.CaptureFixture[str],
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """The default sweep fails, in its Hurwitz check alone, when a count the
    ``hurwitz`` command prints, and the rows do not, is wrong."""
    monkeypatch.setattr(cli, name, doctor(getattr(cli, name)))
    code, out = _run(["verify-all"], capsys)
    assert code == 2
    failures = [line for line in out.splitlines() if not line.startswith("PASS ")]
    assert failures == [f"FAIL hurwitz: one-part-and-symmetry-d<=5 — {failure}"]


def test_verify_all_checks_the_pair_totals_at_every_degree(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """A doctored degree-6 pair relation misses the closed form ``-d^(d-2)``."""
    honest = locgraphs.relation_extract

    def doctored(d: int, lift: locgraphs.Lift) -> locgraphs.Relation:
        relation = honest(d, lift)
        if d != 6 or lift.divisor:
            return relation
        terms = {
            graph: {mono: 2 * coeff for mono, coeff in monos.items()}
            if graph.side == "infinity"
            else monos
            for graph, monos in relation.terms.items()
        }
        return locgraphs.Relation(d, lift, terms)

    # Only the command line's view of the graph layer is doctored, so the
    # graph-sum cross-check, which extracts inside locgraphs, stays honest.
    monkeypatch.setattr(
        cli, "locgraphs", SimpleNamespace(**{**vars(locgraphs), "relation_extract": doctored})
    )
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "6"], capsys)
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL localize: pair-lift-rubber-totals-d<=6 — pair-lift rubber total differs at d=6",
    ]


@pytest.mark.parametrize(
    "field, message",
    [("residual", "degree-3 residual is not zero"), ("b_again", "degree-3 mixed coefficient differs")],
    ids=["residual", "mixed-coefficient"],
)
def test_verify_all_fails_on_a_doctored_degree_three_report(
    field: str, message: str, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """The degree-2 solve stays honest; the degree-3 report carries the
    degree-2 pure coefficient ``a2`` in place of one of its fields."""
    honest = locgraphs.evaluate_and_solve

    def doctored(d: int) -> object:
        report = honest(d)
        return dataclasses.replace(report, **{field: report.base.a2}) if d == 3 else report

    monkeypatch.setattr(
        cli, "locgraphs", SimpleNamespace(**{**vars(locgraphs), "evaluate_and_solve": doctored})
    )
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"FAIL divisors: degree-2-solve-and-degree-3-residual — {message}",
    ]


def test_verify_all_fails_when_hain_weight_scaling_fails(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    """The anchor at weights (1, -1) stays honest; at genus 3 the doubled
    weights come back unscaled."""
    honest = cli.hain_expand

    def doctored(g: int, t: int, weights: tuple) -> dict:
        return honest(g, t, (1, -1) if (g, weights[0]) == (3, 2) else weights)

    monkeypatch.setattr(cli, "hain_expand", doctored)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "2"], capsys)
    assert code == 2
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        "FAIL hain: anchor-and-weight-scaling — weight scaling fails at genus 3",
    ]


def test_interp_reports_a_failed_round_trip_and_exits_two(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    honest = cli.interpolate
    monkeypatch.setattr(
        cli, "interpolate", lambda fn, degrees: honest(lambda point: fn(point) + 1, degrees)
    )
    code, out = _run(["interp", "--trials", "3"], capsys)
    assert code == 2
    assert out == "FAIL interp: 3 of 3 round-trips differ\n"


def test_interp_refuses_zero_trials_in_process(capsys: pytest.CaptureFixture[str]) -> None:
    code = cli.main(["interp", "--trials", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error[invalid-argument]: --trials must be >= 1, got 0\n"


def test_a_theorem_violation_in_a_command_exits_two(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    def violated(t: int) -> MultiPoly:
        raise TheoremViolationError(f"doctored at {t} marks")

    monkeypatch.setattr(cli, "genus1_polynomial", violated)
    code = cli.main(["pclass", "--marks", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error[theorem-violation]: doctored at 3 marks\n"


def test_verify_all_refuses_a_genus_past_the_cap_at_once(
    capsys: pytest.CaptureFixture[str],
) -> None:
    g = MAX_GENUS + 1
    start = time.perf_counter()
    code, out = _run(["verify-all", "--g-max", str(g), "--d-max", "2"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 1
    limit = f"genus {g} exceeds the genus cap {MAX_GENUS}"
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"LIMIT series: log-sine-scaling-g<={g}-d<=2 — {limit}",
        f"LIMIT hodge: linear-system-g<={g}-d<=2 — {limit}",
        f"LIMIT hodge: graph-sum-cross-check-g<={g}-d<=2 — {limit}",
    ]
    assert elapsed < 2.0


@pytest.mark.parametrize("d", [MAX_PARTITION_DEGREE + 1, 1000000], ids=["cap", "huge"])
def test_verify_all_refuses_a_degree_past_the_cap_at_once(
    d: int, capsys: pytest.CaptureFixture[str]
) -> None:
    assert cli._degrees(MAX_PARTITION_DEGREE) == range(1, MAX_PARTITION_DEGREE + 1)
    start = time.perf_counter()
    code, out = _run(["verify-all", "--d-max", str(d)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 1
    limit = f"degree {d} exceeds the partition-sum cap {MAX_PARTITION_DEGREE}"
    assert [line for line in out.splitlines() if not line.startswith("PASS ")] == [
        f"LIMIT series: log-sine-scaling-g<=3-d<={d} — {limit}",
        f"LIMIT hurwitz: one-part-and-symmetry-d<={d} — {limit}",
        f"LIMIT hodge: linear-system-g<=3-d<={d} — {limit}",
        f"LIMIT hodge: graph-sum-cross-check-g<=3-d<={d} — {limit}",
        f"LIMIT localize: pair-lift-rubber-totals-d<={d} — {limit}",
    ]
    assert elapsed < 2.0


def test_verify_all_reports_a_resource_limit_as_a_limit(
    capsys: pytest.CaptureFixture[str],
) -> None:
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "11"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "LIMIT hurwitz: one-part-and-symmetry-d<=11 — degree 11 exceeds the exact-count cap 10",
    ]
    assert "PASS hodge: graph-sum-cross-check-g<=1-d<=11" in lines


def test_verify_all_violation_outranks_a_limit(
    capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    _doctor_targets(monkeypatch)
    code, out = _run(["verify-all", "--g-max", "1", "--d-max", "11"], capsys)
    assert code == 2
    statuses = [line.split(":")[0] for line in out.splitlines() if not line.startswith("PASS ")]
    assert statuses == ["FAIL series", "LIMIT hurwitz"]


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
        (["hurwitz", "--alpha", "2,,1", "--beta", "3"], "bad profile '2,,1'"),
        (["hurwitz", "--alpha", "2,1,", "--beta", "3"], "bad profile '2,1,'"),
        (["interp", "--degrees", "2,,2"], "bad degrees '2,,2'"),
        (["interp", "--trials", "0"], "--trials must be >= 1, got 0"),
        (["interp", "--trials", "-3"], "--trials must be >= 1, got -3"),
    ],
    ids=[
        "hain-word",
        "hain-zero-denominator",
        "interp-word",
        "hurwitz-empty-chunk",
        "hurwitz-trailing-comma",
        "interp-empty-chunk",
        "interp-zero-trials",
        "interp-negative-trials",
    ],
)
def test_malformed_numbers_exit_one_without_a_traceback(argv: list[str], message: str) -> None:
    result = _run_process(argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error[invalid-argument]: {message}\n"


_TOO_LONG = f"a rational with more than {sys.get_int_max_str_digits()} digits is too long to print"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["series", "--log-sine", "--d", "2", "--order", "100000"],
            f"order 100000 exceeds the series-order cap {MAX_SERIES_ORDER}",
        ),
        (
            ["series", "--tau", "--order", "100000000"],
            f"order 100000000 exceeds the series-order cap {MAX_SERIES_ORDER}",
        ),
        (["hurwitz", "--alpha", "1200", "--beta", ",".join(["1"] * 1200)], _TOO_LONG),
        # y^20 has a coefficient near d^20, ten thousand digits at d = 10^500
        (["series", "--log-sine", "--d", "1" + "0" * 500, "--order", "20"], _TOO_LONG),
    ],
    ids=["log-sine-order", "tau-order", "hurwitz-huge-count", "log-sine-huge-scale"],
)
def test_resource_limits_exit_one_without_a_traceback(argv: list[str], message: str) -> None:
    result = _run_process(argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error[resource-limit]: {message}\n"


def test_log_sine_past_the_digit_limit_is_refused_before_any_coefficient(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def unreachable(d: int, order: int) -> None:
        raise AssertionError("series_log_sine ran although its output cannot be printed")

    monkeypatch.setattr(cli, "series_log_sine", unreachable)
    for order in ("88", str(MAX_SERIES_ORDER)):
        code = cli.main(["series", "--log-sine", "--d", "1" + "0" * 50, "--order", order])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error[resource-limit]: {_TOO_LONG}\n"


def test_log_sine_at_a_large_scale_below_the_digit_limit_still_prints(
    capsys: pytest.CaptureFixture[str],
) -> None:
    # At d = 10^50 order 84 still prints (its longest numerator has about
    # 4,100 digits) and order 86 is past the limit; the up-front refusal
    # starts at order 88, so order 84 must run and print as before.
    d, order = 10**50, 84
    code, out = _run(
        ["series", "--log-sine", "--d", str(d), "--order", str(order), "--format", "json"], capsys
    )
    assert code == 0
    expected = series_to_json(series_log_sine(d, order))
    assert out == json.dumps({"name": f"log-sine-{d}", **expected}, sort_keys=True) + "\n"
    assert max(len(c.split("/")[0]) for c in expected["coeffs"]) > 4000


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["interp", "--degrees", "30,30,30", "--trials", "1"],
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
    assert "must be >= 1" in captured.err


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
