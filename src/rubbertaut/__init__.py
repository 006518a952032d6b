"""Exact localization toolkit for rubber maps and genus-one boundary classes.

The package computes, with exact rational arithmetic throughout:

* connected branched-cover counts with two fixed ramification profiles and
  the associated rubber cotangent integrals (:mod:`rubbertaut.hurwitz`);
* the one-point Hodge-integral linear systems and their closed-form targets
  (:mod:`rubbertaut.hodge`, :mod:`rubbertaut.series`);
* torus fixed-point graph sums in degrees two and three, their simple-pole
  relations, and the boundary solve for the genus-one weight quadric
  (:mod:`rubbertaut.locgraphs`, :mod:`rubbertaut.tautring`);
* the closed-form weight polynomial for arbitrarily many marks and the
  theta-divisor power expansion (:mod:`rubbertaut.polyclasses`).
"""

from __future__ import annotations

from .errors import (
    InconsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
    RubberTautError,
    TheoremViolationError,
    TruncationExceededError,
    UnsupportedGraphError,
)
from .hodge import hodge_linear_form, n_target, solve_hodge
from .hurwitz import hurwitz_one_part, hurwitz_oracle, rubber_psi_integral
from .locgraphs import (
    LIFT_DIVISOR,
    enumerate_graphs,
    enumerate_rows,
    evaluate_and_solve,
    hodge_form_from_graphs,
    lift_pair,
    relation_extract,
)
from .hodge import verify_scaling
from .locgraphs import assemble_contribution
from .partitions import aut, enumerate_marked, enumerate_partitions, tau_power_coefficient
from .polyclasses import (
    check_equivariance,
    check_pullback_stability,
    genus1_polynomial,
    hain_expand,
    interpolate,
)
from .series import series_log_sine, series_tau
from .tautring import RingContext, TautClass, boundary, psi1

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "RubberTautError",
    "InvalidArgumentError",
    "TruncationExceededError",
    "ResourceLimitError",
    "TheoremViolationError",
    "UnsupportedGraphError",
    "InconsistencyError",
    "hurwitz_oracle",
    "hurwitz_one_part",
    "rubber_psi_integral",
    "hodge_linear_form",
    "solve_hodge",
    "verify_scaling",
    "n_target",
    "series_tau",
    "series_log_sine",
    "enumerate_partitions",
    "enumerate_marked",
    "aut",
    "tau_power_coefficient",
    "RingContext",
    "TautClass",
    "psi1",
    "boundary",
    "LIFT_DIVISOR",
    "lift_pair",
    "enumerate_graphs",
    "enumerate_rows",
    "assemble_contribution",
    "relation_extract",
    "evaluate_and_solve",
    "hodge_form_from_graphs",
    "genus1_polynomial",
    "check_pullback_stability",
    "check_equivariance",
    "hain_expand",
    "interpolate",
]
