"""Verification reports, residual policy and the tolerance configuration.

All identity checks in this package reduce two computed sides to a single
scalar residual through one shared policy: componentwise, the deviation is
measured relative to the larger side when that magnitude exceeds the switch
point (default 1), and absolutely otherwise. Identities here span many orders
of magnitude under log-uniform sampling, and this policy keeps one tolerance
meaningful across all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from typing import Any

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "residual",
    "row_residuals",
    "identity_payload",
    "cross_payload",
    "json_safe",
    "VerificationReport",
    "CLAIM_IDS",
]


def __getattr__(name: str):
    if name != "CLAIM_IDS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .theorems import CLAIM_IDS  # from the claim table, which builds on this module
    return CLAIM_IDS


@dataclass(frozen=True)
class ToleranceConfig:
    """One record holding every tolerance and the relative/absolute switch.

    identity_rel
        Residual tolerance for polynomial/mean identity checks.
    grid_abs
        Acceptance threshold for the grid route's final residual against the
        closed form at the maximum configured resolution.
    exact_slack
        Allowed residual in exact-rational replication (0: identities must
        hold exactly).
    relative_switch
        Magnitude above which residuals are measured relatively.
    mixed_abs
        Absolute threshold for mixed multilinear values on disjoint inputs.
    falsify_threshold
        Residual above which a sampled input counts as a witness against an
        identity.
    polarization_rel
        Agreement tolerance between black-box polarization and direct
        multilinear evaluation.
    geos_rel
        Tolerance for the weighted-geometric vs repeated-argument geometric
        mean identity.
    ulp_slack
        Slack, in units in the last place, for the order comparisons of the
        harmonic-mean bounds check.
    """

    identity_rel: float = 1e-9
    grid_abs: float = 1e-4
    exact_slack: float = 0.0
    relative_switch: float = 1.0
    mixed_abs: float = 1e-10
    falsify_threshold: float = 1e-6
    polarization_rel: float = 1e-8
    geos_rel: float = 1e-12
    ulp_slack: int = 1

    def __post_init__(self):
        for name in ("identity_rel", "grid_abs", "relative_switch",
                     "mixed_abs", "falsify_threshold", "polarization_rel", "geos_rel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.exact_slack < 0 or self.ulp_slack < 0:
            raise ValueError("slacks must be nonnegative")


DEFAULT_TOLERANCES = ToleranceConfig()


# inf - inf and inf / inf give NaN, which becomes inf below; a difference of
# finite sides that overflows is recomputed below from the scaled sides
@np.errstate(invalid="ignore", over="ignore")
def row_residuals(lhs: np.ndarray, rhs: np.ndarray, *,
                  switch: float = DEFAULT_TOLERANCES.relative_switch) -> np.ndarray:
    """Residual of each row of two stacked sides of shape (rows, ...).

    Componentwise |lhs - rhs|, divided by max(|lhs|, |rhs|) where that scale
    exceeds ``switch``; each row reduces to the maximum over its components.
    A row with a non-finite component on either side gets residual ``inf``;
    finite sides whose difference overflows are compared as
    |lhs / scale - rhs / scale|, so their relative residual stays finite.
    Object arrays of exact Fractions flow through unconverted, so a zero
    residual is exact.
    """
    if lhs.shape != rhs.shape:
        raise ValueError(f"shape mismatch: {lhs.shape[1:]} vs {rhs.shape[1:]}")
    diff = np.abs(lhs - rhs)
    if diff.dtype.kind in "iu":
        diff = diff.astype(float)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    np.divide(diff, scale, out=diff, where=scale > switch)
    out = np.maximum.reduce(diff.reshape(len(diff), -1), axis=1)
    if out.dtype != object and not np.isfinite(out).all():
        # a finite scale means two finite sides, whose difference overflowed
        over = np.isinf(diff) & np.isfinite(scale) & (scale > switch)
        if over.any():
            diff[over] = np.abs(lhs[over] / scale[over] - rhs[over] / scale[over])
            out = np.maximum.reduce(diff.reshape(len(diff), -1), axis=1)
        # a non-finite side leaves NaN in its component, which max propagates
        out[np.isnan(out)] = np.inf
    return out


def residual(lhs, rhs, *, switch: float = DEFAULT_TOLERANCES.relative_switch):
    """Scalar residual between two values (scalars, arrays or exact Fractions):
    the one-row case of `row_residuals`."""
    return row_residuals(np.atleast_1d(lhs)[None], np.atleast_1d(rhs)[None], switch=switch)[0]


def _has_nonfinite(*values) -> bool:
    """True iff some float component of the given values is inf or NaN."""
    for value in values:
        arr = np.asarray(value)
        if arr.dtype != object and not np.all(np.isfinite(arr)):
            return True
    return False


def identity_payload(inputs, lhs, rhs, extra=None) -> dict:
    """Counterexample of a failed identity check; tagged ``nonfinite`` when a
    side holds inf or NaN."""
    counterexample = {"inputs": inputs, "lhs": lhs, "rhs": rhs}
    if extra:
        counterexample.update(extra)
    if _has_nonfinite(lhs, rhs):
        counterexample["nonfinite"] = True
    return counterexample


def cross_payload(inputs, mixed_worst, recon_res, mixed_witness, total, recon) -> dict:
    """Counterexample of a failed cross-term check."""
    counterexample = {
        "inputs": inputs,
        "mixed_max": mixed_worst,
        "binomial_residual": recon_res,
    }
    if mixed_witness:
        counterexample.update(mixed_witness)
    if _has_nonfinite(total, recon):
        counterexample["nonfinite"] = True
    return counterexample


def _json_float(value: float) -> float | str:
    if math.isfinite(value):
        return value
    return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")


def json_safe(value: Any) -> Any:
    """``value`` with Fractions as "p/q" strings, numpy scalars and arrays as
    Python values, and non-finite floats as "inf", "-inf" and "nan"."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return _json_float(value)
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of an identity check or of a falsification search.

    For ``kind="check"`` the invariant is: ``passed`` iff ``max_residual <=
    tolerance`` and no counterexample was recorded. For ``kind="falsify"``
    the meaning of ``passed`` flips to "a witness was found"; the witness is
    stored in ``counterexample`` and a search that exhausts its budget sets
    ``inconclusive`` instead (distinct from a refutation).
    """

    claim_id: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool
    counterexample: dict | None = None
    kind: str = "check"
    inconclusive: bool = False

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        if self.kind not in ("check", "falsify"):
            raise ValueError(f"unknown report kind {self.kind!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.kind == "check":
            expect = self.max_residual <= self.tolerance and self.counterexample is None
            if self.passed != expect:
                raise ValueError("check report violates its pass/residual invariant")
            if self.inconclusive:
                raise ValueError("only falsification searches can be inconclusive")
        else:
            if self.passed and self.counterexample is None:
                raise ValueError("a successful falsification must carry its witness")
            if self.passed and self.inconclusive:
                raise ValueError("a report cannot both pass and be inconclusive")

    def to_dict(self) -> dict:
        """JSON-ready representation: Fractions become "p/q" strings and
        non-finite floats the strings "inf", "-inf" and "nan"."""
        return json_safe(asdict(self))

    def csv_row(self) -> list:
        return [self.claim_id, self.trials, self.max_residual, self.tolerance, self.passed]


CSV_HEADER = ["claim_id", "trials", "max_residual", "tolerance", "passed"]
