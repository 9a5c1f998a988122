"""Root mean power, geometric, harmonic and weighted geometric means.

Each mean exists in two independent computational routes:

* a closed form, evaluated coordinatewise;
* the infimum-of-tangents representation (these concave positively
  homogeneous means are the infimum of linear combinations over a constraint
  set), evaluated either at the Lagrange stationary point or by a
  deterministic search over a feasible grid.

The grid route never reaches below the true infimum (it only visits feasible
points), and its grids are nested under resolution doubling, so its value is
monotone nonincreasing in the resolution. It reports an a priori bound on the
remaining gap.

Conventions:

* every mean accepts nonnegative vectors only; negative entries are rejected
  rather than silently absolute-valued;
* the harmonic mean is 0 in every coordinate where some argument vanishes;
* the weighted geometric infimum evaluates to 0 on vanishing coordinates, an
  infimum that is approached (as the corresponding parameter grows) but not
  attained inside the open constraint set;
* only the harmonic mean supports exact-rational vectors, because the other
  closed forms involve roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .lattice import DimensionMismatchError, LatticeVector, PositiveVector
from .partitions import WeightVector

__all__ = [
    "InfimumSpec",
    "MeanResult",
    "root_mean_power",
    "geometric_mean",
    "harmonic_mean",
    "weighted_geometric_mean",
    "harmonic_mean_via_infimum",
    "wgm_via_infimum",
    "root_mean_power_stack",
    "geometric_mean_stack",
    "harmonic_mean_stack",
    "weighted_geometric_mean_stack",
]

_GRID_POINT_LIMIT = 5_000_000


def _stack(fs: Sequence[LatticeVector], *, allow_exact: bool = False) -> tuple[np.ndarray, bool]:
    """Validate a tuple of nonnegative vectors and stack them into shape (k, n)."""
    if not fs:
        raise ValueError("a mean needs at least one argument")
    first = fs[0]
    for other in fs[1:]:
        if not isinstance(other, LatticeVector):
            raise TypeError(f"expected LatticeVector arguments, got {type(other).__name__}")
        if other.dim != first.dim:
            raise DimensionMismatchError(f"dimension mismatch: {first.dim} vs {other.dim}")
        if other.is_exact != first.is_exact:
            raise ValueError("cannot mix exact and float vectors")
    exact = first.is_exact
    if exact and not allow_exact:
        raise ValueError("exact-rational vectors are only supported by harmonic_mean")
    X = np.stack([f.to_array() for f in fs])
    if not np.all(X >= 0):
        raise ValueError("means are defined on nonnegative vectors only")
    return X, exact


# -- closed forms over stacks ----------------------------------------------------
#
# Each takes float arguments (the harmonic mean: or exact Fractions, as
# objects) stacked along axis -2, shape (..., k, n): one tuple (k, n) or a
# block of tuples (T, k, n), and returns shape (..., n). The single-tuple
# means below call them on their (k, n) stack, so a block row equals the
# mean of that row's tuple bit for bit.


def root_mean_power_stack(s: int, X: np.ndarray) -> np.ndarray:
    """Coordinatewise (sum_k x_k^s)^(1/s)."""
    return np.sum(X**s, axis=-2) ** (1.0 / s)


def geometric_mean_stack(X: np.ndarray) -> np.ndarray:
    """Coordinatewise (prod_k x_k)^(1/k) over the k stacked arguments."""
    return np.prod(X, axis=-2) ** (1.0 / X.shape[-2])


def harmonic_mean_stack(X: np.ndarray) -> np.ndarray:
    """Coordinatewise k / sum_k (1/x_k), accumulated in extended precision,
    or exactly in Fractions for an object stack; 0 where some argument
    vanishes."""
    if X.dtype == object:
        vanished = X == 0
        out = Fraction(X.shape[-2]) / np.sum(Fraction(1) / np.where(vanished, 1, X), axis=-2)
        out[vanished.any(axis=-2)] = Fraction(0)
        return out
    with np.errstate(divide="ignore"):
        recip = 1.0 / X.astype(np.longdouble)
    # vanished coordinates propagate as inf -> k/inf -> 0, exactly the 0 branch
    return (np.longdouble(X.shape[-2]) / np.sum(recip, axis=-2)).astype(float)


def weighted_geometric_mean_stack(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Coordinatewise prod_k x_k^(t_k) for float weights t of shape (k,)."""
    return np.prod(X ** t[:, None], axis=-2)


def root_mean_power(s: int, fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th root mean power: coordinatewise (sum_k x_k^s)^(1/s).

    The number of arguments is independent of the power s.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"power must be a positive integer, got {s!r}")
    X, _ = _stack(fs)
    return PositiveVector(root_mean_power_stack(s, X))


def geometric_mean(fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th geometric mean of s vectors: coordinatewise (prod_k x_k)^(1/s)."""
    X, _ = _stack(fs)
    return PositiveVector(geometric_mean_stack(X))


def harmonic_mean(fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th harmonic mean of s vectors.

    Coordinatewise ``s / sum_k (1/x_k)`` when every argument is positive
    there, and exactly 0 as soon as one argument vanishes (the mean is
    defined piecewise with a zero branch, matching its infimum form).

    Float inputs are accumulated in extended precision so the result stays
    within 1 ulp of the true value; in particular the bounds
    ``min <= harmonic <= s * min`` survive the tie case of all-equal
    arguments at 1 ulp slack. Exact-rational inputs give an exact Fraction
    result.
    """
    X, exact = _stack(fs, allow_exact=True)
    return PositiveVector(harmonic_mean_stack(X), exact=exact)


def _weight_floats(weights: WeightVector | Sequence) -> np.ndarray:
    if isinstance(weights, WeightVector):
        t = np.array(weights.as_floats())
    else:
        ws = list(weights)
        if not ws:
            raise ValueError("a weight vector needs at least one weight")
        t = np.array([float(w) for w in ws])
        if np.any(t <= 0) or np.any(t > 1):
            raise ValueError("weights must lie in (0, 1]")
        if not math.isclose(float(t.sum()), 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {t.sum()}")
    return t


def weighted_geometric_mean(
    weights: WeightVector | Sequence, fs: Sequence[PositiveVector]
) -> PositiveVector:
    """The weighted geometric mean: coordinatewise prod_k x_k^(t_k).

    Weights must be positive, at most 1, and sum to 1; arity must match the
    number of argument vectors.
    """
    t = _weight_floats(weights)
    X, _ = _stack(fs)
    if X.shape[0] != t.size:
        raise ValueError(f"got {X.shape[0]} vectors for {t.size} weights")
    return PositiveVector(weighted_geometric_mean_stack(t, X))


# -- infimum-of-tangents evaluators -------------------------------------------


@dataclass(frozen=True)
class InfimumSpec:
    """Description of a constrained-minimization representation of a mean.

    kind
        ``"harmonic"``: value = s * inf over {0 <= a_k <= 1, sum sqrt(a_k) = 1}
        of sum_k a_k x_k, for ``arity`` = s arguments.
        ``"weighted_geometric"``: value = inf over {theta_k > 0,
        prod theta_k^(t_k) = 1} of sum_k t_k theta_k x_k, for the exact
        rational ``weights`` t_k = r_k / s.
    resolution
        Grid resolution m for the grid route (>= 1). Grids at resolution m
        are subsets of those at 2m, so grid values cannot increase under
        doubling.
    log_width
        Half-width of the log-parameter box searched by the weighted
        geometric grid route. The reported gap bound assumes the minimizer
        lies strictly inside the box; a minimizer on the boundary is
        reported as an unbounded gap.
    """

    kind: str
    arity: int | None = None
    weights: WeightVector | None = None
    resolution: int = 64
    log_width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("harmonic", "weighted_geometric"):
            raise ValueError(f"unknown infimum kind {self.kind!r}")
        if self.kind == "harmonic":
            if self.arity is None or self.arity < 1:
                raise ValueError("harmonic infimum needs arity >= 1")
        else:
            if self.weights is None:
                raise ValueError("weighted_geometric infimum needs a weight vector")
        if self.resolution < 1:
            raise ValueError("grid resolution must be >= 1")
        if self.log_width <= 0:
            raise ValueError("log_width must be positive")


@dataclass(frozen=True)
class MeanResult:
    """A mean value plus the route that produced it.

    ``residual_bound`` is present exactly for the grid route: an a priori
    upper bound on (reported value - true infimum), maximized over
    coordinates.
    """

    value: PositiveVector
    method: str
    residual_bound: float | None = None

    def __post_init__(self):
        if self.method not in ("closed_form", "lagrange", "grid"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.residual_bound is not None) != (self.method == "grid"):
            raise ValueError("residual_bound is reported by the grid method only")
        if self.residual_bound is not None and self.residual_bound < 0:
            raise ValueError("residual_bound must be nonnegative")


@lru_cache(maxsize=64)
def _simplex_grid(m: int, k: int) -> np.ndarray:
    """All lattice points c/m of the standard k-simplex, shape (N, k), read-only."""
    def compositions(total: int, parts: int) -> np.ndarray:
        if parts == 1:
            return np.array([[total]], dtype=np.int64)
        blocks = []
        for first in range(total + 1):
            rest = compositions(total - first, parts - 1)
            blocks.append(
                np.column_stack([np.full(len(rest), first, dtype=np.int64), rest])
            )
        return np.vstack(blocks)

    grid = compositions(m, k).astype(float) / m
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=64)
def _log_grid(m: int, free_dims: int, width: float) -> np.ndarray:
    """Uniform mesh on [-width, width]^free_dims with m+1 points per axis.

    Point sets at resolution m are subsets of those at 2m, which makes grid
    minima monotone under resolution doubling.
    """
    axis = -width + 2.0 * width * np.arange(m + 1) / m
    mesh = np.meshgrid(*([axis] * free_dims), indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1)
    grid.flags.writeable = False
    return grid


def harmonic_mean_via_infimum(
    fs: Sequence[PositiveVector], spec: InfimumSpec, method: str = "lagrange"
) -> MeanResult:
    """Evaluate the harmonic mean through its infimum representation.

    The box constraint ``0 <= a_k <= 1`` with ``sum sqrt(a_k) = 1`` is
    reparameterized by u_k = sqrt(a_k), making the feasible set the standard
    simplex and the objective ``s * sum u_k^2 x_k`` convex.

    lagrange
        Interior stationary point u_k proportional to 1/x_k, accepted as the
        global minimum by convexity. Coordinates with a vanishing argument
        short-circuit to 0, the boundary minimum (all weight on the vanished
        argument).
    grid
        Exhaustive minimum over the simplex lattice {c/m : c a composition of
        m into s parts}. Feasible-only search, so the value can only
        overestimate the infimum; the gap bound comes from rounding the true
        minimizer to the lattice, which perturbs each u_k by at most 1/m and
        the quadratic objective by at most s * sum_k x_k / m^2.
    """
    if spec.kind != "harmonic":
        raise ValueError(f"spec kind {spec.kind!r} does not match harmonic_mean_via_infimum")
    X, _ = _stack(fs)
    s = X.shape[0]
    if spec.arity != s:
        raise ValueError(f"spec arity {spec.arity} does not match {s} arguments")

    if method == "lagrange":
        value = np.zeros(X.shape[1])
        positive = np.all(X > 0, axis=0)
        if np.any(positive):
            Xp = X[:, positive]
            u = (1.0 / Xp) / np.sum(1.0 / Xp, axis=0)
            value[positive] = s * np.sum(u * u * Xp, axis=0)
        return MeanResult(PositiveVector(value), "lagrange")

    if method == "grid":
        m = spec.resolution
        count = math.comb(m + s - 1, s - 1)
        if count > _GRID_POINT_LIMIT:
            raise ValueError(
                f"simplex grid too large: {count} points for arity {s} at resolution {m}"
            )
        U = _simplex_grid(m, s)
        values = s * ((U * U) @ X)  # (N, n)
        value = values.min(axis=0)
        bound = float(np.max(s * np.sum(X, axis=0) / (m * m)))
        return MeanResult(PositiveVector(value), "grid", bound)

    raise ValueError(f"unknown method {method!r}")


def wgm_via_infimum(
    weights: WeightVector,
    fs: Sequence[PositiveVector],
    spec: InfimumSpec,
    method: str = "lagrange",
) -> MeanResult:
    """Evaluate the weighted geometric mean through its infimum representation.

    The representation is ``inf { sum_k t_k theta_k x_k }`` over positive
    theta with ``prod theta_k^(t_k) = 1`` (weights t_k = r_k/s, so the
    conventional 1/s prefactor is absorbed into the t_k).

    lagrange
        Stationary point theta_k = G / x_k with G = prod_j x_j^(t_j), i.e.
        theta_k = lambda / (s x_k) for the multiplier lambda = s * G; the
        objective is then re-evaluated numerically at that point.
    grid
        The constraint is a hyperplane in log space. All but one coordinate
        range over the nested uniform grid on [-log_width, +log_width] (the
        largest weight is eliminated, which keeps the dependent coordinate
        best conditioned), and the remaining coordinate is solved from the
        constraint, so every grid point is feasible. Coordinates with a
        vanishing argument return 0 directly: the infimum there is 0,
        approached as the matching theta grows without bound, so no finite
        box can realize it.
    """
    if spec.kind != "weighted_geometric":
        raise ValueError(f"spec kind {spec.kind!r} does not match wgm_via_infimum")
    if not isinstance(weights, WeightVector):
        raise TypeError("wgm_via_infimum needs an exact WeightVector")
    if spec.weights != weights:
        raise ValueError("weight vector does not match InfimumSpec.weights")
    t = np.array(weights.as_floats())
    p = t.size
    X, _ = _stack(fs)
    if X.shape[0] != p:
        raise ValueError(f"got {X.shape[0]} vectors for {p} weights")

    n = X.shape[1]
    positive = np.all(X > 0, axis=0)
    value = np.zeros(n)

    if method == "lagrange":
        if np.any(positive):
            Xp = X[:, positive]
            G = np.exp(t @ np.log(Xp))
            theta = G[None, :] / Xp
            value[positive] = np.sum(t[:, None] * theta * Xp, axis=0)
        return MeanResult(PositiveVector(value), "lagrange")

    if method == "grid":
        m, Y = spec.resolution, spec.log_width
        if p == 1:
            # single weight 1: the mean is the identity, the constraint pins theta = 1
            return MeanResult(PositiveVector(X[0]), "grid", 0.0)
        if (m + 1) ** (p - 1) > _GRID_POINT_LIMIT:
            raise ValueError(
                f"log grid too large: {(m + 1) ** (p - 1)} points for {p} weights"
            )
        dep = int(np.argmax(t))
        free = [k for k in range(p) if k != dep]
        Yfree = _log_grid(m, p - 1, Y)  # (N, p-1)
        Yfull = np.empty((Yfree.shape[0], p))
        Yfull[:, free] = Yfree
        Yfull[:, dep] = -(Yfree @ t[free]) / t[dep]
        coeffs = np.exp(Yfull) * t  # (N, p)
        bound = 0.0
        if np.any(positive):
            vals = coeffs @ X[:, positive]  # (N, n_positive)
            argmin = np.argmin(vals, axis=0)
            value[positive] = vals[argmin, np.arange(vals.shape[1])]
            # gap bound: a half-spacing move of the free coordinates rescales the
            # objective by at most exp(c*h/2) with c = max(1, (1-t_dep)/t_dep)
            h = 2.0 * Y / m
            c = max(1.0, (1.0 - t[dep]) / t[dep])
            factor = 1.0 - math.exp(-c * h / 2.0)
            on_boundary = np.any(np.abs(np.abs(Yfree[argmin]) - Y) < 1e-12, axis=1)
            per_coord = np.where(on_boundary, np.inf, value[positive] * factor)
            bound = float(np.max(per_coord))
        return MeanResult(PositiveVector(value), "grid", bound)

    raise ValueError(f"unknown method {method!r}")
