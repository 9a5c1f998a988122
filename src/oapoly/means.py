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
  rather than silently absolute-valued (a PositiveVector was checked when it
  was built, so only other vectors are tested);
* the harmonic mean is 0 in every coordinate where some argument vanishes;
* the weighted geometric infimum evaluates to 0 on vanishing coordinates, an
  infimum that is approached (as the corresponding parameter grows) but not
  attained inside the open constraint set;
* only the harmonic mean supports exact-rational vectors, because the other
  closed forms involve roots;
* every result is a PositiveVector built by `LatticeVector._from_data`,
  which checks the fresh array once; a value beyond the float range raises
  the route's own ValueError instead, saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .lattice import LatticeVector, PositiveVector, _check_vectors
from .partitions import WeightVector, _is_int
from .polynomials import ordered_sum

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


def _stack(fs: Sequence[LatticeVector], *, allow_exact: bool = False,
           dim: int | None = None) -> np.ndarray:
    """Validate a tuple of nonnegative vectors (of dimension ``dim`` when
    given, see `_check_vectors`) and stack their data into shape (k, n),
    of objects when exact, as only ``allow_exact`` admits. A PositiveVector
    was checked when built, so the entries are tested for sign only when
    another vector is among them."""
    if not fs:
        raise ValueError("a mean needs at least one argument")
    _check_vectors(fs, dim)
    X = np.array([f._data for f in fs])
    if X.dtype == object and not allow_exact:
        raise ValueError("exact-rational vectors are only supported by harmonic_mean")
    if not all(isinstance(f, PositiveVector) for f in fs) and not (X >= 0).all():
        raise ValueError("means are defined on nonnegative vectors only")
    return X


# -- closed forms over stacks ----------------------------------------------------
#
# Each takes float arguments (the harmonic mean: or exact Fractions, as
# objects) stacked along axis -2, shape (..., k, n): one tuple (k, n) or a
# block of tuples (T, k, n), and returns shape (..., n). The single-tuple
# means below call them on their (k, n) stack, so a block row equals the
# mean of that row's tuple bit for bit. The root mean power and the
# harmonic mean also take a ragged float block, whose rows hold tuples of
# different sizes: with ``counts`` (T,), row t's arguments are its first
# counts[t] slots, and the slots past them add +0 to its sums, which
# `ordered_sum` adds in slot order, so the row still equals the mean of its
# own tuple bit for bit.


def _used(X: np.ndarray, counts: np.ndarray | None) -> np.ndarray | None:
    """The (T, k, 1) mask of the slots in use in a ragged block X (T, k, n),
    or None for every slot."""
    return None if counts is None else np.arange(X.shape[-2])[:, None] < counts[:, None, None]


def _within_range(direct, scaled, X: np.ndarray, used: np.ndarray | None = None, *,
                  summed: bool = False) -> np.ndarray:
    """The mean ``direct(X)``, computed quietly. Only when some operation in
    it overflowed, underflowed or made a NaN, each entry that left the float
    range on the way is replaced by ``scaled(A)``, the mean computed again
    from those entries' arguments A, shape (m, k); values in range keep
    their bytes. An entry left the range when it is non-finite although
    every argument is finite, or 0 although every argument is positive: a
    vanished factor makes a product's 0. A ``summed`` mean, a sum of
    nonnegative terms, left it at a 0 although some argument is positive.
    With ``used``, the mask of a ragged block's slots (see `_used`), only
    the slots in use count as arguments."""
    flagged = []
    with np.errstate(over="call", under="call", invalid="call",
                     call=lambda err, flag: flagged.append(err)):
        out = direct(X)
        if flagged:
            unused = False if used is None else ~used
            bad = out == 0
            if bad.any():
                positive = X > 0
                if summed:
                    bad &= np.any(positive if used is None else positive & used, axis=-2)
                else:
                    bad &= np.all(positive | unused, axis=-2)
            nonfinite = ~np.isfinite(out)
            if nonfinite.any():
                bad |= nonfinite & np.all(np.isfinite(X) | unused, axis=-2)
            if bad.any():
                out[bad] = scaled(np.moveaxis(X, -2, -1)[bad])
    return out


def root_mean_power_stack(s: int, X: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise (sum_k x_k^s)^(1/s), of each row's first counts[t]
    arguments when ``counts`` is given. Where a power or the sum leaves the
    float range, the mean is taken of the arguments scaled by their maximum
    m: m (sum_k (x_k/m)^s)^(1/s). The sums are `ordered_sum`'s."""
    def scaled(A):
        m = A.max(axis=-1)
        return m * ordered_sum((A / m[:, None]) ** s, axis=-1) ** (1.0 / s)

    used = _used(X, counts)
    if used is not None:
        X = np.where(used, X, 0.0)  # an unused slot's power is 0
    return _within_range(lambda X: ordered_sum(X**s, axis=-2) ** (1.0 / s), scaled, X, used,
                         summed=True)


def geometric_mean_stack(X: np.ndarray) -> np.ndarray:
    """Coordinatewise (prod_k x_k)^(1/k) over the k stacked arguments. Where
    the product leaves the float range, the mean is taken of the arguments'
    mantissas and binary exponents: with x_k = m_k 2^(e_k) and
    sum_k e_k = q k + r, it is (2^r prod_k m_k)^(1/k) 2^q."""
    k = X.shape[-2]

    def scaled(A):
        mantissas, exponents = np.frexp(A)
        q, r = np.divmod(np.add.reduce(exponents, axis=-1), k)
        return np.ldexp(np.ldexp(np.multiply.reduce(mantissas, axis=-1), r) ** (1.0 / k), q)

    return _within_range(lambda X: np.multiply.reduce(X, axis=-2) ** (1.0 / k), scaled, X)


def harmonic_mean_stack(X: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Coordinatewise k / sum_k (1/x_k), summed in slot order
    (`ordered_sum`) in extended precision, or exactly in Fractions for an
    object stack; +0 where some argument
    vanishes. With ``counts``, of a float block, row t's k is counts[t] and
    its unused slots add 0 to the sum in place of their reciprocals.

    The zero branch is taken by mask, so no reciprocal, sum or quotient is
    ever formed of a vanished argument: x87 arithmetic on infinities, which
    k / (1/0) would need, runs 10-20 times slower than on finite values. A
    float row whose every coordinate has a vanished argument does no
    arithmetic; in any other row each zero is read as 1, and the
    coordinates where an argument in use vanished are set to +0 afterwards.
    The other coordinates keep the terms and the summation order over axis
    -2 that they have in a stack without zeros, so every value has the
    bytes that the arithmetic through infinities, k / (1/0) = +0, gives."""
    if X.dtype == object:
        vanished = X == 0
        out = Fraction(X.shape[-2]) / ordered_sum(Fraction(1) / np.where(vanished, 1, X), axis=-2)
        out[vanished.any(axis=-2)] = Fraction(0)
        return out

    def reciprocal_mean(X, k, used):
        recip = 1.0 / X.astype(np.longdouble)
        if used is not None:
            np.copyto(recip, 0, where=~used)
        return (k / ordered_sum(recip, axis=-2)).astype(float)

    used = _used(X, counts)
    k = np.longdouble(X.shape[-2]) if used is None else counts[:, None].astype(np.longdouble)
    if np.logical_and.reduce(X, axis=None):
        return reciprocal_mean(X, k, used)
    # rows of one (..., k, n) block: a lone tuple (k, n) is a block of one
    block = X.reshape(-1, *X.shape[-2:])
    vanished = block == 0
    zero = (vanished if used is None else vanished & used).any(axis=-2)
    out = np.zeros(zero.shape)
    live = ~zero.all(axis=-1)
    if live.any():
        rows = np.where(vanished[live], 1.0, block[live])
        if used is not None:
            k, used = k[live], used[live]
        values = reciprocal_mean(rows, k, used)
        values[zero[live]] = 0.0
        out[live] = values
    return out.reshape(X.shape[:-2] + X.shape[-1:])


def weighted_geometric_mean_stack(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Coordinatewise prod_k x_k^(t_k) for float weights t of shape (k,), or
    (T, k) for a block of T rows with weights of their own. A weight of 0
    leaves its slot out of the product: x ** 0 is exactly 1. Each factor
    lies between min(x, 1) and max(x, 1); where their product leaves the
    float range, it is taken of the factors' mantissas and binary exponents,
    prod_k m_k 2^(sum_k e_k)."""
    def scaled(F):
        mantissas, exponents = np.frexp(F)
        return np.ldexp(np.multiply.reduce(mantissas, axis=-1), np.add.reduce(exponents, axis=-1))

    return _within_range(lambda F: np.multiply.reduce(F, axis=-2), scaled, X ** t[..., None])


def _mean_vector(value: np.ndarray, name: str) -> PositiveVector:
    """The PositiveVector of a closed form's fresh values (exact for
    objects), checked once by `LatticeVector._from_data`. The one value of
    a mean that the check refuses is an infinite one, rounded past the
    largest float (only the root mean power exceeds every argument): that
    raises ValueError naming the mean."""
    try:
        return PositiveVector._from_data(value)
    except ValueError:
        raise ValueError(f"the {name} is beyond the float range") from None


def root_mean_power(s: int, fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th root mean power: coordinatewise (sum_k x_k^s)^(1/s).

    The number of arguments is independent of the power s. The value is at
    least the largest argument, so it can lie beyond the float range: that
    raises ValueError.
    """
    if not _is_int(s) or s < 1:
        raise ValueError(f"power must be a positive integer, got {s!r}")
    X = _stack(fs)
    return _mean_vector(root_mean_power_stack(s, X), "root mean power")


def geometric_mean(fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th geometric mean of s vectors: coordinatewise (prod_k x_k)^(1/s)."""
    X = _stack(fs)
    return _mean_vector(geometric_mean_stack(X), "geometric mean")


def harmonic_mean(fs: Sequence[PositiveVector]) -> PositiveVector:
    """The s-th harmonic mean of s vectors.

    Coordinatewise ``s / sum_k (1/x_k)`` when every argument is positive
    there, and exactly +0 as soon as one argument vanishes (the mean is
    defined piecewise with a zero branch, matching its infimum form). The
    zero branch is taken by mask: no reciprocal of a vanished argument is
    formed (see `harmonic_mean_stack`).

    Float inputs are accumulated in extended precision so the result stays
    within 1 ulp of the true value; in particular the bounds
    ``min <= harmonic <= s * min`` survive the tie case of all-equal
    arguments at 1 ulp slack. Exact-rational inputs give an exact Fraction
    result.
    """
    X = _stack(fs, allow_exact=True)
    return _mean_vector(harmonic_mean_stack(X), "harmonic mean")


def _weight_floats(weights: WeightVector | Sequence) -> np.ndarray:
    if isinstance(weights, WeightVector):
        t = np.array(weights.floats)
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
    X = _stack(fs)
    if X.shape[0] != t.size:
        raise ValueError(f"got {X.shape[0]} vectors for {t.size} weights")
    return _mean_vector(weighted_geometric_mean_stack(t, X), "weighted geometric mean")


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
        Grid resolution m for the grid route, an int >= 1. Grids at resolution m
        are subsets of those at 2m, so grid values cannot increase under
        doubling.
    log_width
        Half-width (finite, > 0) of the log-parameter box searched by the weighted
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
            if not _is_int(self.arity) or self.arity < 1:
                raise ValueError(
                    f"harmonic infimum needs an integer arity >= 1, got {self.arity!r}")
        else:
            if self.weights is None:
                raise ValueError("weighted_geometric infimum needs a weight vector")
        if not _is_int(self.resolution) or self.resolution < 1:
            raise ValueError(f"grid resolution must be an integer >= 1, got {self.resolution!r}")
        if not (math.isfinite(self.log_width) and self.log_width > 0):
            raise ValueError(f"log_width must be finite and positive, got {self.log_width!r}")


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    return _frozen(compositions(m, k).astype(float) / m)


@lru_cache(maxsize=64)
def _log_grid(m: int, free_dims: int, width: float) -> np.ndarray:
    """Uniform mesh on [-width, width]^free_dims with m+1 points per axis.

    Point sets at resolution m are subsets of those at 2m, which makes grid
    minima monotone under resolution doubling.
    """
    axis = -width + 2.0 * width * np.arange(m + 1) / m
    mesh = np.meshgrid(*([axis] * free_dims), indexing="ij")
    return _frozen(np.stack([g.ravel() for g in mesh], axis=1))


# The grid routes keep their objective's coefficients per grid point in
# cached read-only tables of shape (k, N), so that `_grid_values` lays each
# column's values over the grid along contiguous memory; a table built with
# ``rows`` = True holds the same numbers as (N, k), for a single column.


@lru_cache(maxsize=64)
def _squared_simplex(m: int, k: int, rows: bool) -> np.ndarray:
    """U * U at the points U of `_simplex_grid` (m, k): the harmonic
    objective's coefficients."""
    U = _simplex_grid(m, k)
    table = U * U
    return _frozen(table if rows else np.ascontiguousarray(table.T))


@lru_cache(maxsize=64)
def _log_coefficients(
    m: int, t: tuple[float, ...], width: float, rows: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The objective's coefficients exp(y) * t at each point y of the log grid
    on the constraint, and the read-only mask (N,) of the points with a free
    coordinate on the box boundary. The free coordinates (all but the first
    largest weight's) range over `_log_grid`, and the dependent one is solved
    from the constraint."""
    t = np.array(t)
    p = t.size
    dep = int(np.argmax(t))
    free = [k for k in range(p) if k != dep]
    Yfree = _log_grid(m, p - 1, width)
    Yfull = np.empty((Yfree.shape[0], p))
    Yfull[:, free] = Yfree
    Yfull[:, dep] = -(Yfree @ t[free]) / t[dep]
    coeffs = np.exp(Yfull) * t
    edge = np.any(np.abs(np.abs(Yfree) - width) < 1e-12, axis=1)
    return _frozen(coeffs if rows else np.ascontiguousarray(coeffs.T)), _frozen(edge)


def _positive_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The columns of the stack X (k, n) where every argument is positive,
    Fortran-ordered as ``X[:, positive]`` is, and the mask ``positive`` (n,)
    of those columns, or None when it holds every column: then X is not
    gathered. The layout keeps the bytes of the BLAS products that round by
    it (see `_grid_values`)."""
    if np.logical_and.reduce(X, axis=None):
        return np.asfortranarray(X), None
    positive = np.logical_and.reduce(X > 0, axis=0)
    return X[:, positive], positive


def _scattered(values: np.ndarray, positive: np.ndarray | None) -> np.ndarray:
    """The route's values at the positive columns of `_positive_columns`,
    and +0 at the others."""
    if positive is None:
        return values
    out = np.zeros(positive.shape)
    out[positive] = values
    return out


def _grid_values(table: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The objective ``coefficients @ X`` at every grid point, one row per
    column of X: shape (n, N). ``table`` holds the coefficients as (k, N),
    or, for a single column, as (N, k) rows.

    The values have the bytes of the (N, k) rows times X. With OpenBLAS, a
    matrix-matrix product gives each entry the same bytes whichever operand
    comes first, but a matrix-vector product rounds by the matrix's layout;
    `test_routes_golden_digest` pins both cases.
    """
    if X.shape[1] == 1:
        return (table @ X).T
    return X.T @ table


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
        argument). A coordinate whose reciprocals or their sum leave the
        float range (a subnormal argument) is computed again from the
        reciprocals times its smallest argument (`_within_range`).
    grid
        Exhaustive minimum over the simplex lattice {c/m : c a composition of
        m into s parts}. Feasible-only search, so the value can only
        overestimate the infimum; the gap bound comes from rounding the true
        minimizer to the lattice, which perturbs each u_k by at most 1/m and
        the quadratic objective by at most s * sum_k x_k / m^2.
    """
    if spec.kind != "harmonic":
        raise ValueError(f"spec kind {spec.kind!r} does not match harmonic_mean_via_infimum")
    X = _stack(fs)
    s = X.shape[0]
    if spec.arity != s:
        raise ValueError(f"spec arity {spec.arity} does not match {s} arguments")

    if method == "lagrange":
        def objective(r, X, axis):
            # s * sum_k u_k^2 x_k at u = r / sum(r), for r proportional to 1/x
            u = r / np.add.reduce(r, axis=axis, keepdims=True)
            return s * np.add.reduce(u * u * X, axis=axis)

        def scaled(A):
            # the reciprocals times each column's smallest argument, in
            # extended precision, whose range holds the terms u_k^2 x_k
            # that a subnormal argument makes
            A = A.astype(np.longdouble)
            return objective(np.minimum.reduce(A, axis=-1, keepdims=True) / A, A, -1).astype(float)

        Xp, positive = _positive_columns(X)
        value = _within_range(lambda X: objective(1.0 / X, X, 0), scaled, Xp)
        return MeanResult(PositiveVector._from_data(_scattered(value, positive)),
                          "lagrange")

    if method == "grid":
        m = spec.resolution
        count = math.comb(m + s - 1, s - 1)
        if count > _GRID_POINT_LIMIT:
            raise ValueError(
                f"simplex grid too large: {count} points for arity {s} at resolution {m}"
            )
        lows = np.minimum.reduce(_grid_values(_squared_simplex(m, s, X.shape[1] == 1), X), axis=1)
        # s * min(v) == min(s * v): rounding a product by s > 0 is monotone,
        # and so is the float product that tests the largest for overflow
        if float(np.maximum.reduce(lows)) * s == math.inf:
            # a coarse grid overshoots: s * min_k x_k at m = 1
            raise ValueError(f"the grid value at resolution {m} is beyond the float range")

        def scaled(A):
            top = np.maximum.reduce(A, axis=-1)
            return top * (s * np.add.reduce(A / top[:, None], axis=-1) / (m * m))

        gaps = _within_range(lambda X: s * np.add.reduce(X, axis=-2) / (m * m), scaled, X,
                             summed=True)
        return MeanResult(PositiveVector._from_data(s * lows), "grid",
                          float(np.maximum.reduce(gaps)))

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
        objective is then re-evaluated numerically at that point. Where G,
        theta or the value overflows, or theta = G / x underflows, which
        would drop its term from the objective, it raises ValueError.
    grid
        The constraint is a hyperplane in log space. All but one coordinate
        range over the nested uniform grid on [-log_width, +log_width] (the
        largest weight is eliminated, which keeps the dependent coordinate
        best conditioned), and the remaining coordinate is solved from the
        constraint, so every grid point is feasible. Coordinates with a
        vanishing argument return 0 directly: the infimum there is 0,
        approached as the matching theta grows without bound, so no finite
        box can realize it. A minimum beyond the float range raises
        ValueError naming the resolution.
    """
    if spec.kind != "weighted_geometric":
        raise ValueError(f"spec kind {spec.kind!r} does not match wgm_via_infimum")
    if not isinstance(weights, WeightVector):
        raise TypeError("wgm_via_infimum needs an exact WeightVector")
    if spec.weights != weights:
        raise ValueError("weight vector does not match InfimumSpec.weights")
    p = len(weights.floats)
    X = _stack(fs)
    if X.shape[0] != p:
        raise ValueError(f"got {X.shape[0]} vectors for {p} weights")

    Xp, positive = _positive_columns(X)  # BLAS rounds `t @ log(Xp)` by layout

    if method == "lagrange":
        t = np.array(weights.floats)
        try:
            with np.errstate(over="raise"):
                G = np.exp(t @ np.log(Xp))
                with np.errstate(under="raise"):  # a theta lost to underflow drops its term
                    theta = G[None, :] / Xp
                value = np.add.reduce(t[:, None] * theta * Xp, axis=0)
        except FloatingPointError:
            raise ValueError(
                "the Lagrange point G / x or its value is beyond the float range") from None
        return MeanResult(PositiveVector._from_data(_scattered(value, positive)),
                          "lagrange")

    if method == "grid":
        m, Y = spec.resolution, spec.log_width
        if p == 1:
            # single weight 1: the mean is the identity, the constraint pins theta = 1
            return MeanResult(PositiveVector._from_data(X[0]), "grid", 0.0)
        if (m + 1) ** (p - 1) > _GRID_POINT_LIMIT:
            raise ValueError(
                f"log grid too large: {(m + 1) ** (p - 1)} points for {p} weights"
            )
        best, bound = np.empty(0), 0.0
        if Xp.size:
            coeffs, edge = _log_coefficients(m, weights.floats, Y, Xp.shape[1] == 1)
            with np.errstate(over="ignore"):  # a point's value beyond the float range is inf
                vals = _grid_values(coeffs, Xp)
            argmin = vals.argmin(axis=1)
            best = vals[np.arange(argmin.size), argmin]
            top = float(np.maximum.reduce(best))
            if top == math.inf:
                raise ValueError(f"the grid value at resolution {m} is beyond the float range")
            # gap bound: a half-spacing move of the free coordinates rescales the
            # objective by at most exp(c*h/2) with c = max(1, (1-t_dep)/t_dep),
            # unless the minimizer sits on the box boundary
            h = 2.0 * Y / m
            t_dep = max(weights.floats)
            c = max(1.0, (1.0 - t_dep) / t_dep)
            factor = 1.0 - math.exp(-c * h / 2.0)
            bound = math.inf if np.logical_or.reduce(edge[argmin]) else top * factor
        return MeanResult(PositiveVector._from_data(_scattered(best, positive)),
                          "grid", bound)

    raise ValueError(f"unknown method {method!r}")
