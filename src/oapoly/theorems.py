"""Executable checks for the mean/polynomial identities, plus falsification.

Forward directions are identity checks: compute both sides on concrete
inputs, reduce to one residual, compare against a pinned tolerance. Converse
directions are falsification searches: for a polynomial that fails positive
orthogonal additivity, hunt for an input that breaks the identity. A search
that exhausts its budget reports *inconclusive*, never a pass, because the
identities are universally quantified and sampling cannot certify them.

Claim identifiers:

    RMP          additivity of P over root mean powers of positive tuples
    GM           P of the geometric mean equals the multilinear value
    SCHUR        min <= harmonic mean <= s * min, coordinatewise
    ORTHO        harmonic mean vanishes when two arguments are disjoint
    HM           s-fold harmonic-mean substitution identity for the form
    GEOS         weighted geometric mean as a repeated-argument geometric mean
    WGM          P of a completely partitioned weighted geometric mean equals
                 the multilinear value with repeated arguments
    CROSS_TERMS  mixed multilinear values vanish on disjoint positive pairs,
                 and the binomial expansion reassembles P(f+g)

Each claim is one `Claim` record of the table `CLAIMS`, which the checks,
the sweeps, the searches and the CLI look up. A claim's mathematics is here
once, on array blocks of trials: (T, k, n) stacks of tuples, with
polynomials held as a `TermStack`. The sweeps run a claim's block kernel
once on each block of drawn trials, whose rows may hold tuples of different
sizes and partitions of their own (see `Rows`); a check_* function validates
its one input and runs the same kernel on a block of one row; both phases
of a search evaluate the claim's sides on blocks of inputs.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import sampling
from .lattice import DimensionMismatchError, PositiveVector, _check_vectors, is_disjoint
from .means import (
    _stack,
    geometric_mean_stack,
    harmonic_mean,  # noqa: F401 - perfbench's tracer test finds it rebound here
    harmonic_mean_stack,
    root_mean_power_stack,
    weighted_geometric_mean_stack,
)
from .partitions import CompletePartition, partition_table, weights
from .polynomials import (
    BLOCK_TRIALS,
    STACK_BYTES,
    HomogeneousPolynomial,
    TermStack,
    _additivity_sides,
    _check_int,
    _check_seed,
    _row_bytes,
    _schedule,
    is_positively_orthogonally_additive,
    ordered_sum,
)
from .reports import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    VerificationReport,
    cross_payload,
    identity_payload,
    row_residuals,
)

__all__ = [
    "PreconditionError",
    "check_rmp",
    "check_gm",
    "check_schur_bounds",
    "check_eta_disjoint",
    "check_hm_identity",
    "check_geos_lemma",
    "check_wgm_identity",
    "check_cross_terms",
    "falsify",
    "verify_claim",
    "verify_all",
    "Claim",
    "CLAIMS",
    "CLAIM_IDS",
    "FALSIFIABLE_CLAIMS",
]


class PreconditionError(ValueError):
    """An input violates a check's stated precondition."""


# -- preconditions, and the two sides of the identities --------------------------
#
# A precondition takes (degree, count, cp): the polynomial's degree (None for
# a claim without one), the number of vectors and the partition. Sides take
# (P, X, rows), stacked tuples X (T, k, n) with their polynomials P as a
# `TermStack` and the `Rows` that say how the rows use their slots (None:
# every slot, no partition), and return the two values the identity equates
# for each row.


class Rows(NamedTuple):
    """How the rows of a block use their k slots, and the partition each
    row takes.

    counts   (T,) each row's number of arguments, its first slots; None
             when every row uses every slot. A row's unused slots enter
             none of its arithmetic, so its values have the bytes of its own
             tuple.
    weights  the weighted geometric mean's float weights, (k,) for every
             row or (T, k) per row, 0 at a row's unused slots
    repeats  the repeated-argument form's slot j holds argument repeats[j],
             (s,) for every row or (T, s) per row
    parts    parts(t), row t's partition, which its counterexample names
    """

    counts: np.ndarray | None = None
    weights: np.ndarray | None = None
    repeats: np.ndarray | None = None
    parts: Callable | None = None


def _partition_rows(cp: CompletePartition) -> Rows:
    """The rows of a block that all take the partition cp."""
    return Rows(None, np.array(weights(cp).floats),
                np.repeat(np.arange(len(cp.parts)), cp.parts), lambda t: cp.parts)


def _drawn_rows(draws: sampling.TrialDraws, table) -> Rows | None:
    """The rows of a block of drawn trials: each draw's tuple size, or its
    partition, index ``draws.picks`` into ``table``, a `PartitionTable`."""
    picks = draws.picks
    if picks is None:
        return None
    if table is None:
        return Rows(draws.counts)
    return Rows(draws.counts, table.weights[picks], table.repeats[picks],
                lambda t: table.parts[picks[t]])


def _counts(rows: Rows | None) -> np.ndarray | None:
    return None if rows is None else rows.counts


def _rmp_requires(degree, count, cp) -> None:
    if count < 2:
        raise PreconditionError("the root-mean-power identity needs at least two vectors")


def _gm_requires(degree, count, cp) -> None:
    if count != degree:
        raise PreconditionError(f"the geometric-mean identity needs exactly {degree} vectors")


def _hm_requires(degree, count, cp) -> None:
    if degree < 2:
        raise PreconditionError("the harmonic-mean identity needs degree >= 2")
    if count != degree:
        raise PreconditionError(f"the identity needs exactly {degree} vectors")


def _partition_requires(degree, count, cp) -> None:
    if degree is not None and cp.target != degree:
        raise PreconditionError(
            f"partition target {cp.target} does not match polynomial degree {degree}"
        )
    if count != len(cp.parts):
        raise PreconditionError(f"partition has {len(cp.parts)} parts, got {count} vectors")


def _rmp_sides(P, X, rows):
    # one evaluation of P at the root mean power and at each slot, the
    # values at a row's slots summed in slot order (`ordered_sum`), quietly:
    # values beyond the float range make a non-finite side, which the
    # residual reports. A row's unused slots add +0, which changes no sum
    counts = _counts(rows)
    values = P.values([root_mean_power_stack(P.degree, X, counts)]
                      + [X[:, i] for i in range(X.shape[1])])
    if counts is not None:
        values[1:][np.arange(X.shape[1])[:, None] >= counts] = 0
    with np.errstate(over="ignore", invalid="ignore"):
        return values[0], ordered_sum(values[1:])


def _gm_sides(P, X, rows):
    return P(geometric_mean_stack(X)), P.form([X[:, i] for i in range(X.shape[1])])


def _hm_sides(P, X, rows):
    # one evaluation of the form at the tuple and at its s substitutions;
    # the substitutions' values summed in slot order (`ordered_sum`)
    s = X.shape[1]
    slots = [X[:, i] for i in range(s)]
    eta = harmonic_mean_stack(X)
    values = P.forms([slots] + [slots[:j] + [eta] + slots[j + 1:] for j in range(s)])
    return values[0] * s, ordered_sum(values[1:])


def _repeated(X, repeats):
    """The arguments of the repeated-argument form, (T, s, n): slot j of row
    t holds argument repeats[j], or repeats[t, j] for per-row repeats."""
    if repeats.ndim == 1:
        return X[:, repeats]
    return X[np.arange(len(X))[:, None], repeats]


def _geos_sides(P, X, rows):
    lhs = weighted_geometric_mean_stack(rows.weights, X)
    return lhs, geometric_mean_stack(_repeated(X, rows.repeats))


def _wgm_sides(P, X, rows):
    slots = _repeated(X, rows.repeats)
    return (P(weighted_geometric_mean_stack(rows.weights, X)),
            P.form([slots[:, j] for j in range(slots.shape[1])]))


# -- forward checks ------------------------------------------------------------


def _typed(value, kind: type, name: str) -> None:
    """TypeError naming the argument ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _check(claim, P, fs, cp, cfg) -> VerificationReport:
    """One input of a claim: its polynomial and partition arguments, its
    preconditions, then its vectors validated (on P's domain) and stacked as
    the means take them, checked by `_check_row`."""
    if claim.takes_poly:
        _typed(P, HomogeneousPolynomial, "P")
    if claim.takes_partition:
        _typed(cp, CompletePartition, "cp")
    claim.requires(None if P is None else P.degree, len(fs), cp)
    X = _stack(fs, allow_exact=claim.exact, dim=None if P is None else P.domain_dim)
    return _check_row(claim, P, X, None if cp is None else _partition_rows(cp), cfg)


def _check_row(claim, P, X, rows, cfg) -> VerificationReport:
    """The report of one validated input X (k, n), run through the claim's
    kernel as a block of one row."""
    stack = None if P is None else TermStack.of(P)
    res, ok, payload = claim.kernel(claim, X[None], stack, rows, cfg)
    return VerificationReport(
        claim_id=claim.id,
        trials=1,
        max_residual=float(res[0]),
        tolerance=_tolerance(claim, X, stack, cfg),
        passed=bool(ok[0]),
        counterexample=None if ok[0] else payload(0),
    )


def check_rmp(
    P: HomogeneousPolynomial,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P(root mean power of the tuple) against sum_k P(f_k), r >= 2 vectors.

    Holds for every positively orthogonally additive P; callers are expected
    to supply one (a failure on a non-additive P is informative, not an
    error).
    """
    return _check(CLAIM_TABLE["RMP"], P, fs, None, cfg)


def check_gm(
    P: HomogeneousPolynomial,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P(geometric mean of s vectors) against the multilinear value."""
    return _check(CLAIM_TABLE["GM"], P, fs, None, cfg)


def check_schur_bounds(
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Coordinatewise min <= harmonic mean <= s * min.

    Float inputs: violations are measured in units in the last place of the
    violated bound and allowed ``cfg.ulp_slack``. Exact inputs: comparisons
    are exact rational order relations with zero slack.
    """
    return _check(CLAIM_TABLE["SCHUR"], None, fs, None, cfg)


def check_eta_disjoint(
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """The harmonic mean is exactly 0 when some two arguments are disjoint."""
    if not any(
        is_disjoint(fs[i], fs[j]) for i in range(len(fs)) for j in range(i + 1, len(fs))
    ):
        raise PreconditionError("no disjoint pair among the arguments")
    return _check(CLAIM_TABLE["ORTHO"], None, fs, None, cfg)


def check_hm_identity(
    P: HomogeneousPolynomial,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """s-fold substitution identity for the symmetric form, degree s >= 2:

        s * form(f_1..f_s) = sum_j form(f_1, .., harmonic mean, .., f_s)

    with the harmonic mean of the whole tuple replacing slot j. Characterizes
    orthogonal additivity of P over positive tuples.
    """
    return _check(CLAIM_TABLE["HM"], P, fs, None, cfg)


def check_geos_lemma(
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Weighted geometric mean with weights r_k/s against the plain geometric
    mean with each argument repeated r_k times."""
    return _check(CLAIM_TABLE["GEOS"], None, fs, cp, cfg)


def check_wgm_identity(
    P: HomogeneousPolynomial,
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P of the completely partitioned weighted geometric mean against the
    multilinear value with argument k repeated r_k times."""
    return _check(CLAIM_TABLE["WGM"], P, fs, cp, cfg)


def check_cross_terms(
    P: HomogeneousPolynomial,
    f: PositiveVector,
    g: PositiveVector,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """On a disjoint positive pair: every mixed multilinear value
    form(f repeated k, g repeated s-k), 1 <= k <= s-1, vanishes, and the
    binomial expansion sum_k C(s,k) * form(...) reassembles P(f+g).

    The mixed-value bound is absolute (the values should be exactly zero for
    an additive P); the reconstruction is checked with the identity
    tolerance and validates the multilinear evaluation itself. The pair
    takes no mean: it must be two vectors on P's domain, disjoint, of any
    sign.
    """
    _typed(P, HomogeneousPolynomial, "P")
    if not is_disjoint(f, g):
        raise PreconditionError("cross-term check needs a disjoint pair")
    _check_vectors((f, g), P.domain_dim)
    return _check_row(CLAIM_TABLE["CROSS_TERMS"], P, np.stack([f._data, g._data]), None, cfg)


# -- the claims on array blocks of trials ---------------------------------------
#
# A kernel takes (claim, X, P, rows, cfg): the claim's record, the tuples X
# (T, k, n) of a whole block, float or exact, their polynomials (a
# `TermStack`, None for a claim without one), the `Rows` that give each
# row's tuple size and partition (None: every slot, no partition) and the
# tolerances. It returns (residuals, passed, payload): per-row residuals
# as the floats that reports hold, the pass flags that compare them, and
# payload(t), row t's counterexample, which names the row's own inputs and
# partition. Inputs are assumed to meet the claim's preconditions;
# verify_claim and the check_* functions check them first. Exact sides
# compare exactly: see `_tolerance`.


def _exact(X, P) -> bool:
    """The sides are exact: exact vectors, and P exact or absent."""
    return X.dtype == object and (P is None or P.coeffs.dtype == object)


def _tolerance(claim, X, P, cfg) -> float:
    """The tolerance of rows X with polynomials P: ``exact_slack`` for exact
    sides, whose residuals are compared with it before any float
    conversion, else the claim's float tolerance."""
    return cfg.exact_slack if _exact(X, P) else claim.tolerance(cfg)


def _inputs(X, rows, t):
    """Row t's own inputs, as lists."""
    counts = _counts(rows)
    return (X[t] if counts is None else X[t, :counts[t]]).tolist()


def _identity_rows(claim, X, P, rows, cfg):
    """RMP, GM, HM, GEOS and WGM: the residuals of the claim's two sides."""
    lhs, rhs = claim.sides(P, X, rows)
    res = row_residuals(lhs, rhs, switch=cfg.relative_switch)
    named = rows is not None and rows.parts is not None
    return res.astype(float, copy=False), res <= _tolerance(claim, X, P, cfg), lambda i: (
        identity_payload(_inputs(X, rows, i), lhs[i], rhs[i],
                         {"partition": list(rows.parts(i))} if named else None))


def _schur_rows(claim, X, P, rows, cfg):
    """The violations of min <= harmonic mean <= s * min: for floats in
    units in the last place of the violated bound, for exact inputs as
    exact differences. A row of k arguments takes s = k."""
    counts = _counts(rows)
    e = harmonic_mean_stack(X, counts)
    k, args = X.shape[1], X
    if counts is not None:  # a float block: an unused slot is never the min
        k = counts[:, None]
        args = np.where(np.arange(X.shape[1])[:, None] < k[:, None], X, np.inf)
    lo = args[:, 0]
    for i in range(1, X.shape[1]):
        lo = np.minimum(lo, args[:, i])
    hi = lo * k
    if X.dtype == object:
        worst = np.maximum(np.max(np.maximum(lo - e, e - hi), axis=1), 0)
    else:
        lower_gap = np.maximum(lo - e, 0.0)
        upper_gap = np.maximum(e - hi, 0.0)
        with np.errstate(invalid="ignore"):
            ulps = np.maximum(
                np.where(lower_gap > 0, lower_gap / np.spacing(lo), 0.0),
                np.where(upper_gap > 0, upper_gap / np.spacing(hi), 0.0),
            )
        worst = np.max(ulps, axis=1)
    return worst.astype(float, copy=False), worst <= _tolerance(claim, X, P, cfg), lambda i: {
        "inputs": _inputs(X, rows, i), "harmonic": e[i], "min": lo[i],
    }


def _ortho_rows(claim, X, P, rows, cfg):
    e = harmonic_mean_stack(X, _counts(rows))
    worst = np.max(np.abs(e), axis=1)
    return worst.astype(float, copy=False), worst <= _tolerance(claim, X, P, cfg), lambda i: {
        "inputs": _inputs(X, rows, i), "harmonic": e[i]}


def _cross_rows(claim, X, P, rows, cfg):
    f, g = X[:, 0], X[:, 1]
    s = P.degree
    exact = _exact(X, P)
    mixed_tol, recon_tol = (cfg.exact_slack,) * 2 if exact else (cfg.mixed_abs, cfg.identity_rel)
    values = P.forms([[f] * k + [g] * (s - k) for k in range(s + 1)])
    recon = ordered_sum(np.stack([val * math.comb(s, k) for k, val in enumerate(values)]))
    # the mixed forms' magnitudes (s - 1, T), a NaN form's as inf; the
    # witness is the first k of the largest, when that exceeds the tolerance
    mags = np.max(np.abs(values[1:s]), axis=2)
    if not exact:
        mags = mags.astype(float, copy=False)
        mags[np.isnan(mags)] = np.inf
    mixed_worst = np.max(mags, axis=0, initial=0.0)  # 0 for s = 1, which has none
    witness = np.where(mixed_worst > mixed_tol, np.argmax(mags, axis=0) + 1 if s > 1 else 0, -1)
    total = P(f + g)
    recon_res = row_residuals(total, recon, switch=cfg.relative_switch)
    passed = (mixed_worst <= mixed_tol) & (recon_res <= recon_tol)

    def payload(i):
        k = int(witness[i])
        mixed_witness = {"copies_of_f": k, "value": values[k][i]} if k >= 0 else None
        return cross_payload([f[i].tolist(), g[i].tolist()], float(mixed_worst[i]),
                              float(recon_res[i]), mixed_witness, total[i], recon[i])

    return mixed_worst.astype(float, copy=False), passed, payload


# -- the claim table -------------------------------------------------------------


class Claim(NamedTuple):
    """One claim: all that the checks, sweeps, searches and the CLI need of it.

    id, flag         report identifier and ``oapoly verify`` flag
    kernel, requires, sides
                     see above; the sides of CROSS_TERMS are the ones that
                     `falsify` compares, P(f + g) and P(f) + P(g). A sweep
                     runs the kernel once a block, on all its rows, whatever
                     tuple size or partition each drew
    draw             draw(s, table, partition): `sampling.draw_trials` keywords
                     of a sweep's trial at degree s (table: the
                     `PartitionTable` of s)
    tolerance        tolerance(cfg): the report's tolerance, read from a
                     `ToleranceConfig`, for float sides (exact sides compare
                     with ``exact_slack``, see `_tolerance`)
    takes_poly       a trial evaluates a polynomial (``--poly``)
    takes_partition  a trial uses a complete partition (``--partition``)
    exact            the check takes exact-rational vectors; the others take
                     roots of their inputs, and refuse them
    size             size(degree, cp): vectors in one input of `falsify`
                     (None: the claim is not searched)
    pairs            inputs are disjoint positive pairs, not tuples
    form             the sides that `falsify` compares evaluate the
                     symmetric form, not P alone
    """

    id: str
    flag: str
    kernel: Callable
    draw: Callable
    tolerance: Callable[[ToleranceConfig], float] = lambda cfg: cfg.identity_rel
    takes_poly: bool = False
    takes_partition: bool = False
    requires: Callable = lambda degree, count, cp: None
    sides: Callable | None = None
    exact: bool = False
    size: Callable | None = None
    pairs: bool = False
    form: bool = False

    @property
    def falsifiable(self) -> bool:
        return self.size is not None


def _partition_draw(s, table, partition):
    if partition is None:
        return {"pick": (0, len(table.parts)), "counts": [len(p) for p in table.parts]}
    return {"counts": len(partition.parts)}


CLAIMS = (
    Claim("RMP", "rmp", _identity_rows, lambda s, pool, cp: {"pick": (2, 5), "counts": range(5)},
          takes_poly=True, requires=_rmp_requires, sides=_rmp_sides,
          size=lambda s, cp: max(2, s)),
    Claim("GM", "gm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_gm_requires, sides=_gm_sides, size=lambda s, cp: s,
          form=True),
    Claim("SCHUR", "schur", _schur_rows,
          lambda s, pool, cp: {"pick": (1, s + 1), "counts": range(s + 1)},
          tolerance=lambda cfg: float(cfg.ulp_slack),
          exact=True),
    Claim("ORTHO", "ortho", _ortho_rows,
          lambda s, pool, cp: {"pick": (2, max(3, s + 1)), "counts": range(max(3, s + 1)),
                               "pair": "slots"},
          tolerance=lambda cfg: 0.0, exact=True),
    Claim("HM", "hm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_hm_requires, sides=_hm_sides, exact=True,
          size=lambda s, cp: s, form=True),
    Claim("GEOS", "geos", _identity_rows, _partition_draw,
          tolerance=lambda cfg: cfg.geos_rel, takes_partition=True,
          requires=_partition_requires, sides=_geos_sides),
    Claim("WGM", "wgm", _identity_rows, _partition_draw, takes_poly=True,
          takes_partition=True, requires=_partition_requires, sides=_wgm_sides,
          size=lambda s, cp: len(cp.parts), form=True),
    Claim("CROSS_TERMS", "cross", _cross_rows, lambda s, pool, cp: {"pair": "only"},
          tolerance=lambda cfg: cfg.mixed_abs, takes_poly=True,
          sides=lambda P, X, cp: _additivity_sides(P, X[:, 0], X[:, 1]),
          exact=True, size=lambda s, cp: 2, pairs=True),
)
CLAIM_TABLE = {claim.id: claim for claim in CLAIMS}
CLAIM_IDS = tuple(CLAIM_TABLE)
FALSIFIABLE_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.falsifiable)
POLY_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.takes_poly)


# -- falsification of the converse directions -----------------------------------


def _structured_rows(count, n, amplitudes, lo, hi):
    """Rows lo..hi of the disjoint two-coordinate family of the converse
    arguments, (hi - lo, count, n). Rows p (count - 1) .. (p + 1) (count - 1)
    try the ordered coordinate pair p, (i, j) in the order of
    ``permutations(range(n), 2)``, at splits 1, .., count - 1: with
    (a, b) = amplitudes[p], f = a e_i fills the first ``split`` slots and
    g = b e_j the rest. The rows of the pairs that lo..hi touch are built,
    then cut to lo..hi."""
    c = count - 1
    first, last = lo // c, (hi - 1) // c + 1
    i, j = np.divmod(np.arange(first, last)[:, None, None], n - 1)
    j += j >= i
    f = np.arange(count) < np.arange(1, count)[:, None]
    X = np.zeros(((last - first) * c * count, n))
    X[np.arange(len(X)), np.where(f, i, j).ravel()] = np.where(
        f, amplitudes[first:last, :1, None], amplitudes[first:last, 1:, None]).ravel()
    return X.reshape(-1, count, n)[lo - first * c:hi - first * c]


_FIRST_RANDOM_BLOCK = 16
"""Size of the random phase's first block."""

BLOCK_OVERHEAD_ENTRIES = 1 << 14
"""A search block's fixed cost, in entries of row buffers. Drawing a
block, evaluating its sides and reducing its residuals cost about 60 µs
whatever its size, and each row about 0.4 µs more: on a 2-CPU Xeon
(Python 3.11, numpy 2.4), blocks of 1, 16, 64, 256 and 1024 CROSS_TERMS
rows of a degree-4 polynomial of 7 keys on 6 coordinates, 134 entries a
row, took 60, 72, 89, 156 and 462 µs. The fixed cost is that of about 150
such rows, 20 000 entries; this bound stays below it."""


def _overhead_rows(stack, row_bytes):
    """R, the rows whose work costs about as much as a block's fixed cost:
    `BLOCK_OVERHEAD_ENTRIES` over the entries of a row's buffers,
    ``row_bytes`` / 8. Exact coefficients make rows far dearer: R is 0 for
    them."""
    if stack.coeffs.dtype == object:
        return 0
    return 8 * BLOCK_OVERHEAD_ENTRIES // row_bytes


def _random_rows(claim, P, cp, rng, size):
    """The next ``size`` random inputs (T, k, n) of the random phase's stream,
    one row of ``rng`` per input."""
    spec = {"pair": "only"} if claim.pairs else {"counts": claim.size(P.degree, cp)}
    return sampling.draw_trials(rng, size, P.domain_dim, **spec).vectors


def falsify(
    P: HomogeneousPolynomial,
    claim_id: str,
    budget: int = 10_000,
    seed: int = 0,
    *,
    partition: CompletePartition | None = None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Search for an input violating ``claim_id`` for a non-additive P.

    Precondition: P must fail positive orthogonal additivity on exhaustive
    support bipartitions (exact structural fact for the sparse
    representation; cross-checked by sampling when the dimension is small).
    For n <= 6 the exhaustive check (`is_positively_orthogonally_additive`
    with 2^n trials under ``seed`` and ``cfg``) runs once per polynomial
    and key: its verdict is kept on P's `TermStack` as one entry keyed by
    (``seed``, ``cfg``), so the searches of several claims on one P under
    one seed run it once, and a call with another key runs it again and
    replaces the entry. A kept verdict raises, or lets the search go on,
    exactly as the check would; the public check itself keeps nothing.
    ``budget`` must be a positive int and ``seed`` a nonnegative one
    (TypeError, ValueError), checked before the precondition.

    A structured family of disjoint two-coordinate inputs, taken from the
    converse proofs, is tried first; random positive tuples follow until the
    budget is spent. ``passed`` means a witness was found; exhausting the
    budget yields an inconclusive report, never a pass. ``trials`` and
    ``max_residual`` count the inputs up to and including the witness.

    The search walks one candidate stream of ``budget`` inputs and evaluates
    the claim's sides on each of its blocks (`_schedule`); the first row over
    ``falsify_threshold`` is the witness. Rows 0..S are the structured
    family, S = min(n (n - 1) (k - 1), budget) for inputs of k vectors: the
    ordered coordinate pairs' k - 1 splits in turn (`_structured_rows`), with
    the pairs' amplitudes drawn from ``default_rng(seed)``, two per pair.
    The rest are random inputs, rows of their own stream, the first child
    of ``SeedSequence(seed)``, made when that phase is reached, one row per
    input (see `sampling.draw_trials`): random input k is the same whatever
    the block schedule and whatever the structured phase tried. Each
    phase's blocks start small (one pair; 16 random inputs), so that an
    early witness costs one small block, and grow by cost, not by rows: R
    rows of the table that the claim's sides evaluate (P's keys for RMP and
    CROSS_TERMS, the form's arrangements for the others) cost about as much
    as a block's fixed cost (`_overhead_rows`), so a light polynomial that
    spends its budget does so in a few blocks where doubling rows alone
    would take many small ones. Reports are those of trying one input at a
    time, for float and exact-rational coefficients alike, so they do not
    depend on the schedule.
    """
    if claim_id not in FALSIFIABLE_CLAIMS:
        raise ValueError(f"claim {claim_id!r} is not falsifiable (choose from {FALSIFIABLE_CLAIMS})")
    _check_int(budget, "budget")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    _check_seed(seed)
    _typed(P, HomogeneousPolynomial, "P")
    claim = CLAIM_TABLE[claim_id]
    cp = partition
    if claim.takes_partition:
        cp = CompletePartition((1,) * P.degree, P.degree) if cp is None else cp
        _typed(cp, CompletePartition, "partition")
        _partition_requires(P.degree, len(cp.parts), cp)
    if not P.has_mixed_terms:
        raise PreconditionError(
            "polynomial is positively orthogonally additive; nothing to falsify")
    n, count = P.domain_dim, claim.size(P.degree, cp)
    stack = TermStack.of(P)
    if n <= 6:
        # read once: another thread's search may replace the entry meanwhile
        key, kept = (seed, cfg), stack.additivity_verdict
        if kept is None or kept[0] != key:
            kept = stack.additivity_verdict = key, is_positively_orthogonally_additive(
                P, trials=2**n, seed=seed, exhaustive=True, tolerances=cfg).passed
        if kept[1]:
            raise PreconditionError(
                "polynomial passed the exhaustive additivity check; nothing to falsify")

    structured = min(n * (n - 1) * (count - 1), budget)
    amplitudes = sampling.log_uniform(np.random.default_rng(seed),
                                      (-(-structured // (count - 1)), 2), 1.0, 10.0)
    rng = None
    rows = _partition_rows(cp) if claim.takes_partition else None
    m, d = stack.coeffs.shape[1:]
    table_rows = stack.arrangements if claim.form else m  # of the table the sides evaluate
    extra = _overhead_rows(stack, count * _row_bytes(table_rows, m, d))
    cap = min(BLOCK_TRIALS, STACK_BYTES // (16 * count * n))
    used, best, witness = 0, 0.0, None
    for lo, hi in _schedule(cap, extra, (0, structured, count - 1),
                            (structured, budget, _FIRST_RANDOM_BLOCK)):
        if lo < structured:
            source, X = "structured", _structured_rows(count, n, amplitudes, lo, hi)
        else:
            rng = rng or np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
            source, X = "random", _random_rows(claim, P, cp, rng, hi - lo)
        lhs, rhs = claim.sides(stack, X, rows)
        res = row_residuals(lhs, rhs, switch=cfg.relative_switch).astype(float, copy=False)
        hits = np.flatnonzero(res > cfg.falsify_threshold)
        stop = hits[0] + 1 if hits.size else len(res)
        used = lo + int(stop)
        best = max(best, float(res[:stop].max()))
        if hits.size:
            t = hits[0]
            witness = {"inputs": X[t].tolist(), "lhs": lhs[t], "rhs": rhs[t],
                       "residual": float(res[t]), "source": source}
            break
    return VerificationReport(
        claim_id=claim_id, trials=used, max_residual=best, tolerance=cfg.falsify_threshold,
        passed=witness is not None, counterexample=witness, kind="falsify",
        inconclusive=witness is None,
    )


# -- randomized sweep runners ----------------------------------------------------


def verify_claim(
    claim_id: str,
    *,
    s: int = 3,
    n: int = 4,
    d: int = 1,
    trials: int = 100,
    seed: int = 0,
    partition: CompletePartition | None = None,
    poly: HomogeneousPolynomial | None = None,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
    trial: int | None = None,
) -> VerificationReport:
    """Run ``trials`` randomized instances of one claim and aggregate.

    Inputs are sampled log-uniformly; polynomials default to fresh random
    diagonal ones per trial (the additive family the forward statements
    quantify over). The aggregate keeps the worst residual and the first
    counterexample, which names its trial's index as ``"trial"``. Identical
    seeds give identical reports.

    Trial t's inputs are row t of ``default_rng(seed)``'s stream, one row of
    `sampling.trial_width` uniforms per trial (see `sampling.draw_trials`),
    so they do not depend on how the trials are split into blocks. Trials
    run in array blocks (`_schedule`) that keep to `STACK_BYTES` of
    uniforms (a trial whose row alone takes more raises ValueError naming
    n, and d where it counts): each block draws its rows with one generator
    call, then runs the claim's block kernel once on its (T, k, n) stack,
    the kernel that the claim's check_* function runs on one input. Trials
    that draw their tuple size or partition share the call: each row's
    slots past its own count take no part in its values (see `Rows`).
    Reports are the same as checking each trial with its check_* function;
    an exact-rational ``poly`` runs on the same kernels, held as a
    `TermStack` of Fractions. A claim without a polynomial ignores ``poly``.

    ``trial`` = k, 0 <= k < ``trials``, replays trial k alone: the generator
    is advanced by k rows, and the report is that of the one trial.
    ``trials``, ``trial``, ``s``, ``n`` and ``d`` must be ints and ``seed``
    a nonnegative one (TypeError naming the argument, ValueError).
    """
    trials, s, n, d = (_check_int(trials, "trials"), _check_int(s, "s"), _check_int(n, "n"),
                       _check_int(d, "d"))
    if trial is not None:
        trial = _check_int(trial, "trial")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_seed(seed)
    if trial is not None and not 0 <= trial < trials:
        raise ValueError(f"trial must lie in [0, {trials}), got {trial}")
    if claim_id not in CLAIM_TABLE:
        raise ValueError(f"unknown claim {claim_id!r}")
    claim = CLAIM_TABLE[claim_id]
    if s < 1:
        raise ValueError(f"degree s must be >= 1, got {s}")
    if s < 2 and claim.takes_poly:
        raise ValueError(f"claim {claim_id} needs degree s >= 2")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if claim.takes_partition and partition is not None:  # GEOS's trials take no degree
        _typed(partition, CompletePartition, "partition")
        _partition_requires(s, len(partition.parts), partition)
    table = fixed = cp = None  # cp: the first trial's partition
    if claim.takes_partition:
        table = partition_table(s)
        cp = partition if partition is not None else CompletePartition(table.parts[0], s)
        fixed = None if partition is None else _partition_rows(partition)
    if claim.takes_poly:
        if poly is not None:
            _typed(poly, HomogeneousPolynomial, "poly")
        # what the claim's check_* raises on the first trial
        claim.requires(s if poly is None else poly.degree, claim.size(s, cp), cp)
        if poly is None and d < 1:
            raise ValueError(f"codomain dimension d must be >= 1, got {d}")
        if poly is not None and poly.domain_dim != n:
            raise DimensionMismatchError(
                f"vector dimension {n} does not match domain {poly.domain_dim}"
            )
    else:
        poly = None
    random_poly = claim.takes_poly and poly is None
    shared = None if poly is None else TermStack.of(poly)
    spec = dict(claim.draw(s, table, partition), d=d if random_poly else None)
    width = sampling.trial_width(n, **spec)
    if 8 * width > STACK_BYTES:
        sizes = f"n = {n}, d = {d}" if random_poly else f"n = {n}"
        raise ValueError(f"one trial at {sizes} draws {width} uniforms, {8 * width} bytes, "
                         f"beyond {STACK_BYTES}")
    cap = min(BLOCK_TRIALS, STACK_BYTES // (8 * width))
    rng = np.random.default_rng(seed)
    first, stop = 0, trials
    if trial is not None:
        rng.bit_generator.advance(trial * width)
        first, stop = trial, trial + 1
    worst, passed, counterexample = 0.0, True, None
    for lo, hi in _schedule(cap, 0, (first, stop, cap)):
        draws = sampling.draw_trials(rng, hi - lo, n, **spec)
        P = TermStack.diagonal(draws.coeffs, s) if random_poly else shared
        res, ok, payload = claim.kernel(claim, draws.vectors, P,
                                        fixed or _drawn_rows(draws, table), cfg)
        worst = max(worst, float(res.max()))
        if passed and not ok.all():
            passed = False
            row = int(np.argmin(ok))
            counterexample = {**payload(row), "trial": lo + row}
    return VerificationReport(
        claim_id=claim_id,
        trials=stop - first,
        max_residual=worst,
        tolerance=claim.tolerance(cfg),
        passed=passed,
        counterexample=counterexample,
    )


def verify_all(
    *,
    s: int = 3,
    n: int = 4,
    d: int = 1,
    trials: int = 100,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> list[VerificationReport]:
    """Run every claim with a deterministic per-claim seed derived from ``seed``."""
    _check_seed(seed)
    return [
        verify_claim(claim.id, s=s, n=n, d=d, trials=trials, seed=seed + offset, cfg=cfg)
        for offset, claim in enumerate(CLAIMS)
    ]
