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
polynomials held as a `TermStack`. The sweeps run a claim's block kernel on
blocks of drawn trials; a check_* function validates its one input and runs
the same kernel on a block of one row; both phases of a search evaluate the
claim's sides on blocks of inputs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import sampling
from .lattice import DimensionMismatchError, PositiveVector, is_disjoint
from .means import (
    _stack,
    geometric_mean_stack,
    harmonic_mean,  # noqa: F401 - perfbench's tracer test finds it rebound here
    harmonic_mean_stack,
    root_mean_power_stack,
    weighted_geometric_mean_stack,
)
from .partitions import CompletePartition, enumerate_complete, weights
from .polynomials import (
    BLOCK_TRIALS,
    HomogeneousPolynomial,
    TermStack,
    is_positively_orthogonally_additive,
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
# (P, X, cp), stacked tuples X (T, k, n) with their polynomials P as a
# `TermStack`, and return the two values the identity equates for each row.


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


def _rmp_sides(P, X, cp):
    return P(root_mean_power_stack(P.degree, X)), sum(P(X[:, i]) for i in range(X.shape[1]))


def _gm_sides(P, X, cp):
    return P(geometric_mean_stack(X)), P.form([X[:, i] for i in range(X.shape[1])])


def _hm_sides(P, X, cp):
    s = X.shape[1]
    slots = [X[:, i] for i in range(s)]
    eta = harmonic_mean_stack(X)
    lhs = P.form(slots) * s
    rhs = None
    for j in range(s):
        term = P.form(slots[:j] + [eta] + slots[j + 1:])
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


def _repeats(cp: CompletePartition) -> np.ndarray:
    """Slot k of the repeated-argument form holds argument _repeats(cp)[k]."""
    return np.repeat(np.arange(len(cp.parts)), cp.parts)


def _geos_sides(P, X, cp):
    lhs = weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X)
    return lhs, geometric_mean_stack(X[:, _repeats(cp)])


def _wgm_sides(P, X, cp):
    lhs = P(weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X))
    return lhs, P.form([X[:, i] for i in _repeats(cp)])


def _pair_sides(P, X, cp):
    f, g = X[:, 0], X[:, 1]
    return P(f + g), P(f) + P(g)


# -- forward checks ------------------------------------------------------------


def _check(claim, P, fs, cp, cfg) -> VerificationReport:
    """One input of a claim: its preconditions, then its vectors validated
    and stacked as the means take them, checked by `_check_row`."""
    claim.requires(None if P is None else P.degree, len(fs), cp)
    X, _ = _stack(fs, allow_exact=claim.exact)
    return _check_row(claim, P, X, cp, cfg)


def _check_row(claim, P, X, cp, cfg) -> VerificationReport:
    """The report of one input X (k, n), run through the claim's kernel as a
    block of one row."""
    if P is not None and X.shape[1] != P.domain_dim:
        raise DimensionMismatchError(
            f"vector dimension {X.shape[1]} does not match domain {P.domain_dim}"
        )
    stack = None if P is None else TermStack.of(P)
    res, ok, payload = claim.kernel(claim, X[None], stack, cp, cfg)
    return VerificationReport(
        claim_id=claim.id,
        trials=1,
        max_residual=float(res[0]),
        tolerance=claim.tolerance(cfg, X.dtype == object),
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
    takes no mean, so only the disjointness test validates it.
    """
    if not is_disjoint(f, g):
        raise PreconditionError("cross-term check needs a disjoint pair")
    return _check_row(CLAIM_TABLE["CROSS_TERMS"], P, np.stack([f.to_array(), g.to_array()]),
                      None, cfg)


# -- the claims on array blocks of trials ---------------------------------------
#
# A kernel takes (claim, X, P, cp, cfg): the claim's record, the tuples X
# (T, k, n) of one group of a block's rows, float or exact, their polynomials
# (a `TermStack`, None for a claim without one), the group's partition and
# the tolerances. It returns (residuals, passed, payload): per-row residuals
# as the floats that reports hold, the pass flags that compare them, and
# payload(t), row t's counterexample. Inputs are assumed to meet the claim's
# preconditions; verify_claim and the check_* functions check them first.


def _grouped(draws: sampling.TrialDraws, P, run):
    """Run ``run(X, P, pick)`` on the rows of each pick (the tuple size, or
    the partition), with X their tuples and P their polynomials, and merge
    the (residuals, passed, payload) results back into trial order. A block
    without picks is one group, run on its own arrays."""
    if draws.picks is None:
        return run(draws.vectors, P, None)
    keys = draws.picks
    residuals = np.empty(len(keys))
    passed = np.empty(len(keys), dtype=bool)
    group_of = np.empty(len(keys), dtype=np.intp)
    local_of = np.empty(len(keys), dtype=np.intp)
    payloads = []
    for key in np.flatnonzero(np.bincount(keys)):
        rows = np.flatnonzero(keys == key)
        X = draws.vectors[rows, :draws.counts[rows[0]]]
        res, ok, payload = run(X, None if P is None else P.take(rows), int(key))
        residuals[rows], passed[rows] = res, ok
        group_of[rows], local_of[rows] = len(payloads), np.arange(len(rows))
        payloads.append(payload)
    return residuals, passed, lambda t: payloads[group_of[t]](local_of[t])


def _identity_rows(claim, X, P, cp, cfg):
    """RMP, GM, HM, GEOS and WGM: the residuals of the claim's two sides."""
    lhs, rhs = claim.sides(P, X, cp)
    res = row_residuals(lhs, rhs, switch=cfg.relative_switch).astype(float, copy=False)
    extra = None if cp is None else {"partition": list(cp.parts)}
    return res, res <= claim.tolerance(cfg, X.dtype == object), lambda i: identity_payload(
        X[i].tolist(), lhs[i], rhs[i], extra)


def _schur_rows(claim, X, P, cp, cfg):
    """The violations of min <= harmonic mean <= s * min: for floats in
    units in the last place of the violated bound, for exact inputs as
    exact differences."""
    e = harmonic_mean_stack(X)
    lo = X[:, 0]
    for i in range(1, X.shape[1]):
        lo = np.minimum(lo, X[:, i])
    hi = lo * X.shape[1]
    exact = X.dtype == object
    if exact:
        worst = np.maximum(np.max(np.maximum(lo - e, e - hi), axis=1), 0).astype(float)
    else:
        lower_gap = np.maximum(lo - e, 0.0)
        upper_gap = np.maximum(e - hi, 0.0)
        with np.errstate(invalid="ignore"):
            ulps = np.maximum(
                np.where(lower_gap > 0, lower_gap / np.spacing(lo), 0.0),
                np.where(upper_gap > 0, upper_gap / np.spacing(hi), 0.0),
            )
        worst = np.max(ulps, axis=1)
    return worst, worst <= claim.tolerance(cfg, exact), lambda i: {
        "inputs": X[i].tolist(), "harmonic": e[i], "min": lo[i],
    }


def _ortho_rows(claim, X, P, cp, cfg):
    e = harmonic_mean_stack(X)
    worst = np.max(np.abs(e), axis=1).astype(float, copy=False)
    return worst, worst == 0.0, lambda i: {"inputs": X[i].tolist(), "harmonic": e[i]}


def _cross_rows(claim, X, P, cp, cfg):
    f, g = X[:, 0], X[:, 1]
    s = P.degree
    mixed_worst = np.zeros(len(f))
    witness = np.full(len(f), -1)
    values = []
    recon = None
    for k in range(0, s + 1):
        val = P.form([f] * k + [g] * (s - k))
        values.append(val)
        term = val * math.comb(s, k)
        recon = term if recon is None else recon + term
        if 1 <= k <= s - 1:
            mag = np.max(np.abs(val), axis=1).astype(float, copy=False)
            mag[np.isnan(mag)] = np.inf
            better = mag > mixed_worst
            mixed_worst = np.where(better, mag, mixed_worst)
            witness[better & (mag > cfg.mixed_abs)] = k
    total = P(f + g)
    recon_res = row_residuals(total, recon, switch=cfg.relative_switch).astype(float, copy=False)
    passed = (mixed_worst <= cfg.mixed_abs) & (recon_res <= cfg.identity_rel)

    def payload(i):
        k = int(witness[i])
        mixed_witness = {"copies_of_f": k, "value": values[k][i]} if k >= 0 else None
        return cross_payload([f[i].tolist(), g[i].tolist()], float(mixed_worst[i]),
                              float(recon_res[i]), mixed_witness, total[i], recon[i])

    return mixed_worst, passed, payload


# -- the claim table -------------------------------------------------------------


class Claim(NamedTuple):
    """One claim: all that the checks, sweeps, searches and the CLI need of it.

    id, flag         report identifier and ``oapoly verify`` flag
    kernel, requires, sides
                     see above; the sides of CROSS_TERMS are the ones that
                     `falsify` compares, P(f + g) and P(f) + P(g)
    draw             draw(s, pool, partition): `sampling.draw_trials` keywords
                     of a sweep's trial at degree s (pool: partitions of s)
    tolerance        tolerance(cfg, exact): the report's tolerance, read from
                     a `ToleranceConfig`, for float or exact-rational inputs
    takes_poly       a trial evaluates a polynomial (``--poly``)
    takes_partition  a trial uses a complete partition (``--partition``)
    exact            the check takes exact-rational vectors; the others take
                     roots of their inputs, and refuse them
    size             size(degree, cp): vectors in one input of `falsify`
                     (None: the claim is not searched)
    pairs            inputs are disjoint positive pairs, not tuples
    """

    id: str
    flag: str
    kernel: Callable
    draw: Callable
    tolerance: Callable[[ToleranceConfig, bool], float] = lambda cfg, exact: cfg.identity_rel
    takes_poly: bool = False
    takes_partition: bool = False
    requires: Callable = lambda degree, count, cp: None
    sides: Callable | None = None
    exact: bool = False
    size: Callable | None = None
    pairs: bool = False

    @property
    def falsifiable(self) -> bool:
        return self.size is not None


def _partition_draw(s, pool, partition):
    if partition is None:
        return {"pick": (0, len(pool)), "counts": [len(p) for p in pool]}
    return {"counts": len(partition.parts)}


CLAIMS = (
    Claim("RMP", "rmp", _identity_rows, lambda s, pool, cp: {"pick": (2, 5), "counts": range(5)},
          takes_poly=True, requires=_rmp_requires, sides=_rmp_sides,
          size=lambda s, cp: max(2, s)),
    Claim("GM", "gm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_gm_requires, sides=_gm_sides, size=lambda s, cp: s),
    Claim("SCHUR", "schur", _schur_rows,
          lambda s, pool, cp: {"pick": (1, s + 1), "counts": range(s + 1)},
          tolerance=lambda cfg, exact: cfg.exact_slack if exact else float(cfg.ulp_slack),
          exact=True),
    Claim("ORTHO", "ortho", _ortho_rows,
          lambda s, pool, cp: {"pick": (2, max(3, s + 1)), "counts": range(max(3, s + 1)),
                               "pair": "slots"},
          tolerance=lambda cfg, exact: 0.0, exact=True),
    Claim("HM", "hm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_hm_requires, sides=_hm_sides, exact=True,
          size=lambda s, cp: s),
    Claim("GEOS", "geos", _identity_rows, _partition_draw,
          tolerance=lambda cfg, exact: cfg.geos_rel, takes_partition=True,
          requires=_partition_requires, sides=_geos_sides),
    Claim("WGM", "wgm", _identity_rows, _partition_draw, takes_poly=True,
          takes_partition=True, requires=_partition_requires, sides=_wgm_sides,
          size=lambda s, cp: len(cp.parts)),
    Claim("CROSS_TERMS", "cross", _cross_rows, lambda s, pool, cp: {"pair": "only"},
          tolerance=lambda cfg, exact: cfg.mixed_abs, takes_poly=True, sides=_pair_sides,
          exact=True, size=lambda s, cp: 2, pairs=True),
)
CLAIM_TABLE = {claim.id: claim for claim in CLAIMS}
CLAIM_IDS = tuple(CLAIM_TABLE)
FALSIFIABLE_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.falsifiable)
POLY_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.takes_poly)


# -- falsification of the converse directions -----------------------------------


def _structured_rows(count, n, i, j, a, b, rows):
    """The first ``rows`` inputs of the disjoint two-coordinate family of the
    converse arguments, (rows, count, n): f = a e_i in the first ``split``
    slots and g = b e_j in the rest, for split = 1, 2, ..."""
    first = np.arange(count) < np.arange(1, rows + 1)[:, None]
    X = np.zeros((rows, count, n))
    X[:, :, i] = np.where(first, a, 0.0)
    X[:, :, j] = np.where(first, 0.0, b)
    return X


_FIRST_RANDOM_BLOCK = 16
"""Size of the random phase's first block; later blocks double up to
`BLOCK_TRIALS`, so a witness found early pays for few rows."""


def _random_rows(claim, P, cp, rng, size):
    """One block of ``size`` random inputs (T, k, n), drawn with the generator
    calls of the per-trial sampling helpers."""
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
    A structured family of disjoint two-coordinate inputs, taken from the
    converse proofs, is tried first; random positive tuples follow until the
    budget is spent. ``passed`` means a witness was found; exhausting the
    budget yields an inconclusive report, never a pass. ``trials`` and
    ``max_residual`` count the inputs up to and including the witness.

    Both phases evaluate the claim's sides on blocks of inputs, and the
    first row over ``falsify_threshold`` is the witness. The structured
    family is one block per coordinate pair, its splits in order. The random
    inputs come in blocks of 16 first and twice as many each time after, up
    to `BLOCK_TRIALS`; a block draws its inputs one after another with the
    generator calls of the per-input sampling helpers. Reports are those of
    trying one input at a time, for float and exact-rational coefficients
    alike.
    """
    if claim_id not in FALSIFIABLE_CLAIMS:
        raise ValueError(f"claim {claim_id!r} is not falsifiable (choose from {FALSIFIABLE_CLAIMS})")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not P.has_mixed_terms:
        raise PreconditionError(
            "polynomial is positively orthogonally additive; nothing to falsify"
        )
    if P.domain_dim <= 6:
        structural = is_positively_orthogonally_additive(
            P, trials=2 ** P.domain_dim, seed=seed, exhaustive=True, tolerances=cfg
        )
        if structural.passed:
            raise PreconditionError(
                "polynomial passed the exhaustive additivity check; nothing to falsify"
            )
    claim = CLAIM_TABLE[claim_id]
    cp = partition
    if claim.takes_partition:
        if cp is None:
            cp = CompletePartition((1,) * P.degree, P.degree)
        if cp.target != P.degree:
            raise PreconditionError("partition target must equal the polynomial degree")

    stack = TermStack.of(P)
    rng = np.random.default_rng(seed)
    used = 0
    best = 0.0
    witness = None

    def search(X, source):
        """Try the rows of X in order, up to and including the first witness."""
        nonlocal used, best, witness
        lhs, rhs = claim.sides(stack, X, cp)
        res = row_residuals(lhs, rhs, switch=cfg.relative_switch).astype(float, copy=False)
        hits = np.flatnonzero(res > cfg.falsify_threshold)
        stop = hits[0] + 1 if hits.size else len(res)
        used += int(stop)
        best = max(best, float(res[:stop].max()))
        if hits.size:
            t = hits[0]
            witness = {"inputs": X[t].tolist(), "lhs": lhs[t], "rhs": rhs[t],
                       "residual": float(res[t]), "source": source}

    count = claim.size(P.degree, cp)
    for i, j in itertools.permutations(range(P.domain_dim), 2):
        if used >= budget or witness is not None:
            break
        a, b = sampling.log_uniform(rng, 2, low=1.0, high=10.0)
        search(_structured_rows(count, P.domain_dim, i, j, a, b, min(count - 1, budget - used)),
               "structured")

    size = _FIRST_RANDOM_BLOCK
    while used < budget and witness is None:
        size = min(size, BLOCK_TRIALS, budget - used)
        search(_random_rows(claim, P, cp, rng, size), "random")
        size *= 2

    found = witness is not None
    return VerificationReport(
        claim_id=claim_id,
        trials=used,
        max_residual=best,
        tolerance=cfg.falsify_threshold,
        passed=found,
        counterexample=witness,
        kind="falsify",
        inconclusive=not found,
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
) -> VerificationReport:
    """Run ``trials`` randomized instances of one claim and aggregate.

    Inputs are sampled log-uniformly; polynomials default to fresh random
    diagonal ones per trial (the additive family the forward statements
    quantify over). The aggregate keeps the worst residual and the first
    counterexample. Identical seeds give identical reports.

    Trials run in array blocks of up to `BLOCK_TRIALS`. A block draws its
    trials one after another with the generator calls of the per-trial
    sampling helpers, then runs the claim's block kernel on its (T, k, n)
    stack, the kernel that the claim's check_* function runs on one input.
    Reports are the same as checking each trial with its check_* function;
    an exact-rational ``poly`` runs on the same kernels, held as a
    `TermStack` of Fractions. A claim without a polynomial ignores ``poly``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if claim_id not in CLAIM_TABLE:
        raise ValueError(f"unknown claim {claim_id!r}")
    claim = CLAIM_TABLE[claim_id]
    if s < 2 and claim.takes_poly:
        raise ValueError(f"claim {claim_id} needs degree s >= 2")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    pool = enumerate_complete(s) if claim.takes_partition else None

    def partition_of(pick):
        return (partition or CompletePartition(pool[pick], s)) if claim.takes_partition else None

    if claim.takes_poly:
        # what the claim's check_* raises on the first trial
        cp = partition_of(0)
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

    def group(X, P, pick):
        return claim.kernel(claim, X, P, partition_of(pick), cfg)

    spec = claim.draw(s, pool, partition)
    rng = np.random.default_rng(seed)
    worst, passed, counterexample = 0.0, True, None
    for start in range(0, trials, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, trials - start)
        draws = sampling.draw_trials(rng, size, n, d=d if random_poly else None, **spec)
        P = TermStack.diagonal(draws.coeffs, s) if random_poly else shared
        res, ok, payload = _grouped(draws, P, group)
        worst = max(worst, float(res.max()))
        if passed and not ok.all():
            passed = False
            counterexample = payload(int(np.argmin(ok)))
    return VerificationReport(
        claim_id=claim_id,
        trials=trials,
        max_residual=worst,
        tolerance=claim.tolerance(cfg, False),
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
    return [
        verify_claim(claim.id, s=s, n=n, d=d, trials=trials, seed=seed + offset, cfg=cfg)
        for offset, claim in enumerate(CLAIMS)
    ]
