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
twice: on single tuples of lattice vectors (the check_* functions), and on
array blocks of trials, (T, k, n) stacks with polynomials held as a
`TermStack`, for the sweeps and the random phase of the searches. The block
kernels repeat the arithmetic of the claim's check_* function in the same
order (sequential products over slots, then sequential accumulation over
keys), so every row's values are bit-identical to checking that trial alone.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import sampling
from .lattice import DimensionMismatchError, LatticeVector, PositiveVector, inf, is_disjoint
from .means import (
    geometric_mean,
    geometric_mean_stack,
    harmonic_mean,
    harmonic_mean_stack,
    root_mean_power,
    root_mean_power_stack,
    weighted_geometric_mean,
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
    residual,
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


def _vector_payload(fs: Sequence[LatticeVector]) -> list:
    return [list(f.entries) for f in fs]


# -- preconditions, and the two sides of the identities --------------------------
#
# A precondition takes (degree, count, cp): the polynomial's degree (None for
# a claim without one), the number of vectors and the partition. Sides take
# (P, fs, cp) for one tuple fs of vectors, or (P, X, cp) for stacked tuples X
# (T, k, n) with P a `TermStack`, and return the two values the identity
# equates.


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


def _rmp_sides(P, fs, cp):
    return P(root_mean_power(P.degree, fs)), sum(P(f) for f in fs)


def _rmp_stack_sides(P, X, cp):
    return P(root_mean_power_stack(P.degree, X)), sum(P(X[:, i]) for i in range(X.shape[1]))


def _gm_sides(P, fs, cp):
    return P(geometric_mean(fs)), P.multilinear(*fs)


def _gm_stack_sides(P, X, cp):
    return P(geometric_mean_stack(X)), P.form([X[:, i] for i in range(X.shape[1])])


def _hm_sides(P, fs, cp):
    s = P.degree
    eta = harmonic_mean(fs)
    form = P.multilinear
    lhs = form(*fs) * s
    rhs = None
    for j in range(s):
        term = form(*fs[:j], eta, *fs[j + 1:])
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


def _hm_stack_sides(P, X, cp):
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


def _geos_sides(P, fs, cp):
    lhs = weighted_geometric_mean(weights(cp), fs)
    return lhs.to_array(), geometric_mean([fs[i] for i in _repeats(cp)]).to_array()


def _geos_stack_sides(P, X, cp):
    lhs = weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X)
    return lhs, geometric_mean_stack(X[:, _repeats(cp)])


def _wgm_sides(P, fs, cp):
    lhs = P(weighted_geometric_mean(weights(cp), fs))
    return lhs, P.multilinear(*(fs[i] for i in _repeats(cp)))


def _wgm_stack_sides(P, X, cp):
    lhs = P(weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X))
    return lhs, P.form([X[:, i] for i in _repeats(cp)])


def _pair_sides(P, fs, cp):
    f, g = fs
    return P(f + g), P(f) + P(g)


def _pair_stack_sides(P, X, cp):
    f, g = X[:, 0], X[:, 1]
    return P(f + g), P(f) + P(g)


def _check_identity(claim, P, fs, cp, cfg) -> VerificationReport:
    """One trial of an identity claim: its preconditions, then its two sides
    and their residual against its tolerance."""
    claim.requires(None if P is None else P.degree, len(fs), cp)
    lhs, rhs = claim.sides(P, fs, cp)
    tol = claim.tolerance(cfg)
    res = residual(lhs, rhs, switch=cfg.relative_switch)
    passed = res <= tol
    extra = None if cp is None else {"partition": list(cp.parts)}
    counterexample = None if passed else identity_payload(_vector_payload(fs), lhs, rhs, extra)
    return VerificationReport(
        claim_id=claim.id,
        trials=1,
        max_residual=float(res),
        tolerance=tol,
        passed=passed,
        counterexample=counterexample,
    )


# -- forward checks ------------------------------------------------------------


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
    return _check_identity(CLAIM_TABLE["RMP"], P, fs, None, cfg)


def check_gm(
    P: HomogeneousPolynomial,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P(geometric mean of s vectors) against the multilinear value."""
    return _check_identity(CLAIM_TABLE["GM"], P, fs, None, cfg)


def check_schur_bounds(
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Coordinatewise min <= harmonic mean <= s * min.

    Float inputs: violations are measured in units in the last place of the
    violated bound and allowed ``cfg.ulp_slack``. Exact inputs: comparisons
    are exact rational order relations with zero slack.
    """
    s = len(fs)
    eta = harmonic_mean(fs)
    low = fs[0]
    for f in fs[1:]:
        low = inf(low, f)
    e, lo = eta.to_array(), low.to_array()
    hi = lo * s
    if eta.is_exact:
        viol = Fraction(0)
        for lo_i, e_i, hi_i in zip(lo, e, hi):
            viol = max(viol, lo_i - e_i, e_i - hi_i)
        worst = float(viol)
        tol = cfg.exact_slack
        passed = viol <= tol
    else:
        lower_gap = np.maximum(lo - e, 0.0)
        upper_gap = np.maximum(e - hi, 0.0)
        with np.errstate(invalid="ignore"):
            ulps = np.maximum(
                np.where(lower_gap > 0, lower_gap / np.spacing(lo), 0.0),
                np.where(upper_gap > 0, upper_gap / np.spacing(hi), 0.0),
            )
        worst = float(np.max(ulps))
        tol = float(cfg.ulp_slack)
        passed = worst <= tol
    counterexample = None
    if not passed:
        counterexample = {"inputs": _vector_payload(fs), "harmonic": e, "min": lo}
    return VerificationReport(
        claim_id="SCHUR",
        trials=1,
        max_residual=worst,
        tolerance=tol,
        passed=passed,
        counterexample=counterexample,
    )


def check_eta_disjoint(
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """The harmonic mean is exactly 0 when some two arguments are disjoint."""
    if not any(
        is_disjoint(fs[i], fs[j]) for i in range(len(fs)) for j in range(i + 1, len(fs))
    ):
        raise PreconditionError("no disjoint pair among the arguments")
    eta = harmonic_mean(fs)
    arr = eta.to_array()
    worst = float(max(abs(v) for v in arr))
    passed = worst == 0.0
    counterexample = None
    if not passed:
        counterexample = {"inputs": _vector_payload(fs), "harmonic": arr}
    return VerificationReport(
        claim_id="ORTHO",
        trials=1,
        max_residual=worst,
        tolerance=0.0,
        passed=passed,
        counterexample=counterexample,
    )


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
    return _check_identity(CLAIM_TABLE["HM"], P, fs, None, cfg)


def check_geos_lemma(
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Weighted geometric mean with weights r_k/s against the plain geometric
    mean with each argument repeated r_k times."""
    return _check_identity(CLAIM_TABLE["GEOS"], None, fs, cp, cfg)


def check_wgm_identity(
    P: HomogeneousPolynomial,
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P of the completely partitioned weighted geometric mean against the
    multilinear value with argument k repeated r_k times."""
    return _check_identity(CLAIM_TABLE["WGM"], P, fs, cp, cfg)


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
    tolerance and validates the multilinear evaluation itself.
    """
    if not is_disjoint(f, g):
        raise PreconditionError("cross-term check needs a disjoint pair")
    s = P.degree
    form = P.multilinear
    mixed_worst = 0.0
    mixed_witness = None
    recon = None
    for k in range(0, s + 1):
        slots = [f] * k + [g] * (s - k)
        val = form(*slots)
        term = val * math.comb(s, k)
        recon = term if recon is None else recon + term
        if 1 <= k <= s - 1:
            mag = float(np.max(np.abs(val)))
            if math.isnan(mag):
                mag = math.inf
            if mag > mixed_worst:
                mixed_worst = mag
                if mag > cfg.mixed_abs:
                    mixed_witness = {"copies_of_f": k, "value": val}
    total = P(f + g)
    recon_res = float(residual(total, recon, switch=cfg.relative_switch))
    passed = mixed_worst <= cfg.mixed_abs and recon_res <= cfg.identity_rel
    counterexample = None
    if not passed:
        counterexample = cross_payload(
            _vector_payload([f, g]), mixed_worst, recon_res, mixed_witness, total, recon
        )
    return VerificationReport(
        claim_id="CROSS_TERMS",
        trials=1,
        max_residual=mixed_worst,
        tolerance=cfg.mixed_abs,
        passed=passed,
        counterexample=counterexample,
    )


# -- the claims on array blocks of trials ---------------------------------------
#
# A kernel takes (claim, X, P, cp, cfg): the claim's record, the tuples X
# (T, k, n) of one group of a block's rows, their polynomials (a `TermStack`,
# None for a claim without one), the group's partition and the tolerances.
# It returns (residuals, passed, payload): per-row residuals and pass flags,
# and payload(t), row t's counterexample in the check_* format. Inputs are
# assumed to meet the claim's preconditions; verify_claim checks them before
# drawing.


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
    lhs, rhs = claim.stack_sides(P, X, cp)
    # float, as the check_* reports hold it, also for exact coefficients
    res = row_residuals(lhs, rhs, switch=cfg.relative_switch).astype(float, copy=False)
    extra = None if cp is None else {"partition": list(cp.parts)}
    return res, res <= claim.tolerance(cfg), lambda i: identity_payload(
        X[i].tolist(), lhs[i], rhs[i], extra)


def _schur_rows(claim, X, P, cp, cfg):
    e = harmonic_mean_stack(X)
    lo = X[:, 0]
    for i in range(1, X.shape[1]):
        lo = np.minimum(lo, X[:, i])
    hi = lo * X.shape[1]
    lower_gap = np.maximum(lo - e, 0.0)
    upper_gap = np.maximum(e - hi, 0.0)
    with np.errstate(invalid="ignore"):
        ulps = np.maximum(
            np.where(lower_gap > 0, lower_gap / np.spacing(lo), 0.0),
            np.where(upper_gap > 0, upper_gap / np.spacing(hi), 0.0),
        )
    worst = np.max(ulps, axis=1)
    return worst, worst <= claim.tolerance(cfg), lambda i: {
        "inputs": X[i].tolist(), "harmonic": e[i], "min": lo[i],
    }


def _ortho_rows(claim, X, P, cp, cfg):
    e = harmonic_mean_stack(X)
    worst = np.max(np.abs(e), axis=1)
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
    recon_res = row_residuals(total, recon, switch=cfg.relative_switch)
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
    kernel, requires, sides, stack_sides
                     see above; the sides of CROSS_TERMS are the ones that
                     `falsify` compares, P(f + g) and P(f) + P(g)
    draw             draw(s, pool, partition): `sampling.draw_trials` keywords
                     of a sweep's trial at degree s (pool: partitions of s)
    tolerance        the report's tolerance, read from a `ToleranceConfig`
    takes_poly       a trial evaluates a polynomial (``--poly``)
    takes_partition  a trial uses a complete partition (``--partition``)
    size             size(degree, cp): vectors in one input of `falsify`
                     (None: the claim is not searched)
    pairs            inputs are disjoint positive pairs, not tuples
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
    stack_sides: Callable | None = None
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
          stack_sides=_rmp_stack_sides, size=lambda s, cp: max(2, s)),
    Claim("GM", "gm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_gm_requires, sides=_gm_sides,
          stack_sides=_gm_stack_sides, size=lambda s, cp: s),
    Claim("SCHUR", "schur", _schur_rows,
          lambda s, pool, cp: {"pick": (1, s + 1), "counts": range(s + 1)},
          tolerance=lambda cfg: float(cfg.ulp_slack)),
    Claim("ORTHO", "ortho", _ortho_rows,
          lambda s, pool, cp: {"pick": (2, max(3, s + 1)), "counts": range(max(3, s + 1)),
                               "pair": "slots"},
          tolerance=lambda cfg: 0.0),
    Claim("HM", "hm", _identity_rows, lambda s, pool, cp: {"counts": s},
          takes_poly=True, requires=_hm_requires, sides=_hm_sides,
          stack_sides=_hm_stack_sides, size=lambda s, cp: s),
    Claim("GEOS", "geos", _identity_rows, _partition_draw, tolerance=lambda cfg: cfg.geos_rel,
          takes_partition=True, requires=_partition_requires, sides=_geos_sides,
          stack_sides=_geos_stack_sides),
    Claim("WGM", "wgm", _identity_rows, _partition_draw, takes_poly=True,
          takes_partition=True, requires=_partition_requires, sides=_wgm_sides,
          stack_sides=_wgm_stack_sides, size=lambda s, cp: len(cp.parts)),
    Claim("CROSS_TERMS", "cross", _cross_rows, lambda s, pool, cp: {"pair": "only"},
          tolerance=lambda cfg: cfg.mixed_abs, takes_poly=True, sides=_pair_sides,
          stack_sides=_pair_stack_sides, size=lambda s, cp: 2, pairs=True),
)
CLAIM_TABLE = {claim.id: claim for claim in CLAIMS}
CLAIM_IDS = tuple(CLAIM_TABLE)
FALSIFIABLE_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.falsifiable)
POLY_CLAIMS = tuple(claim.id for claim in CLAIMS if claim.takes_poly)


# -- falsification of the converse directions -----------------------------------


def _structured_inputs(claim, P, cp, i, j, a, b):
    """Disjoint two-coordinate families used by the converse arguments."""
    n = P.domain_dim
    f = PositiveVector([a if k == i else 0.0 for k in range(n)])
    g = PositiveVector([b if k == j else 0.0 for k in range(n)])
    count = claim.size(P.degree, cp)
    for split in range(1, count):
        yield [f] * split + [g] * (count - split)


_FIRST_RANDOM_BLOCK = 16
"""Size of the random phase's first block; later blocks double up to
`BLOCK_TRIALS`, so a witness found early pays for few rows."""


def _random_rows(claim, P, cp, rng, size):
    """One block of ``size`` random inputs (T, k, n), drawn with the generator
    calls of the per-trial sampling helpers, and both sides for each."""
    spec = {"pair": "only"} if claim.pairs else {"counts": claim.size(P.degree, cp)}
    X = sampling.draw_trials(rng, size, P.domain_dim, **spec).vectors
    return (X, *claim.stack_sides(TermStack.of(P), X, cp))


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

    The random inputs are drawn and evaluated in blocks, 16 inputs first and
    twice as many each time after, up to `BLOCK_TRIALS`; a block draws its
    inputs one after another with the generator calls of the per-input
    sampling helpers, and the first row over ``falsify_threshold`` is the
    witness. Reports are those of trying one input at a time, for float and
    exact-rational coefficients alike.
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

    rng = np.random.default_rng(seed)
    used = 0
    best = 0.0
    witness = None
    threshold = cfg.falsify_threshold

    for i, j in itertools.permutations(range(P.domain_dim), 2):
        if used >= budget or witness is not None:
            break
        a, b = sampling.log_uniform(rng, 2, low=1.0, high=10.0)
        for fs in _structured_inputs(claim, P, cp, i, j, float(a), float(b)):
            used += 1
            lhs, rhs = claim.sides(P, fs, cp)
            res = float(residual(lhs, rhs, switch=cfg.relative_switch))
            best = max(best, res)
            if res > threshold:
                witness = {"inputs": _vector_payload(fs), "lhs": lhs, "rhs": rhs,
                           "residual": res, "source": "structured"}
            if used >= budget or witness is not None:
                break

    size = _FIRST_RANDOM_BLOCK
    while used < budget and witness is None:
        size = min(size, BLOCK_TRIALS, budget - used)
        X, lhs, rhs = _random_rows(claim, P, cp, rng, size)
        res = row_residuals(lhs, rhs, switch=cfg.relative_switch)
        hits = np.flatnonzero(res > threshold)
        stop = hits[0] + 1 if hits.size else size
        used += int(stop)
        best = max(best, float(res[:stop].max()))
        if hits.size:
            t = hits[0]
            witness = {"inputs": X[t].tolist(), "lhs": lhs[t], "rhs": rhs[t],
                       "residual": float(res[t]), "source": "random"}
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
    sampling helpers, then evaluates both sides of the claim for every trial
    at once on (T, k, n) stacks, in the arithmetic order of the claim's
    check_* function. Reports are the same, bit for bit, as checking each
    trial with its check_* function; an exact-rational ``poly`` runs on the
    same kernels, held as a `TermStack` of Fractions. A claim without a
    polynomial ignores ``poly``.
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
    return [
        verify_claim(claim.id, s=s, n=n, d=d, trials=trials, seed=seed + offset, cfg=cfg)
        for offset, claim in enumerate(CLAIMS)
    ]
