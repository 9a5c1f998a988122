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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import sampling
from .lattice import DimensionMismatchError, LatticeVector, PositiveVector, inf, is_disjoint
from .means import geometric_mean, harmonic_mean, root_mean_power, weighted_geometric_mean
from .partitions import CompletePartition, enumerate_complete, weights
from .polynomials import (
    BLOCK_TRIALS,
    HomogeneousPolynomial,
    TermStack,
    _additivity_sides,
    is_positively_orthogonally_additive,
)
from .reports import (
    CLAIM_IDS,
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
    "FALSIFIABLE_CLAIMS",
]

FALSIFIABLE_CLAIMS = ("RMP", "GM", "HM", "WGM", "CROSS_TERMS")


class PreconditionError(ValueError):
    """An input violates a check's stated precondition."""


def _vector_payload(fs: Sequence[LatticeVector]) -> list:
    return [list(f.entries) for f in fs]


def _identity_report(claim_id, fs, lhs, rhs, tol, cfg, extra=None) -> VerificationReport:
    res = residual(lhs, rhs, switch=cfg.relative_switch)
    passed = res <= tol
    counterexample = None
    if not passed:
        counterexample = identity_payload(_vector_payload(fs), lhs, rhs, extra)
    return VerificationReport(
        claim_id=claim_id,
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
    if len(fs) < 2:
        raise PreconditionError("the root-mean-power identity needs at least two vectors")
    lhs = P(root_mean_power(P.degree, fs))
    rhs = sum(P(f) for f in fs)
    return _identity_report("RMP", fs, lhs, rhs, cfg.identity_rel, cfg)


def check_gm(
    P: HomogeneousPolynomial,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P(geometric mean of s vectors) against the multilinear value."""
    if len(fs) != P.degree:
        raise PreconditionError(f"the geometric-mean identity needs exactly {P.degree} vectors")
    lhs = P(geometric_mean(fs))
    rhs = P.multilinear(*fs)
    return _identity_report("GM", fs, lhs, rhs, cfg.identity_rel, cfg)


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
    exact = eta.is_exact
    e, lo = eta.to_array(), low.to_array()
    hi = lo * s
    if exact:
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


def _hm_sides(P: HomogeneousPolynomial, fs: Sequence[PositiveVector]):
    s = P.degree
    eta = harmonic_mean(fs)
    form = P.multilinear
    lhs = form(*fs) * s
    rhs = None
    for j in range(s):
        slots = list(fs)
        slots[j] = eta
        term = form(*slots)
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


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
    if P.degree < 2:
        raise PreconditionError("the harmonic-mean identity needs degree >= 2")
    if len(fs) != P.degree:
        raise PreconditionError(f"the identity needs exactly {P.degree} vectors")
    lhs, rhs = _hm_sides(P, fs)
    return _identity_report("HM", fs, lhs, rhs, cfg.identity_rel, cfg)


def check_geos_lemma(
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Weighted geometric mean with weights r_k/s against the plain geometric
    mean with each argument repeated r_k times."""
    if len(fs) != len(cp.parts):
        raise PreconditionError(f"partition has {len(cp.parts)} parts, got {len(fs)} vectors")
    lhs = weighted_geometric_mean(weights(cp), fs)
    repeated = [f for r, f in zip(cp.parts, fs) for _ in range(r)]
    rhs = geometric_mean(repeated)
    return _identity_report(
        "GEOS", fs, lhs.to_array(), rhs.to_array(), cfg.geos_rel, cfg,
        extra={"partition": list(cp.parts)},
    )


def _wgm_sides(P: HomogeneousPolynomial, cp: CompletePartition, fs: Sequence[PositiveVector]):
    lhs = P(weighted_geometric_mean(weights(cp), fs))
    repeated = [f for r, f in zip(cp.parts, fs) for _ in range(r)]
    rhs = P.multilinear(*repeated)
    return lhs, rhs


def check_wgm_identity(
    P: HomogeneousPolynomial,
    cp: CompletePartition,
    fs: Sequence[PositiveVector],
    cfg: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """P of the completely partitioned weighted geometric mean against the
    multilinear value with argument k repeated r_k times."""
    if cp.target != P.degree:
        raise PreconditionError(
            f"partition target {cp.target} does not match polynomial degree {P.degree}"
        )
    if len(fs) != len(cp.parts):
        raise PreconditionError(f"partition has {len(cp.parts)} parts, got {len(fs)} vectors")
    lhs, rhs = _wgm_sides(P, cp, fs)
    return _identity_report(
        "WGM", fs, lhs, rhs, cfg.identity_rel, cfg, extra={"partition": list(cp.parts)}
    )


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


# -- falsification of the converse directions -----------------------------------


def _claim_sides(claim_id, P, fs, cp):
    if claim_id == "RMP":
        return P(root_mean_power(P.degree, fs)), sum(P(f) for f in fs)
    if claim_id == "GM":
        return P(geometric_mean(fs)), P.multilinear(*fs)
    if claim_id == "HM":
        return _hm_sides(P, fs)
    if claim_id == "WGM":
        return _wgm_sides(P, cp, fs)
    f, g = fs
    return P(f + g), P(f) + P(g)


def _tuple_size(claim_id, P, cp) -> int:
    """Number of vectors in one input of ``claim_id``."""
    if claim_id == "WGM":
        return len(cp.parts)
    if claim_id == "RMP":
        return max(2, P.degree)
    return 2 if claim_id == "CROSS_TERMS" else P.degree


def _structured_inputs(claim_id, P, cp, i, j, a, b):
    """Disjoint two-coordinate families used by the converse arguments."""
    n = P.domain_dim
    f = PositiveVector([a if k == i else 0.0 for k in range(n)])
    g = PositiveVector([b if k == j else 0.0 for k in range(n)])
    count = _tuple_size(claim_id, P, cp)
    for split in range(1, count):
        yield [f] * split + [g] * (count - split)


_FIRST_RANDOM_BLOCK = 16
"""Size of the random phase's first block; later blocks double up to
`BLOCK_TRIALS`, so a witness found early pays for few rows."""


def _random_rows(claim_id, P, cp, rng, size):
    """One block of ``size`` random inputs (T, k, n), drawn with the generator
    calls of the per-trial sampling helpers, and both sides for each."""
    # imported here, so that only searches that reach the random phase pay to
    # compile the block kernels
    from . import blocks

    n = P.domain_dim
    if claim_id == "CROSS_TERMS":
        X = blocks.draw_trials(rng, size, n, pair="only").pairs
        return (X, *_additivity_sides(P, X[:, 0], X[:, 1]))
    X = blocks.draw_trials(rng, size, n, counts=_tuple_size(claim_id, P, cp)).vectors
    if not P.is_exact:
        return (X, *blocks.sides(claim_id, TermStack.of(P), X, cp))
    # exact coefficients: each row through the scalar evaluation
    rows = [_claim_sides(claim_id, P, [PositiveVector(v) for v in x], cp) for x in X]
    return X, np.array([lhs for lhs, _ in rows]), np.array([rhs for _, rhs in rows])


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
    witness. Reports are those of trying one input at a time. Exact-rational
    coefficients evaluate each row through the scalar path.
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
    cp = partition
    if claim_id == "WGM":
        if cp is None:
            cp = CompletePartition((1,) * P.degree, P.degree)
        if cp.target != P.degree:
            raise PreconditionError("partition target must equal the polynomial degree")

    rng = np.random.default_rng(seed)
    used = 0
    best = 0.0
    witness = None
    threshold = cfg.falsify_threshold

    n = P.domain_dim
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if used >= budget or witness is not None:
                break
            a, b = sampling.log_uniform(rng, 2, low=1.0, high=10.0)
            for fs in _structured_inputs(claim_id, P, cp, i, j, float(a), float(b)):
                used += 1
                lhs, rhs = _claim_sides(claim_id, P, fs, cp)
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
        X, lhs, rhs = _random_rows(claim_id, P, cp, rng, size)
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

POLY_CLAIMS = ("RMP", "GM", "HM", "WGM", "CROSS_TERMS")


def _tolerance(claim_id: str, cfg: ToleranceConfig) -> float:
    return {
        "SCHUR": float(cfg.ulp_slack),
        "ORTHO": 0.0,
        "GEOS": cfg.geos_rel,
        "CROSS_TERMS": cfg.mixed_abs,
    }.get(claim_id, cfg.identity_rel)


def _check_claim_inputs(claim_id, poly, s, n, d, partition) -> None:
    """Raise what the claim's check_* raises on the first trial."""
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if claim_id not in POLY_CLAIMS:
        return
    degree = s if poly is None else poly.degree
    if claim_id == "HM":
        if degree < 2:
            raise PreconditionError("the harmonic-mean identity needs degree >= 2")
        if s != degree:
            raise PreconditionError(f"the identity needs exactly {degree} vectors")
    elif claim_id == "GM" and s != degree:
        raise PreconditionError(f"the geometric-mean identity needs exactly {degree} vectors")
    elif claim_id == "WGM":
        target = s if partition is None else partition.target
        if target != degree:
            raise PreconditionError(
                f"partition target {target} does not match polynomial degree {degree}"
            )
    if poly is None and d < 1:
        raise ValueError(f"codomain dimension d must be >= 1, got {d}")
    if poly is not None and poly.domain_dim != n:
        raise DimensionMismatchError(
            f"vector dimension {n} does not match domain {poly.domain_dim}"
        )


def _checked_rows(claim_id, draws, P, cfg, partition_of):
    """Each trial through its check_* function: the path for exact polynomials."""
    reports = []
    for t, k in enumerate(draws.counts.tolist()):
        fs = [PositiveVector(v) for v in draws.vectors[t, :k]]
        if claim_id == "RMP":
            rep = check_rmp(P, fs, cfg)
        elif claim_id == "GM":
            rep = check_gm(P, fs, cfg)
        elif claim_id == "HM":
            rep = check_hm_identity(P, fs, cfg)
        elif claim_id == "WGM":
            pick = None if draws.picks is None else draws.picks[t]
            rep = check_wgm_identity(P, partition_of(pick), fs, cfg)
        else:
            f, g = (PositiveVector(v) for v in draws.pairs[t])
            rep = check_cross_terms(P, f, g, cfg)
        reports.append(rep)
    residuals = np.array([r.max_residual for r in reports])
    passed = np.array([r.passed for r in reports])
    return residuals, passed, lambda t: reports[t].counterexample


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
    trial with its check_* function; an exact-rational ``poly`` takes that
    per-trial route.
    """
    # imported here, so that only sweeps pay to compile the block kernels
    # (about 5 ms at every start-up of a command that never sweeps)
    from . import blocks

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if s < 2 and claim_id in POLY_CLAIMS:
        raise ValueError(f"claim {claim_id} needs degree s >= 2")
    if claim_id not in CLAIM_IDS:
        raise ValueError(f"unknown claim {claim_id!r}")
    _check_claim_inputs(claim_id, poly, s, n, d, partition)
    pool = enumerate_complete(s) if claim_id in ("GEOS", "WGM") else None

    def partition_of(key):
        return partition or CompletePartition(pool[key], s)

    if claim_id not in POLY_CLAIMS:
        poly = None
    random_poly = claim_id in POLY_CLAIMS and poly is None
    exact = poly is not None and poly.is_exact
    shared = None if poly is None or exact else TermStack.of(poly)
    rng = np.random.default_rng(seed)
    worst, passed, counterexample = 0.0, True, None
    for start in range(0, trials, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, trials - start)
        draws = blocks.draw(claim_id, rng, size, s, n, d if random_poly else None, pool, partition)
        if exact:
            res, ok, payload = _checked_rows(claim_id, draws, poly, cfg, partition_of)
        else:
            P = TermStack.diagonal(draws.coeffs, s) if random_poly else shared
            res, ok, payload = blocks.rows(claim_id, draws, P, cfg, partition_of)
        worst = max(worst, float(res.max()))
        if passed and not ok.all():
            passed = False
            counterexample = payload(int(np.argmin(ok)))
    return VerificationReport(
        claim_id=claim_id,
        trials=trials,
        max_residual=worst,
        tolerance=_tolerance(claim_id, cfg),
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
    out = []
    for offset, claim_id in enumerate(
        ("RMP", "GM", "SCHUR", "ORTHO", "HM", "GEOS", "WGM", "CROSS_TERMS")
    ):
        out.append(
            verify_claim(
                claim_id, s=s, n=n, d=d, trials=trials, seed=seed + offset, cfg=cfg
            )
        )
    return out
