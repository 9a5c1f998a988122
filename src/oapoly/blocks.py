"""The eight claims evaluated on array blocks of trials, for `verify_claim`
and the random phase of `falsify`.

`draw` makes the inputs of a block of T trials, drawn one trial after
another with the generator calls of the per-trial sampling helpers (so the
random stream is that of a loop over single trials), and `rows` evaluates
both sides of a claim for every trial of the block at once, on (T, k, n)
stacks, with polynomials held as a `TermStack`; `sides` gives the two sides
of the polynomial identities that `falsify` searches. Each kernel repeats the
arithmetic of the claim's check_* function in the same order (sequential
products over slots, then sequential accumulation over keys), so every
row's values are bit-identical to checking that trial alone. Where the
tuple size varies (RMP's r, the SCHUR and ORTHO arity, the GEOS and WGM
partition), rows are grouped by it.

A kernel returns ``(residuals, passed, payload)``: per-row residuals and pass
flags, and ``payload(t)``, row t's counterexample in the check_* format.
Inputs are assumed to meet the claims' preconditions; ``verify_claim``
checks them before drawing.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .means import (
    geometric_mean_stack,
    harmonic_mean_stack,
    root_mean_power_stack,
    weighted_geometric_mean_stack,
)
from .partitions import CompletePartition, weights
from .polynomials import TermStack
from .reports import cross_payload, identity_payload, row_residuals
from .sampling import COEFF_HIGH, COEFF_LOW, LOG_HIGH, LOG_LOW, SIGNS

__all__ = ["TrialDraws", "draw_trials", "draw", "sides", "rows"]


# -- drawing -------------------------------------------------------------------


class TrialDraws(NamedTuple):
    """The inputs of a block of T randomized trials, as stacked arrays.

    coeffs
        (T, n, d) diagonal coefficients, one random additive polynomial per
        trial, or None.
    picks
        (T,) the integer drawn first in each trial (a tuple size or an index
        into a table of partitions), or None.
    counts
        (T,) number of vectors in each trial's tuple.
    vectors
        (T, k_max, n) the tuples; rows at and past ``counts[t]`` are unused.
    pairs
        (T, 2, n) a disjoint positive pair per trial, or None.
    """

    coeffs: np.ndarray | None
    picks: np.ndarray | None
    counts: np.ndarray
    vectors: np.ndarray
    pairs: np.ndarray | None


def draw_trials(
    rng: np.random.Generator,
    trials: int,
    n: int,
    *,
    d: int | None = None,
    pick: tuple[int, int] | None = None,
    counts: Sequence[int] | int = 0,
    pair: str | None = None,
) -> TrialDraws:
    """Draw the inputs of ``trials`` trials in one block.

    Each trial draws, in this order and with the same generator calls as the
    per-trial helpers of `oapoly.sampling`: the coefficients of `diagonal_polynomial` (when ``d``
    is given); one ``rng.integers(*pick)`` (when ``pick`` is given), which
    selects the tuple size ``counts[pick]``; the tuple of `positive_tuple`
    (``counts`` vectors when it is an int); and, when ``pair`` is
    ``"slots"``, the two slots and the pair of `tuple_with_disjoint_pair`
    (the pair then also replaces those slots of the tuple), or, when ``pair``
    is ``"only"``, the pair of `disjoint_pair` alone. The random stream, and
    so every value, is that of the per-trial helpers; only the exponentials
    and sign products are taken once per block.
    """
    table = None if isinstance(counts, int) else list(counts)
    k_max = counts if table is None else max(table)
    logs = np.zeros((trials, k_max, n))
    sizes = np.full(trials, k_max, dtype=np.intp)
    coeffs = signs = picks = pair_logs = mask = slots = None
    if d is not None:
        coeffs = np.empty((trials, n, d))
        signs = np.empty((trials, n, d), dtype=np.intp)
    if pick is not None:
        picks = np.empty(trials, dtype=np.intp)
    if pair is not None:
        pair_logs = np.empty((trials, 2, n))
        mask = np.empty((trials, n), dtype=bool)
    if pair == "slots":
        slots = np.empty((trials, 2), dtype=np.intp)
    low, high = math.log(LOG_LOW), math.log(LOG_HIGH)
    for t in range(trials):
        if coeffs is not None:
            coeffs[t] = rng.uniform(COEFF_LOW, COEFF_HIGH, (n, d))
            signs[t] = rng.integers(0, 2, (n, d))
        k = k_max
        if picks is not None:
            picks[t] = p = rng.integers(*pick)
            sizes[t] = k = table[p]
        if k:
            logs[t, :k] = rng.uniform(low, high, (k, n))
        if slots is not None:
            slots[t] = rng.choice(int(k), size=2, replace=False)
        if mask is not None:
            mask[t] = rng.integers(0, 2, n)
            pair_logs[t] = rng.uniform(low, high, (2, n))
    vectors = np.exp(logs)
    pairs = None
    if pair is not None:
        e = np.exp(pair_logs)
        pairs = np.stack([np.where(mask, e[:, 0], 0.0), np.where(mask, 0.0, e[:, 1])], axis=1)
        if slots is not None:
            rows = np.arange(trials)
            vectors[rows, slots[:, 0]] = pairs[:, 0]
            vectors[rows, slots[:, 1]] = pairs[:, 1]
    if coeffs is not None:
        coeffs *= SIGNS[signs]
    return TrialDraws(coeffs, picks, sizes, vectors, pairs)


def draw(claim_id, rng, trials, s, n, d, pool, partition) -> TrialDraws:
    """The inputs of one block of ``claim_id`` trials."""
    if claim_id == "RMP":
        spec = {"pick": (2, 5), "counts": range(5)}
    elif claim_id == "SCHUR":
        spec = {"pick": (1, s + 1), "counts": range(s + 1)}
    elif claim_id == "ORTHO":
        top = max(3, s + 1)
        spec = {"pick": (2, top), "counts": range(top), "pair": "slots"}
    elif claim_id in ("GEOS", "WGM"):
        if partition is None:
            spec = {"pick": (0, len(pool)), "counts": [len(p) for p in pool]}
        else:
            spec = {"counts": len(partition.parts)}
    elif claim_id == "CROSS_TERMS":
        spec = {"pair": "only"}
    else:
        spec = {"counts": s}
    return draw_trials(rng, trials, n, d=d, **spec)


# -- the two sides of the polynomial identities ---------------------------------


def _rmp_sides(P, X, cp=None):
    return P(root_mean_power_stack(P.degree, X)), sum(P(X[:, i]) for i in range(X.shape[1]))


def _gm_sides(P, X, cp=None):
    return P(geometric_mean_stack(X)), P.form([X[:, i] for i in range(X.shape[1])])


def _hm_sides(P, X, cp=None):
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


def _wgm_sides(P, X, cp):
    lhs = P(weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X))
    return lhs, P.form([X[:, i] for i in _repeats(cp)])


_SIDES = {"RMP": _rmp_sides, "GM": _gm_sides, "HM": _hm_sides, "WGM": _wgm_sides}


def sides(claim_id, P: TermStack, X: np.ndarray, cp: CompletePartition | None = None):
    """Both sides, (T, d) each, of the RMP, GM, HM or WGM identity (WGM for
    the partition ``cp``) for the tuples X (T, k, n), in the arithmetic order
    of the claim's check_* function."""
    return _SIDES[claim_id](P, X, cp)


# -- claim kernels -------------------------------------------------------------


def _grouped(keys: np.ndarray, run):
    """Run ``run(rows, key)`` on the rows sharing each key and merge the
    (residuals, passed, payload) results back into trial order."""
    residuals = np.empty(len(keys))
    passed = np.empty(len(keys), dtype=bool)
    group_of = np.empty(len(keys), dtype=np.intp)
    local_of = np.empty(len(keys), dtype=np.intp)
    payloads = []
    for key in np.flatnonzero(np.bincount(keys)):
        rows = np.flatnonzero(keys == key)
        res, ok, payload = run(rows, int(key))
        residuals[rows], passed[rows] = res, ok
        group_of[rows], local_of[rows] = len(payloads), np.arange(len(rows))
        payloads.append(payload)
    return residuals, passed, lambda t: payloads[group_of[t]](local_of[t])


def _identity_rows(lhs, rhs, tol, cfg, X, extra=None):
    res = row_residuals(lhs, rhs, switch=cfg.relative_switch)
    return res, res <= tol, lambda i: identity_payload(X[i].tolist(), lhs[i], rhs[i], extra)


def _rmp_rows(draws, P, cfg, partition_of):
    def group(rows, k):
        X = draws.vectors[rows, :k]
        return _identity_rows(*_rmp_sides(P.take(rows), X), cfg.identity_rel, cfg, X)

    return _grouped(draws.counts, group)


def _gm_rows(draws, P, cfg, partition_of):
    X = draws.vectors
    return _identity_rows(*_gm_sides(P, X), cfg.identity_rel, cfg, X)


def _schur_rows(draws, P, cfg, partition_of):
    tol = float(cfg.ulp_slack)

    def group(rows, k):
        X = draws.vectors[rows, :k]
        e = harmonic_mean_stack(X)
        lo = X[:, 0]
        for i in range(1, k):
            lo = np.minimum(lo, X[:, i])
        hi = lo * k
        lower_gap = np.maximum(lo - e, 0.0)
        upper_gap = np.maximum(e - hi, 0.0)
        with np.errstate(invalid="ignore"):
            ulps = np.maximum(
                np.where(lower_gap > 0, lower_gap / np.spacing(lo), 0.0),
                np.where(upper_gap > 0, upper_gap / np.spacing(hi), 0.0),
            )
        worst = np.max(ulps, axis=1)
        return worst, worst <= tol, lambda i: {
            "inputs": X[i].tolist(), "harmonic": e[i], "min": lo[i],
        }

    return _grouped(draws.counts, group)


def _ortho_rows(draws, P, cfg, partition_of):
    def group(rows, k):
        X = draws.vectors[rows, :k]
        e = harmonic_mean_stack(X)
        worst = np.max(np.abs(e), axis=1)
        return worst, worst == 0.0, lambda i: {"inputs": X[i].tolist(), "harmonic": e[i]}

    return _grouped(draws.counts, group)


def _hm_rows(draws, P, cfg, partition_of):
    X = draws.vectors
    return _identity_rows(*_hm_sides(P, X), cfg.identity_rel, cfg, X)


def _partition_keys(draws) -> np.ndarray:
    return draws.picks if draws.picks is not None else np.zeros(len(draws.counts), dtype=np.intp)


def _geos_rows(draws, P, cfg, partition_of):
    def group(rows, key):
        cp = partition_of(key)
        X = draws.vectors[rows, :len(cp.parts)]
        lhs = weighted_geometric_mean_stack(np.array(weights(cp).as_floats()), X)
        rhs = geometric_mean_stack(X[:, _repeats(cp)])
        return _identity_rows(lhs, rhs, cfg.geos_rel, cfg, X, {"partition": list(cp.parts)})

    return _grouped(_partition_keys(draws), group)


def _wgm_rows(draws, P, cfg, partition_of):
    def group(rows, key):
        cp = partition_of(key)
        X = draws.vectors[rows, :len(cp.parts)]
        lhs, rhs = _wgm_sides(P.take(rows), X, cp)
        return _identity_rows(lhs, rhs, cfg.identity_rel, cfg, X, {"partition": list(cp.parts)})

    return _grouped(_partition_keys(draws), group)


def _cross_rows(draws, P, cfg, partition_of):
    f, g = draws.pairs[:, 0], draws.pairs[:, 1]
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
            mag = np.max(np.abs(val), axis=1)
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


_KERNELS = {
    "RMP": _rmp_rows, "GM": _gm_rows, "SCHUR": _schur_rows, "ORTHO": _ortho_rows,
    "HM": _hm_rows, "GEOS": _geos_rows, "WGM": _wgm_rows, "CROSS_TERMS": _cross_rows,
}


def rows(claim_id, draws: TrialDraws, P, cfg, partition_of):
    """Evaluate ``claim_id`` on a block; ``P`` is a `TermStack` (None for the
    claims without a polynomial) and ``partition_of(pick)`` the partition of
    a GEOS or WGM row."""
    return _KERNELS[claim_id](draws, P, cfg, partition_of)
