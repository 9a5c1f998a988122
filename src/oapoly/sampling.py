"""Seeded input generators shared by the randomized checks and the tests.

Entries are log-uniform on [1e-3, 1e3] unless stated otherwise, so identities
get exercised across six orders of magnitude. Disjointness is produced by
construction (complementary support masks with exact zeros), never by
thresholding.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .lattice import PositiveVector
from .polynomials import HomogeneousPolynomial

__all__ = [
    "LOG_LOW",
    "LOG_HIGH",
    "log_uniform",
    "positive_vector",
    "positive_tuple",
    "disjoint_pair",
    "tuple_with_disjoint_pair",
    "diagonal_polynomial",
    "sparse_polynomial",
    "TrialDraws",
    "trial_width",
    "draw_trials",
]

LOG_LOW = 1e-3
LOG_HIGH = 1e3


def log_uniform(rng: np.random.Generator, size, low: float = LOG_LOW, high: float = LOG_HIGH):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def positive_vector(rng: np.random.Generator, n: int) -> PositiveVector:
    return PositiveVector(log_uniform(rng, n))


def positive_tuple(rng: np.random.Generator, count: int, n: int) -> list[PositiveVector]:
    return [positive_vector(rng, n) for _ in range(count)]


def disjoint_pair(rng: np.random.Generator, n: int) -> tuple[PositiveVector, PositiveVector]:
    """A positive pair with complementary supports (hence exactly disjoint)."""
    mask = rng.integers(0, 2, n).astype(bool)
    f = np.where(mask, log_uniform(rng, n), 0.0)
    g = np.where(mask, 0.0, log_uniform(rng, n))
    return PositiveVector(f), PositiveVector(g)


def tuple_with_disjoint_pair(
    rng: np.random.Generator, count: int, n: int
) -> list[PositiveVector]:
    """``count`` positive vectors of which two (random slots) are disjoint."""
    if count < 2:
        raise ValueError("need at least two vectors to place a disjoint pair")
    fs = positive_tuple(rng, count, n)
    i, j = rng.choice(count, size=2, replace=False)
    fs[i], fs[j] = disjoint_pair(rng, n)
    return fs


COEFF_LOW, COEFF_HIGH = 0.1, 2.0
SIGNS = np.array([-1.0, 1.0])


def _signed_coeffs(rng: np.random.Generator, shape) -> np.ndarray:
    # the same draws as rng.choice([-1.0, 1.0], shape), without its overhead
    return rng.uniform(COEFF_LOW, COEFF_HIGH, shape) * SIGNS[rng.integers(0, 2, shape)]


def diagonal_polynomial(
    rng: np.random.Generator, degree: int, n: int, d: int = 1
) -> HomogeneousPolynomial:
    """Random orthogonally additive polynomial sum_i c_i x_i^degree."""
    return HomogeneousPolynomial.diagonal(_signed_coeffs(rng, (n, d)), degree)


def _mixed_key(rng: np.random.Generator, degree: int, n: int) -> tuple[int, ...]:
    if n < 2 or degree < 2:
        raise ValueError("mixed keys need degree >= 2 and dimension >= 2")
    while True:
        key = tuple(sorted(int(i) for i in rng.integers(0, n, degree)))
        if len(set(key)) >= 2:
            return key


def sparse_polynomial(
    rng: np.random.Generator,
    degree: int,
    n: int,
    d: int = 1,
    *,
    mixed_terms: int = 2,
    mixed_mass: float = 0.0,
) -> HomogeneousPolynomial:
    """Random sparse polynomial with a controlled mixed-coefficient share:
    pure keys on min(n, 3) random coordinates, then ``mixed_terms`` mixed keys.

    ``mixed_mass`` is the target fraction of the total l1 coefficient mass
    carried by keys with at least two distinct indices; 0 gives a purely
    diagonal (orthogonally additive) polynomial, anything positive gives an
    adversarial non-additive one.
    """
    if not 0 <= mixed_mass < 1:
        raise ValueError("mixed_mass must lie in [0, 1)")
    terms: dict[tuple[int, ...], np.ndarray] = {}
    idx = rng.choice(n, size=min(n, 3), replace=False)
    for i in idx:
        terms[(int(i),) * degree] = _signed_coeffs(rng, d)
    if mixed_mass > 0:
        diag_mass = sum(np.abs(c).sum() for c in terms.values())
        mixed: dict[tuple[int, ...], np.ndarray] = {}
        for _ in range(mixed_terms):
            key = _mixed_key(rng, degree, n)
            mixed[key] = mixed.get(key, 0) + _signed_coeffs(rng, d)
        raw = sum(np.abs(c).sum() for c in mixed.values())
        scale = mixed_mass * diag_mass / ((1.0 - mixed_mass) * raw)
        for key, coeff in mixed.items():
            terms[key] = coeff * scale
    return HomogeneousPolynomial(degree, n, d, terms)


# -- a block of trials at once -------------------------------------------------


class TrialDraws(NamedTuple):
    """The inputs of a block of T randomized trials, as stacked arrays.

    coeffs
        (T, n, d) diagonal coefficients, one random additive polynomial per
        trial, or None.
    picks
        (T,) the integer drawn in each trial (a tuple size or an index into a
        table of partitions), or None.
    counts
        (T,) number of vectors in each trial's tuple.
    vectors
        (T, k_max, n) the tuples; trial t's slots at and past ``counts[t]``
        hold entries that are no input of the trial (every trial draws all
        k_max slots, so that W is fixed): a kernel leaves them out of trial
        t's arithmetic.
    """

    coeffs: np.ndarray | None
    picks: np.ndarray | None
    counts: np.ndarray
    vectors: np.ndarray


def trial_width(
    n: int,
    *,
    d: int | None = None,
    pick: tuple[int, int] | None = None,
    counts: Sequence[int] | int = 0,
    pair: str | None = None,
) -> int:
    """W, the number of uniforms in one trial's row of `draw_trials`."""
    k_max = counts if isinstance(counts, int) else max(counts)
    return ((0 if d is None else 2 * n * d) + (pick is not None) + k_max * n
            + 2 * (pair == "slots") + 3 * n * (pair is not None))


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
    """Draw the inputs of ``trials`` trials with one ``rng.random((trials, W))``.

    Row t of the draw holds every uniform u that trial t needs, and each
    input is a fixed transform of a slice of the row, in this order: when
    ``d`` is given, the (n, d) coefficients of a random diagonal polynomial,
    ``COEFF_LOW + (COEFF_HIGH - COEFF_LOW) u``, then their signs, negative
    where u < 0.5; when ``pick`` = (lo, hi) is given, the pick
    ``lo + floor(u (hi - lo))``, which selects the tuple size
    ``counts[pick]``; the tuple's log-uniform entries over all ``k_max``
    slots (``counts`` vectors when it is an int, else ``max(counts)``); when
    ``pair`` is ``"slots"``, two distinct slots i = floor(u k) and
    j = floor(u' (k - 1)), j + 1 when j >= i, of the trial's k vectors; and,
    when ``pair`` is given, the mask of a disjoint pair (f's support where
    u < 0.5, g's elsewhere) and the pair's 2n log-uniform entries. The pair
    replaces slots i and j of the tuple (``"slots"``), or is the trial's
    tuple of two (``"only"``).

    W = `trial_width` is fixed by the keywords, so trial t's inputs depend
    only on the generator's state and t: drawing T rows in any number of
    calls gives the same rows, and advancing a PCG64 generator by t * W
    reaches trial t.
    """
    if pick is not None and pick[0] >= pick[1]:
        raise ValueError(f"pick range [{pick[0]}, {pick[1]}) is empty")
    table = None if isinstance(counts, int) else np.asarray(counts, dtype=np.intp)
    k_max = counts if table is None else int(table.max())
    U = rng.random((trials, trial_width(n, d=d, pick=pick, counts=counts, pair=pair)))
    at = 0

    def take(width):
        nonlocal at
        at += width
        return U[:, at - width:at]

    low, high = math.log(LOG_LOW), math.log(LOG_HIGH)
    coeffs = picks = None
    if d is not None:
        magnitudes = (COEFF_LOW + (COEFF_HIGH - COEFF_LOW) * take(n * d)).reshape(trials, n, d)
        coeffs = np.where(take(n * d).reshape(trials, n, d) < 0.5, -magnitudes, magnitudes)
    sizes = np.full(trials, k_max, dtype=np.intp)
    if pick is not None:
        picks = pick[0] + (take(1)[:, 0] * (pick[1] - pick[0])).astype(np.intp)
        sizes = table[picks]
    vectors = np.exp(low + (high - low) * take(k_max * n)).reshape(trials, k_max, n)
    if pair == "slots":
        if sizes.min() < 2:
            raise ValueError("need at least two vectors to place a disjoint pair")
        u = take(2)
        i = (u[:, 0] * sizes).astype(np.intp)
        j = (u[:, 1] * (sizes - 1)).astype(np.intp)
        j += j >= i
    if pair is not None:
        mask = take(n) < 0.5
        e = np.exp(low + (high - low) * take(2 * n)).reshape(trials, 2, n)
        pairs = np.stack([np.where(mask, e[:, 0], 0.0), np.where(mask, 0.0, e[:, 1])], axis=1)
        if pair == "slots":
            vectors[np.arange(trials)[:, None], np.stack([i, j], axis=1)] = pairs
        else:
            vectors, sizes = pairs, np.full(trials, 2, dtype=np.intp)
    return TrialDraws(coeffs, picks, sizes, vectors)
