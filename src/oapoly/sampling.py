"""Seeded input generators shared by the randomized checks and the tests.

Entries are log-uniform on [1e-3, 1e3] unless stated otherwise, so identities
get exercised across six orders of magnitude. Disjointness is produced by
construction (complementary support masks with exact zeros), never by
thresholding.
"""

from __future__ import annotations

import math

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
]

LOG_LOW = 1e-3
LOG_HIGH = 1e3


def log_uniform(rng: np.random.Generator, size, low: float = LOG_LOW, high: float = LOG_HIGH):
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def positive_vector(
    rng: np.random.Generator, n: int, low: float = LOG_LOW, high: float = LOG_HIGH
) -> PositiveVector:
    return PositiveVector(log_uniform(rng, n, low, high))


def positive_tuple(
    rng: np.random.Generator, count: int, n: int, low: float = LOG_LOW, high: float = LOG_HIGH
) -> list[PositiveVector]:
    return [positive_vector(rng, n, low, high) for _ in range(count)]


def disjoint_pair(
    rng: np.random.Generator, n: int, low: float = LOG_LOW, high: float = LOG_HIGH
) -> tuple[PositiveVector, PositiveVector]:
    """A positive pair with complementary supports (hence exactly disjoint)."""
    mask = rng.integers(0, 2, n).astype(bool)
    f = np.where(mask, log_uniform(rng, n, low, high), 0.0)
    g = np.where(mask, 0.0, log_uniform(rng, n, low, high))
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
    diagonal_terms: int | None = None,
    mixed_terms: int = 2,
    mixed_mass: float = 0.0,
) -> HomogeneousPolynomial:
    """Random sparse polynomial with a controlled mixed-coefficient share.

    ``mixed_mass`` is the target fraction of the total l1 coefficient mass
    carried by keys with at least two distinct indices; 0 gives a purely
    diagonal (orthogonally additive) polynomial, anything positive gives an
    adversarial non-additive one.
    """
    if not 0 <= mixed_mass < 1:
        raise ValueError("mixed_mass must lie in [0, 1)")
    if diagonal_terms is None:
        diagonal_terms = min(n, 3)
    terms: dict[tuple[int, ...], np.ndarray] = {}
    idx = rng.choice(n, size=min(diagonal_terms, n), replace=False)
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
