"""The one declared summation order, `polynomials.ordered_sum`: every sum of
a claim's sides and of the closed-form means adds its terms one after
another from +0, also where numpy's own sum would add a run of 8 or more
terms pairwise, and its error stays within the bound of recursive
summation."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from oapoly import HomogeneousPolynomial, LatticeVector
from oapoly.means import harmonic_mean_stack, root_mean_power_stack
from oapoly.polynomials import TermStack, ordered_sum

# numpy adds fewer than 8 terms in order, a run of 8 to 128 in 8 interleaved
# partial sums, and a longer one by halves
SIZES = [8, 9, 17, 129]


def in_order(terms, zero=0.0):
    """((0 + t_0) + t_1) + ..., term after term."""
    total = zero
    for t in terms:
        total = total + t
    return total


def cancelling(N):
    """2^53, N - 2 ones and -2^53: in order each one is lost against 2^53
    and the sum is 0.0; numpy's pairwise sum adds some ones first."""
    return np.array([2.0**53] + [1.0] * (N - 2) + [-(2.0**53)])


def absorbing(N):
    """2^53 and N - 1 ones, all positive: 2^53 in order."""
    return np.array([2.0**53] + [1.0] * (N - 1))


@pytest.mark.parametrize("N", SIZES)
def test_ordered_sum_adds_in_order_whatever_the_layout(N):
    # a lone run and rows of entries alike, over a leading, middle or last
    # axis, also of an array that is not C-contiguous
    terms = cancelling(N)
    assert np.sum(terms) != in_order(terms)  # numpy's pairwise order differs here
    scales = 2.0 ** np.arange(3)
    cases = [(terms, 0), (terms[:, None], 0), (terms[:, None] * scales, 0),
             ((terms[:, None] * scales).T, 1), (terms[:, None] * scales, -2),
             (np.stack([terms, 2 * terms])[:, :, None], 1),
             (np.stack([terms, 2 * terms])[:, :, None] * scales, 1)]
    for array, axis in cases:
        moved = np.moveaxis(array, axis, 0)
        expect = np.empty(moved.shape[1:])
        for index in np.ndindex(*expect.shape):
            expect[index] = in_order(moved[(slice(None), *index)])
        got = ordered_sum(array, axis=axis)
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("N", SIZES)
def test_form_sums_a_keys_arrangements_in_order(N):
    # the key (0^(N-1), 1) has N arrangements; with slot k holding
    # [1, t_(N-1-k)], arrangement j, which puts index 1 at slot N-1-j,
    # has the product t_j
    P = HomogeneousPolynomial(N, 2, 1, {(0,) * (N - 1) + (1,): [1.0]})
    terms = cancelling(N)
    fs = [LatticeVector([1.0, terms[N - 1 - k]]) for k in range(N)]
    assert P.multilinear(*fs).tobytes() == np.array([in_order(terms)]).tobytes()
    # three rows: the form's sums over rows of entries
    scales = 2.0 ** np.arange(3)
    slots = [np.stack([np.ones(3), scales * terms[N - 1 - k]], axis=1) for k in range(N)]
    expect = np.array([[in_order(c * terms)] for c in scales])
    assert TermStack.of(P).form(slots).tobytes() == expect.tobytes()


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("d", [1, 2])
def test_p_sums_its_keys_in_order(N, d):
    # N keys (i,) of coefficient t_i at the ones: P's sum over keys
    terms = cancelling(N)
    P = HomogeneousPolynomial(1, N, d, {(i,): t * 2.0 ** np.arange(d) for i, t in enumerate(terms)})
    expect = np.array([in_order(terms * 2.0**e) for e in range(d)])
    assert P(LatticeVector(np.ones(N))).tobytes() == expect.tobytes()


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("n", [1, 3])
def test_root_mean_power_sums_its_slots_in_order(N, n):
    # s = 1: the mean is the sum of the slots
    X = absorbing(N)[None, :, None] * 2.0 ** np.arange(n)
    expect = np.array([in_order(X[0, :, i]) for i in range(n)])
    assert np.sum(X[0, :, 0]) != expect[0]
    assert root_mean_power_stack(1, X)[0].tobytes() == expect.tobytes()


@pytest.mark.parametrize("N", SIZES)
@pytest.mark.parametrize("n", [1, 3])
def test_root_mean_power_rescue_sums_in_order(N, n):
    # x^2 overflows at every entry, so each mean is taken of its slots
    # over their maximum m, a sum along the slots whatever n is
    rng = np.random.default_rng(N)
    T = 256
    X = np.exp(rng.uniform(np.log(1e155), np.log(1e165), (T, N, n)))
    m = X.max(axis=1)
    scaled = (X / m[:, None]) ** 2
    expect = m * in_order(np.moveaxis(scaled, 1, 0), np.zeros((T, n))) ** 0.5
    pairwise = np.sum(np.ascontiguousarray(np.moveaxis(scaled, 1, -1)), axis=-1)
    assert (m * pairwise ** 0.5 != expect).any()
    assert root_mean_power_stack(2, X).tobytes() == expect.tobytes()


@pytest.mark.parametrize("N", SIZES)
def test_harmonic_mean_sums_its_reciprocals_in_order(N):
    # rows whose extended sums lose their small reciprocals in order: one of
    # about 2^64, one of about 2^40 and N - 2 just below 1; numpy's pairwise
    # order keeps some of them, which moves the double of a few rows
    rng = np.random.default_rng(N)
    T = 4096
    X = np.empty((T, N))
    X[:, 0] = 2.0**-64 * rng.uniform(0.5, 1.0, T)
    X[:, 1] = 2.0**-40 * rng.uniform(0.5, 1.0, T)
    X[:, 2:] = 1.0 / rng.uniform(0.9, 1.0, (T, N - 2))
    recip = 1.0 / X.astype(np.longdouble)
    expect = (N / in_order(recip.T, np.zeros(T, np.longdouble))).astype(float)
    assert ((N / np.sum(recip, axis=1)).astype(float) != expect).any()
    assert harmonic_mean_stack(X[:, :, None])[:, 0].tobytes() == expect.tobytes()
    assert harmonic_mean_stack(np.repeat(X[:, :, None], 3, axis=2)).tobytes() == \
        np.repeat(expect[:, None], 3, axis=1).tobytes()


def permanent(M):
    """The permanent of a square matrix of Fractions, exactly (Ryser)."""
    n = len(M)
    total = Fraction(0)
    for size in range(1, n + 1):
        for columns in itertools.combinations(range(n), size):
            product = Fraction(1)
            for row in M:
                product *= sum((row[j] for j in columns), Fraction(0))
            total += (-1) ** size * product
    return (-1) ** n * total


@pytest.mark.parametrize("signed", [False, True])
def test_form_error_is_within_the_recursive_summation_bound(signed):
    # one key over 8 distinct indices has A = 8! arrangements, whose form is
    # the permanent of the slots' matrix; in order, the sum errs by at most
    # about A u times the sum of the terms' magnitudes, which is the
    # permanent of the magnitudes
    A = 40320
    P = HomogeneousPolynomial(8, 8, 1, {tuple(range(8)): [1.0]})
    rng = np.random.default_rng(5 + signed)
    for _ in range(4):
        M = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (8, 8)))
        if signed:
            M *= rng.choice([-1.0, 1.0], (8, 8))
        value = P.multilinear(*[LatticeVector(row) for row in M])[0]
        exact = permanent([[Fraction(x) for x in row] for row in M.tolist()])
        mass = permanent([[abs(Fraction(x)) for x in row] for row in M.tolist()])
        assert abs(Fraction(value) - exact) / mass <= A * Fraction(1, 2**53)
