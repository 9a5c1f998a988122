"""Polynomials: evaluation conventions, polarization, additivity structure."""

import copy
import functools
import hashlib
import itertools
import math
import pickle
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oapoly import (
    HomogeneousPolynomial,
    LatticeVector,
    PositiveVector,
    is_positively_orthogonally_additive,
    make_diagonal,
    polarize_blackbox,
    polynomial_from_json,
    polynomial_to_json,
)
from oapoly import polynomials
from oapoly.lattice import DimensionMismatchError
from oapoly.polynomials import TermStack
from oapoly.sampling import sparse_polynomial


def vec(*entries):
    return LatticeVector(entries)


def zero_like(P, x):
    """The zero that evaluating P at x accumulates from: exact when P or x is."""
    if P.is_exact or x.dtype == object:
        return np.full(P.codomain_dim, Fraction(0))
    return np.zeros(P.codomain_dim)


def reference_eval(P, x):
    """P(x) key by key: the multinomial weight times np.prod of the key's
    entries, accumulated from a zero of the matching dtype."""
    out = zero_like(P, x)
    for key, coeff in P.terms.items():
        weight = math.factorial(len(key))
        for c in Counter(key).values():
            weight //= math.factorial(c)
        out = out + coeff * (weight * np.prod(x[np.array(key, dtype=np.intp)]))
    return out


def in_order(terms):
    """((0 + t_0) + t_1) + ...: the terms added one after another from zero."""
    total = 0
    for t in terms:
        total = total + t
    return total


def reference_form(P, xs):
    """The symmetric form at the arrays xs key by key: np.prod over the slots
    of each distinct arrangement, summed over the key's arrangements in
    lexicographic order from zero, accumulated over keys from a zero of the
    matching dtype."""
    X = np.stack(xs)
    rows = np.arange(P.degree)[None, :]
    out = zero_like(P, X)
    for key, coeff in P.terms.items():
        arrangements = np.array(sorted(set(itertools.permutations(key))), dtype=np.intp)
        out = out + coeff * in_order(X[rows, arrangements].prod(axis=1))
    return out


def reference_arrangements(key):
    """Every distinct ordering of the index multiset ``key``, in lexicographic
    order; (multinomial, s)."""
    return np.array(sorted(set(itertools.permutations(key))), dtype=np.intp)


def reference_multinomial(key):
    weight = math.factorial(len(key))
    for c in Counter(key).values():
        weight //= math.factorial(c)
    return weight


def reference_polarize(evaluator, fs):
    """polarize_blackbox's signed sum with each argument built from
    LatticeVector operations: sum_k f_k * e_k, slot by slot."""
    s = len(fs)
    total = None
    for signs in itertools.product((1, -1), repeat=s):
        arg = functools.reduce(lambda a, b: a + b, (f * sig for f, sig in zip(fs, signs)))
        parity = 1 if signs.count(-1) % 2 == 0 else -1
        val = np.atleast_1d(np.asarray(evaluator(arg))) * parity
        total = val if total is None else total + val
    denom = 2**s * math.factorial(s)
    return total * Fraction(1, denom) if total.dtype == object else total / denom


def signed_rows(fs):
    """Every signed argument sum_k e_k f_k, the sign rows e in
    itertools.product((1, -1)) order, built slot by slot as
    polarize_blackbox builds them, and each row's parity."""
    signs = np.array(list(itertools.product((1, -1), repeat=len(fs))))
    with np.errstate(over="ignore"):
        rows = fs[0]._data * signs[:, :1]
        for k in range(1, len(fs)):
            rows = rows + fs[k]._data * signs[:, k:k + 1]
    return rows, signs.prod(axis=1, dtype=np.int8)[:, None]


def all_rows_polarize(P, fs):
    """polarize_blackbox's value for a compiled P, with P evaluated at each
    of the 2^s signed rows, in one TermStack call."""
    rows, parities = signed_rows(fs)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.accumulate(TermStack.of(P)(rows) * parities, axis=0)[-1]
        denom = 2**len(fs) * math.factorial(len(fs))
        return total * Fraction(1, denom) if total.dtype == object else total / denom


def layout_table(stack, n):
    """The form's arrangement table in the order of its layout's rows, read
    back from its plan: slot k holds 2 ** (i n^k) at index i, so each row's
    product is 2 to the power whose base-n digits are the row's indices."""
    plan, _ = stack._arrangement_layout()
    s = stack.degree
    slots = [np.array([[2 ** (i * n**k)] for i in range(n)], dtype=object) for k in range(s)]
    powers = [p.bit_length() - 1 for p in polynomials._planned_products(slots, plan)[:, 0]]
    return np.array([[p // n**k % n for k in range(s)] for p in powers]).reshape(-1, s)


def plain_products(slots, table):
    """The slot products at each row of an index table, left to right, with
    no prefix shared: ((x_0[t_0] * x_1[t_1]) * ...) for each row; (T, rows)."""
    out = slots[0][:, table[:, 0]]
    for k in range(1, table.shape[1]):
        out = out * slots[k][:, table[:, k]]
    return out


def called(f):
    """What a recording evaluator notes of its argument."""
    return type(f), f.is_exact, f.entries


def recording_call(P, calls):
    def evaluator(f):
        calls.append(called(f))
        return P(f)
    return evaluator


class Recording(HomogeneousPolynomial):
    """A polynomial whose own __call__ notes each argument: a black box."""

    __slots__ = ("calls",)

    def __call__(self, f):
        self.calls.append(called(f))
        return super().__call__(f)


def exact_bytes(value):
    """A value's bytes, or for an object array each entry's type and repr
    (repr keeps the sign of a zero)."""
    if value.dtype == object:
        return [(type(v), repr(v)) for v in value.tolist()]
    return value.tobytes()


def rational(x):
    """Small-denominator Fractions near the entries of x, as an object array."""
    return np.array([Fraction(float(v)).limit_denominator(64) for v in np.ravel(x)],
                    dtype=object).reshape(np.shape(x))


def rational_polynomial(P):
    """P with each coefficient replaced by a nearby small-denominator Fraction."""
    return HomogeneousPolynomial(P.degree, P.domain_dim, P.codomain_dim,
                                 {key: rational(c) for key, c in P.terms.items()})


def exact_cases(P, x):
    """(polynomial, argument) cases beyond float P at float x: Fraction
    coefficients at x, Fraction coefficients at Fraction entries, and float P
    at Fraction entries."""
    Q, e = rational_polynomial(P), rational(x)
    return [(Q, x), (Q, e), (P, e)]


def signed_zeros(x):
    """x as a LatticeVector whose zero entries are -0.0 (the constructor
    normalizes them to 0.0, negation keeps their sign)."""
    return -LatticeVector(-x)


def random_polynomial(rng, s, n, d):
    if s > 1 and n > 1:
        return sparse_polynomial(rng, s, n, d, mixed_terms=4, mixed_mass=0.5)
    return make_diagonal(rng.uniform(-2, 2, (n, d)), s)


def polarization_cases():
    """(polynomial, vectors) over fixed seeds: s 1-8 (the cap), d 1-3, with
    positive, signed, mixed, signed-zero and exact vectors, exact
    coefficients at exact vectors, and float coefficients at exact vectors."""
    kinds = ("positive", "signed", "mixed", "signed-zero", "exact", "float-at-exact")
    cases = []
    for seed in range(96):
        rng = np.random.default_rng(seed)
        s, kind = 1 + seed % 8, kinds[seed // 8 % 6]
        n = int(rng.integers(1, 4 if s < 7 else 3))
        P = random_polynomial(rng, s, n, int(rng.integers(1, 4)))
        X = rng.uniform(-2, 2, (s, n))
        X[rng.random((s, n)) < 0.25] = 0.0
        if kind == "positive":
            fs = [PositiveVector(np.abs(x)) for x in X]
        elif kind == "signed":
            fs = [LatticeVector(x) for x in X]
        elif kind == "mixed":
            fs = [PositiveVector(np.abs(x)) if k % 2 else LatticeVector(x) for k, x in enumerate(X)]
        elif kind == "signed-zero":
            fs = [signed_zeros(x) for x in X]
        else:
            fs = [LatticeVector.exact([Fraction(int(v * 16), 16) for v in x]) for x in X]
            if kind == "exact":
                P = HomogeneousPolynomial(s, n, P.codomain_dim, {
                    key: [Fraction(int(c * 64), 64) for c in coeff]
                    for key, coeff in P.terms.items()})
        cases.append((P, fs))
    return cases


def reference_terms(degree, n, d, terms):
    """The canonical terms key by key, as polynomials were once built: each
    key sorted and checked, each row coerced (all Fractions when any entry
    is one, else float64), repeats summed in insertion order from the
    first, rows whose entries are all 0 dropped, keys sorted."""
    canon = {}
    for key, coeff in terms.items():
        key = tuple(sorted(int(i) for i in key))
        assert len(key) == degree and 0 <= key[0] and key[-1] < n
        arr = np.atleast_1d(np.asarray(coeff))
        if any(isinstance(v, Fraction) for v in arr.ravel().tolist()):
            arr = np.array([v if isinstance(v, Fraction) else Fraction(v) for v in arr],
                           dtype=object)
        else:
            arr = arr.astype(float)
        assert arr.shape == (d,)
        canon[key] = canon[key] + arr if key in canon else arr
    return {k: v for k, v in sorted(canon.items()) if np.any(v != 0)}


def term_bits(terms):
    """Each term's key and its entries' kinds and reprs: a float, whether a
    Python float or a float64, by its repr, which keeps a zero's sign."""
    return [(key, [("float", repr(float(v))) if isinstance(v, float) else (type(v), repr(v))
                   for v in coeff.tolist()]) for key, coeff in terms.items()]


def square_of_sum():
    # (x + y)^2: tensor coefficients {0,0}: 1, {0,1}: 1, {1,1}: 1
    return HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [1.0], (1, 1): [1.0]})


class TestEval:
    def test_diagonal_sum_of_squares(self):
        P = make_diagonal([1.0, 1.0], 2)
        assert P(vec(3, 4))[0] == pytest.approx(3**2 + 4**2, rel=1e-15)

    def test_zero_input(self):
        P = sparse_polynomial(np.random.default_rng(0), 3, 3, 2, mixed_terms=2, mixed_mass=0.4)
        assert np.all(P(vec(0, 0, 0)) == 0)

    def test_square_of_sum_multinomial_weights(self):
        P = square_of_sum()
        assert P(vec(1, 2))[0] == pytest.approx((1 + 2) ** 2, rel=1e-15)
        assert P(vec(-1, 4))[0] == pytest.approx((-1 + 4) ** 2, rel=1e-15)

    def test_diagonal_signed_coefficients(self):
        P = make_diagonal([2.0, -1.0], 3)
        assert P(vec(1, 1))[0] == pytest.approx(2 - 1, rel=1e-15)

    def test_zero_polynomial(self):
        P = make_diagonal([0.0, 0.0], 2)
        assert P.terms == {}
        assert P(vec(5, 6))[0] == 0.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_compiled_evaluation_is_bit_identical(self, s, n, d, seed):
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        x = rng.uniform(-3, 3, n)
        for x in (np.exp(x), x, np.where(x > 0, x, 0.0), np.zeros(n)):
            # bytes, so that the sign of a zero counts
            assert P(LatticeVector(x)).tobytes() == reference_eval(P, x).tobytes()
            for Q, y in exact_cases(P, x):
                f = LatticeVector(y, exact=y.dtype == object)
                assert exact_bytes(Q(f)) == exact_bytes(reference_eval(Q, y))

    @pytest.mark.parametrize("c", [1.5, -1.5])
    def test_float_polynomial_at_exact_vectors_beyond_the_float_range(self, c):
        # c x^2 at x = 10^400: each exact term is rounded, to ±inf, before its
        # float coefficient multiplies it, as float * Fraction rounds in range
        P = make_diagonal([[c]], 2)
        v, one = LatticeVector.exact([Fraction(10) ** 400]), LatticeVector.exact([1])
        inf = math.copysign(math.inf, c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert P(v).tolist() == [inf]
            assert P.multilinear(v, one).tolist() == [inf]
            assert polarize_blackbox(P, [v, v]).tolist() == [inf]
            # in range, the bytes of float * Fraction
            x = Fraction(10) ** 100 / 3
            assert exact_bytes(P(LatticeVector.exact([x]))) == exact_bytes(
                np.array([c * (x * x)], dtype=object))

    def test_exact_input_keeps_exact_evaluation(self):
        P = square_of_sum()
        assert P(LatticeVector.exact([1, Fraction(1, 2)]))[0] == Fraction(9, 4)

    def test_dimension_checked(self):
        P = make_diagonal([1.0, 1.0], 2)
        with pytest.raises(DimensionMismatchError):
            P(vec(1, 2, 3))

    def test_key_validation(self):
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, 1, {(0, 1, 1): [1.0]})
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, 1, {(0, 5): [1.0]})
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, 1, {(0, 1): [1.0, 2.0]})


class TestMultilinear:
    def test_diagonal_pairing(self):
        P = make_diagonal([1.0, 1.0], 2)
        # oracle: sum_i c_i f_i g_i = 1*3 + 2*6
        assert P.multilinear(vec(1, 2), vec(3, 6))[0] == pytest.approx(15.0, rel=1e-15)

    def test_diagonal_restriction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = int(rng.integers(1, 5))
            P = sparse_polynomial(rng, s, 3, 2, mixed_terms=2,
                                  mixed_mass=float(rng.uniform(0, 0.8)) if s > 1 else 0.0)
            f = vec(*rng.uniform(-2, 2, 3))
            diag = P.multilinear(*([f] * P.degree))
            assert np.allclose(diag, P(f), rtol=1e-12, atol=1e-12)

    def test_zero_slot_kills_value(self):
        P = square_of_sum()
        assert P.multilinear(vec(0, 0), vec(3, 6))[0] == 0.0

    def test_multilinearity_in_each_slot(self):
        rng = np.random.default_rng(2)
        P = sparse_polynomial(rng, 3, 3, 1, mixed_terms=3, mixed_mass=0.5)
        f, g, h, extra = (vec(*rng.uniform(-2, 2, 3)) for _ in range(4))
        a, b = 1.25, -0.75
        left = P.multilinear(f * a + extra * b, g, h)
        right = P.multilinear(f, g, h) * a + P.multilinear(extra, g, h) * b
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_symmetry_under_permutation(self):
        rng = np.random.default_rng(3)
        P = sparse_polynomial(rng, 4, 3, 2, mixed_terms=3, mixed_mass=0.5)
        fs = [vec(*rng.uniform(-2, 2, 3)) for _ in range(4)]
        base = P.multilinear(*fs)
        for perm in itertools.permutations(range(4)):
            assert np.allclose(P.multilinear(*(fs[i] for i in perm)), base, rtol=1e-12)

    def test_arity_enforced(self):
        P = make_diagonal([1.0], 3)
        with pytest.raises(ValueError):
            P.multilinear(vec(1), vec(1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_compiled_form_is_bit_identical(self, s, n, d, dense, seed):
        rng = np.random.default_rng(seed)
        keys = list(itertools.combinations_with_replacement(range(n), s))
        if dense and len(keys) <= 500:
            # every arrangement count of degree s (720 at s = n = 6), and
            # signed zero coefficients
            coeffs = rng.uniform(-2, 2, (len(keys), d))
            coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
            P = HomogeneousPolynomial(s, n, d, dict(zip(keys, coeffs)))
        else:
            P = random_polynomial(rng, s, n, d)
        X = rng.uniform(-3, 3, (s, n)) * 10.0 ** rng.integers(-3, 4)
        X[rng.random((s, n)) < 0.25] = 0.0
        fs = [signed_zeros(x) if rng.random() < 0.5 else LatticeVector(x) for x in X]
        # bytes, so that the sign of a zero counts
        expect = reference_form(P, [f.to_array() for f in fs])
        assert P.multilinear(*fs).tobytes() == expect.tobytes()
        if n**s <= 1024:  # every arrangement of a dense P, in Fraction arithmetic
            for Q, Y in exact_cases(P, X):
                gs = [LatticeVector(y, exact=Y.dtype == object) for y in Y]
                expect = reference_form(Q, list(Y))
                assert exact_bytes(Q.multilinear(*gs)) == exact_bytes(expect)

    def test_mixing_exact_and_float_vectors_raises(self):
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [1.5]})
        with pytest.raises(ValueError, match="cannot mix exact and float vectors"):
            P.multilinear(LatticeVector.exact([1, Fraction(1, 3)]), vec(1.0, 2.0))
        with pytest.raises(ValueError, match="cannot mix exact and float vectors"):
            P.multilinear(vec(1.0, 2.0), LatticeVector.exact([1, Fraction(1, 3)]))

    def test_exact_vectors_keep_exact_form(self):
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [1.5]})
        fs = [LatticeVector.exact([1, Fraction(1, 3)]), LatticeVector.exact([2, 3])]
        # 1 * 1 * 2 + 1.5 * (1 * 3 + (1/3) * 2)
        assert P.multilinear(*fs)[0] == 2 + 1.5 * Fraction(11, 3)


class TestHomogeneity:
    @settings(max_examples=50)
    @given(st.floats(min_value=-2, max_value=2), st.integers(0, 10**6))
    def test_scaling(self, lam, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 5))
        P = sparse_polynomial(rng, s, 3, 1, mixed_terms=2,
                              mixed_mass=float(rng.uniform(0, 0.7)) if s > 1 else 0.0)
        f = vec(*rng.uniform(-3, 3, 3))
        lhs = P(f * lam)
        rhs = P(f) * lam**s
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestPolarization:
    def test_pure_square_has_no_cross_term(self):
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0]})  # f_1^2
        out = polarize_blackbox(P, [vec(1, 0), vec(0, 1)])
        assert out[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_multilinear_diagonal(self):
        P = make_diagonal([1.0, 1.0], 2)
        out = polarize_blackbox(P, [vec(1, 2), vec(3, 6)])
        assert out[0] == pytest.approx(15.0, rel=1e-12)

    def test_zero_argument(self):
        P = square_of_sum()
        out = polarize_blackbox(P, [vec(0, 0), vec(4, 5)])
        assert out[0] == pytest.approx(0.0, abs=1e-12)

    def test_random_agreement(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = int(rng.integers(1, 6))
            n = int(rng.integers(1, 5))
            P = sparse_polynomial(rng, s, n, 1, mixed_terms=2,
                                  mixed_mass=float(rng.uniform(0, 0.7)) if n > 1 and s > 1 else 0.0)
            fs = [vec(*rng.uniform(0.5, 2.0, n)) for _ in range(s)]
            direct = P.multilinear(*fs)
            black = polarize_blackbox(P, fs)
            assert np.allclose(black, direct, rtol=1e-8, atol=1e-10)

    def test_exact_mode(self):
        P = HomogeneousPolynomial(
            2, 2, 1, {(0, 0): [Fraction(1)], (0, 1): [Fraction(1, 3)]}
        )
        fs = [LatticeVector.exact([1, 2]), LatticeVector.exact([3, 5])]
        assert polarize_blackbox(P, fs)[0] == P.multilinear(*fs)[0]

    def test_no_vectors(self):
        with pytest.raises(ValueError, match="polarization needs at least one vector"):
            polarize_blackbox(make_diagonal([1.0], 2), [])

    def test_degree_cap(self):
        P = make_diagonal([1.0], 9)
        with pytest.raises(ValueError):
            polarize_blackbox(P, [vec(1.0)] * 9)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from(["positive", "signed", "mixed", "exact"]), st.integers(0, 2**32 - 1))
    def test_arguments_and_value_match_reference(self, s, n, d, kind, seed):
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        X = rng.uniform(-2, 2, (s, n))
        X[rng.random((s, n)) < 0.25] = 0.0
        if kind == "positive":
            fs = [PositiveVector(np.abs(x)) for x in X]
        elif kind == "signed":
            fs = [signed_zeros(x) if rng.random() < 0.5 else LatticeVector(x) for x in X]
        elif kind == "mixed":
            fs = [PositiveVector(np.abs(x)) if k % 2 else LatticeVector(x) for k, x in enumerate(X)]
        else:
            P = HomogeneousPolynomial(s, n, d, {key: [Fraction(int(c * 64), 64) for c in coeff]
                                                for key, coeff in P.terms.items()})
            fs = [LatticeVector.exact([Fraction(int(v * 16), 16) for v in x]) for x in X]

        def recording(calls):
            def evaluator(f):
                calls.append((type(f), f.is_exact, f.entries))
                return P(f)
            return evaluator

        seen, expected = [], []
        out = polarize_blackbox(recording(seen), fs, check_homogeneity=False)
        ref = reference_polarize(recording(expected), fs)

        def values(arr):
            # floats by bytes, so that the sign of a zero counts
            return list(arr) if arr.dtype == object else arr.tobytes()

        assert out.dtype == ref.dtype and values(out) == values(ref)
        assert [c[:2] for c in seen] == [c[:2] for c in expected]
        assert [values(np.array(c[2])) for c in seen] == [values(np.array(c[2])) for c in expected]
        assert values(polarize_blackbox(P, fs)) == values(out)

    def test_homogeneity_spot_check_rejects_frauds(self):
        with pytest.raises(ValueError):
            polarize_blackbox(lambda f: [f[0] ** 2 + 1.0], [vec(1, 2), vec(3, 4)])

    # sha256 of polarize_blackbox's values (dtype, then bytes, or each entry's
    # type and repr), recorded before a compiled P was polarized in one
    # TermStack call
    def test_polarize_golden_digest(self):
        digest = hashlib.sha256()
        for evaluator, fs in polarization_cases():
            out = polarize_blackbox(evaluator, fs)
            digest.update(f"{out.dtype}|{exact_bytes(out)!r};".encode())
        assert digest.hexdigest() == (
            "32b934685d77d10f2a8ebf56abeb8381aec6190901b6922ffa893f7cf37069b7")

    @pytest.mark.parametrize("check", [True, False])
    def test_subclass_is_called_once_per_row(self, check):
        for P, fs in polarization_cases():
            if fs[0].is_exact and not P.is_exact:
                continue  # a float P at exact vectors: the same rows as an exact one
            Q = Recording(P.degree, P.domain_dim, P.codomain_dim, P.terms)
            Q.calls = []
            out = polarize_blackbox(Q, fs, check_homogeneity=check)
            expected = []
            ref = reference_polarize(recording_call(P, expected), fs)
            if check:
                probe = functools.reduce(lambda a, b: a + b, fs)
                scales = (2, Fraction(1, 2)) if probe.is_exact else (2.0, 0.5)
                expected[:0] = [called(f) for f in (probe, *(probe * lam for lam in scales))]
            assert exact_bytes(out) == exact_bytes(ref)
            assert [c[:2] for c in Q.calls] == [c[:2] for c in expected]
            assert [exact_bytes(np.array(c[2])) for c in Q.calls] == \
                [exact_bytes(np.array(c[2])) for c in expected]

    # exception type and message at the parent commit, for a polynomial on R^2
    @pytest.mark.parametrize("fs, check, error, message", [
        ([vec(1, 2), vec(1, 2, 3)], True, DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ([vec(1, 2), vec(1, 2, 3)], False, DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ([vec(1, 2), LatticeVector.exact([1, 2])], True, ValueError,
         "cannot mix exact and float vectors"),
        ([LatticeVector.exact([1, 2]), vec(1, 2)], False, ValueError,
         "cannot mix exact and float vectors"),
        ([vec(1, 2), [1.0, 2.0]], True, TypeError, "expected a LatticeVector, got list"),
        ([vec(1, 2), np.array([1.0, 2.0])], False, TypeError,
         "expected a LatticeVector, got ndarray"),
        ([[1.0, 2.0], vec(1, 2)], True, TypeError, "expected a LatticeVector, got list"),
        ([[1.0, 2.0]], True, TypeError, "expected a LatticeVector, got list"),
        ([vec(1, 2, 3)], True, DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ([vec(1, 2, 3)], False, DimensionMismatchError,
         "vector dimension 3 does not match domain 2"),
        ([vec(1, 2, 3), vec(4, 5, 6)], True, DimensionMismatchError,
         "vector dimension 3 does not match domain 2"),
        ([vec(1, 2, 3), vec(4, 5, 6)], False, DimensionMismatchError,
         "vector dimension 3 does not match domain 2"),
    ])
    def test_invalid_arguments_raise(self, fs, check, error, message):
        P = square_of_sum()
        if len(fs) == 1:
            P = make_diagonal([1.0, 1.0], 1)
        with pytest.raises(error) as info:
            polarize_blackbox(P, fs, check_homogeneity=check)
        assert type(info.value) is error and str(info.value) == message

    def test_fraud_raises_before_any_signed_row(self):
        calls = []

        def fraud(f):
            calls.append(f.entries)
            return [f[0] ** 2 + 1.0]

        with pytest.raises(ValueError, match="homogeneity spot check at scale 2.0"):
            polarize_blackbox(fraud, [vec(1, 2), vec(3, 4)])
        assert calls == [(4.0, 6.0), (8.0, 12.0)]

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_compiled_polynomial_evaluates_the_signed_rows_in_one_call(self, s):
        rng = np.random.default_rng(s)
        P = random_polynomial(rng, s, 3, 2)
        fs = [vec(*rng.uniform(-2, 2, 3)) for _ in range(s)]
        shapes, evaluate = [], TermStack.__call__

        def recording(stack, X):
            shapes.append(X.shape)
            return evaluate(stack, X)

        with patch.object(TermStack, "__call__", recording):
            polarize_blackbox(P, fs)
        # the rows whose first sign is +1; the others are their negations
        assert shapes == [(2**(s - 1), 3)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.sampled_from(["float", "exact", "exact-at-float", "float-at-exact"]),
           st.booleans(), st.booleans(), st.sampled_from([0, 0, 100, 160, 250]),
           st.integers(0, 2**32 - 1))
    def test_compiled_polarization_matches_every_row_evaluated(self, s, kind, check, difference,
                                                               scale, seed):
        # half the signed rows evaluated and the other half mirrored give the
        # bytes of all 2^s rows evaluated: signed zeros, cancelling vectors,
        # overflow to ±inf, and NaN (x_0^t - x_1^t where both terms overflow);
        # unchecked, at a degree t of the other parity than the 2^s rows
        rng = np.random.default_rng(seed)
        t = s if check else s + 1 if s == 1 or rng.random() < 0.5 else s - 1
        exact_vectors = kind in ("exact", "float-at-exact")
        n, d = (2, 1) if difference else (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        if difference:
            P = HomogeneousPolynomial(t, 2, 1, {(0,) * t: [1.0], (1,) * t: [-1.0]})
        else:
            P = random_polynomial(rng, t, n, d)
        if kind in ("exact", "exact-at-float"):
            P = rational_polynomial(P)
        X = rng.uniform(-2, 2, (s, n)) * (1.0 if exact_vectors else 10.0 ** scale)
        X[rng.random((s, n)) < 0.25] = 0.0
        if difference:
            X[:, 1] = X[:, 0]  # x_0 = x_1 in every row: P is 0, or inf - inf
        for k in range(1, s):  # a vector repeated or zero: rows that cancel
            if rng.random() < 0.2:
                X[k] = X[0] if rng.random() < 0.5 else 0.0
        if exact_vectors:
            fs = [LatticeVector.exact([Fraction(int(v * 16), 16) for v in x]) for x in X]
        else:
            fs = [signed_zeros(x) if rng.random() < 0.5 else LatticeVector(x) for x in X]
        out = polarize_blackbox(P, fs, check_homogeneity=check)
        ref = all_rows_polarize(P, fs)
        assert out.dtype == ref.dtype and exact_bytes(out) == exact_bytes(ref)
        # and row by row: the mirrored values are those evaluated, a +0.0
        # and a NaN included
        rows, _ = signed_rows(fs)
        stack = TermStack.of(P)
        evaluated = stack(rows)
        mirrored = polynomials._with_negated_rows(stack(rows[:len(rows) // 2]), P.degree)
        assert mirrored.dtype == evaluated.dtype
        assert [exact_bytes(v) for v in mirrored] == [exact_bytes(v) for v in evaluated]

    def test_compiled_polynomial_of_another_degree_raises(self):
        # x_0^2 - x_1^2 vanishes at the sum of the three vectors, so a
        # numeric probe at that sum cannot see the wrong degree
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (1, 1): [-1.0]})
        fs = [vec(1, 2), vec(2, 1), vec(0.5, 0.5)]
        with pytest.raises(ValueError) as info:
            polarize_blackbox(P, fs)
        assert str(info.value) == (
            "polarization of 3 vectors needs degree 3, but the polynomial has degree 2")
        # unchecked, P is polarized as the black box it equals
        Q = Recording(P.degree, P.domain_dim, P.codomain_dim, P.terms)
        Q.calls = []
        assert exact_bytes(polarize_blackbox(P, fs, check_homogeneity=False)) == \
            exact_bytes(polarize_blackbox(Q, fs, check_homogeneity=False))

    def test_sum_beyond_the_float_range_is_inf_without_a_warning(self):
        # x^2 on R^1 at 0.6e154 twice: the form is 3.6e307, but the signed
        # sum 2 * (1.2e154)^2 is beyond the float range
        P = make_diagonal([1.0], 2)
        Q = Recording(P.degree, P.domain_dim, P.codomain_dim, P.terms)
        Q.calls = []
        fs = [vec(0.6e154)] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert polarize_blackbox(P, fs).tolist() == [math.inf]
            assert polarize_blackbox(Q, fs, check_homogeneity=False).tolist() == [math.inf]
            # and where the signed arguments themselves leave the range
            assert polarize_blackbox(P, [vec(1e308)] * 2).tolist() == [math.inf]
            assert polarize_blackbox(Q, [vec(1e308)] * 2,
                                     check_homogeneity=False).tolist() == [math.inf]
            # the black box's value expected at scale 2 is beyond the float
            # range, and where the summed arguments are, the probe cannot be
            # checked: a distinct error, before any call there
            Q.calls = []
            with pytest.raises(ValueError, match="cannot verify the degree-2 homogeneity within "
                               r"the float range: the value at the summed arguments times 2.0\*\*2"):
                polarize_blackbox(Q, fs)
            assert [c[2] for c in Q.calls] == [(1.2e154,)]
            Q.calls = []
            with pytest.raises(ValueError, match="cannot verify the degree-2 homogeneity within "
                               "the float range: the summed arguments are not finite"):
                polarize_blackbox(Q, [vec(1e308)] * 2)
            assert Q.calls == []

    def test_a_scaled_probe_beyond_the_float_range(self):
        # the summed arguments are finite, and so is the value expected at
        # twice them, but twice them is not: the probe cannot be made
        seen = []

        def box(f):
            seen.append(f.entries)
            return [1e-10 * f[0]]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cannot verify the degree-1 homogeneity within "
                               r"the float range: the summed arguments times 2.0 are not finite"):
                polarize_blackbox(box, [vec(1e308)])
        assert seen == [(1e308,)]

    def test_signed_arguments_beyond_the_float_range_are_lattice_vectors(self):
        # every PositiveVector is finite: the all-plus row beyond the range
        # reaches the black box as a LatticeVector holding inf
        seen = []

        def box(f):
            seen.append((type(f), f.entries))
            return [f[0] ** 2]

        fs = [PositiveVector([1e308])] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert polarize_blackbox(box, fs, check_homogeneity=False).tolist() == [math.inf]
        assert seen == [(LatticeVector, (math.inf,)), (LatticeVector, (0.0,)),
                        (LatticeVector, (0.0,)), (LatticeVector, (-math.inf,))]

    def test_a_fraud_fails_the_spot_check_near_the_float_range(self):
        # x^2 + 1e150 x at 0.6e153 twice: its probe, scaled by 2 and 1/2,
        # stays in range, so it fails the spot check itself
        with pytest.raises(ValueError, match="homogeneity spot check at scale 2.0"):
            polarize_blackbox(lambda f: [f[0] ** 2 + f[0] * 1e150], [vec(0.6e153)] * 2)


class TestAdditivityCheck:
    def test_diagonal_passes(self):
        P = make_diagonal([1.5, -2.0, 0.5], 3)
        rep = is_positively_orthogonally_additive(P, trials=64, seed=7, exhaustive=True)
        assert rep.passed and rep.counterexample is None
        assert rep.claim_id == "POA"

    def test_square_of_sum_fails_with_witness(self):
        rep = is_positively_orthogonally_additive(square_of_sum(), trials=64, seed=7,
                                                  exhaustive=True)
        assert not rep.passed
        w = rep.counterexample
        f, g = w["f"], w["g"]
        # witness really is a disjoint positive pair violating additivity
        assert all(a == 0 or b == 0 for a, b in zip(f, g))
        lhs = (f[0] + g[0] + f[1] + g[1]) ** 2
        rhs = (f[0] + f[1]) ** 2 + (g[0] + g[1]) ** 2
        assert abs(lhs - rhs) > 1e-6

    def test_zero_polynomial_passes(self):
        P = make_diagonal([0.0, 0.0], 2)
        rep = is_positively_orthogonally_additive(P, trials=16, seed=0)
        assert rep.passed

    def test_structure_equivalence_exhaustive(self):
        # pass on every bipartition <=> no mixed key, checked by brute force
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            mass = float(rng.choice([0.0, 0.3]))
            P = sparse_polynomial(rng, s, n, 1, mixed_terms=2, mixed_mass=mass)
            rep = is_positively_orthogonally_additive(
                P, trials=2**n, seed=int(rng.integers(10**6)), exhaustive=True
            )
            mixed_keys = [k for k in P.terms if len(set(k)) > 1]
            assert rep.passed == (not mixed_keys)
            assert P.has_mixed_terms == bool(mixed_keys)

    def test_diagonal_additive_for_signed_disjoint_pairs(self):
        # full (sign-mixed) orthogonal additivity of the diagonal family
        rng = np.random.default_rng(9)
        P = make_diagonal([1.0, -0.5, 2.0, 0.25], 3)
        for _ in range(200):
            mask = rng.integers(0, 2, 4).astype(bool)
            f = LatticeVector(np.where(mask, rng.uniform(-3, 3, 4), 0.0))
            g = LatticeVector(np.where(mask, 0.0, rng.uniform(-3, 3, 4)))
            assert np.allclose(P(f + g), P(f) + P(g), rtol=1e-12, atol=1e-12)


class TestJson:
    def test_term_map_round_trip(self):
        P = sparse_polynomial(np.random.default_rng(10), 3, 3, 2,
                              mixed_terms=2, mixed_mass=0.25)
        Q = polynomial_from_json(polynomial_to_json(P))
        assert Q.terms.keys() == P.terms.keys()
        for key in P.terms:
            assert np.allclose(Q.terms[key], P.terms[key], rtol=0, atol=0)

    def test_diagonal_shortcut(self):
        P = polynomial_from_json({"s": 2, "diagonal": [[1.0], [1.0]]})
        assert P(vec(3, 4))[0] == pytest.approx(25.0)

    def test_exact_coefficients(self):
        P = polynomial_from_json(
            {"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": ["1/3"]}]}
        )
        fs = [LatticeVector.exact([3, 0]), LatticeVector.exact([0, 2])]
        # arrangements (0,1) and (1,0): (1/3) * (3*2 + 0*0) = 2 exactly
        assert P.multilinear(*fs)[0] == Fraction(2)

    def test_missing_fields_named(self):
        with pytest.raises(ValueError, match="'s'"):
            polynomial_from_json({"n": 2})
        with pytest.raises(ValueError, match="'terms'"):
            polynomial_from_json({"s": 2, "n": 2, "d": 1})

    @pytest.mark.parametrize("payload, field", [
        ({"s": 2.7, "diagonal": [[1.0], [1.0]]}, "'s'"),
        ({"s": True, "diagonal": [[1.0]]}, "'s'"),
        ({"s": "2", "diagonal": [[1.0]]}, "'s'"),
        ({"s": 2, "n": 2.5, "d": 1, "terms": []}, "'n'"),
        ({"s": 2, "n": 2, "d": False, "terms": []}, "'d'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0.5, 1], "coeff": [1.0]}]}, "'key'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [True, 1], "coeff": [1.0]}]}, "'key'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": 1, "coeff": [1.0]}]}, "'key'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": [True]}]}, "'coeff'"),
    ])
    def test_non_integral_fields_rejected(self, payload, field):
        with pytest.raises(ValueError, match=field):
            polynomial_from_json(payload)

    def test_terms_on_one_multiset_are_summed_in_file_order(self):
        def parse(*keys):
            return polynomial_from_json({"s": 2, "n": 2, "d": 1, "terms": [
                {"key": key, "coeff": [c]} for key, c in zip(keys, (1.0, 2.0, 4.0))]})

        assert parse([0, 1], [0, 1]).coefficient((0, 1))[0] == 3.0
        assert parse([0, 1], [1, 0]).coefficient((0, 1))[0] == 3.0
        assert parse([0, 1], [1, 0], [0, 1]).coefficient((0, 1))[0] == 7.0
        assert parse([0, 1], [0, 1], [1, 1]).terms.keys() == {(0, 1), (1, 1)}

    def test_integral_floats_accepted(self):
        P = polynomial_from_json(
            {"s": 2.0, "n": 2, "d": 1, "terms": [{"key": [0.0, 1], "coeff": [1.0]}]}
        )
        assert P.degree == 2 and list(P.terms) == [(0, 1)]


class TestImmutability:
    def test_terms_cannot_change(self):
        coeff = np.array([1.0])
        Q = HomogeneousPolynomial(2, 2, 1, {(0, 0): coeff})
        with pytest.raises(TypeError):
            Q.terms[(0, 1)] = np.array([1.0])
        with pytest.raises(ValueError):
            Q.terms[(0, 0)][0] = 5.0
        coeff[0] = 5.0  # the caller's array is not shared
        assert Q(vec(1.0, 0.0))[0] == 1.0

    def test_attributes_cannot_change(self):
        # a degree-2 P set to degree 3 passed polarize_blackbox's degree check
        # with three vectors and answered from its compiled degree-2 form
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [1.0]})
        f = vec(1.0, 2.0)
        value = P(f)  # compiles P's TermStack and keeps it on P
        for name in ("degree", "domain_dim", "codomain_dim", "terms"):
            with pytest.raises(AttributeError, match="cannot change after construction"):
                setattr(P, name, 3)
            with pytest.raises(AttributeError, match="cannot change after construction"):
                delattr(P, name)
        assert (P.degree, P.domain_dim, P.codomain_dim, list(P.terms)) == (2, 2, 1, [(0, 0), (0, 1)])
        with pytest.raises(ValueError, match="needs degree 3"):
            polarize_blackbox(P, [f, f, f])
        Q = copy.copy(P)
        assert Q.degree == 2 and Q.terms == P.terms and Q(f).tobytes() == value.tobytes()
        with pytest.raises(AttributeError, match="cannot change after construction"):
            Q.degree = 3

    @pytest.mark.parametrize("exact", [False, True])
    def test_pickle_and_deepcopy_rebuild_the_polynomial(self, exact):
        c = Fraction if exact else (lambda p, q=1: p / q)
        P = HomogeneousPolynomial(2, 3, 2, {(0, 0): [c(3, 2), c(-2)], (2, 0): [c(1, 3), c(3)],
                                            (1, 2): [c(0), c(5, 4)]})
        f, g = vec(1.1, 0.9, -0.3), vec(0.25, 2.0, 1.5)
        value, form = P(f), P.multilinear(f, g)
        for Q in (copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
            assert type(Q) is HomogeneousPolynomial and Q.is_exact == P.is_exact == exact
            assert (Q.degree, Q.domain_dim, Q.codomain_dim) == (2, 3, 2)
            assert list(Q.terms) == list(P.terms) == [(0, 0), (0, 2), (1, 2)]
            for key, coeff in Q.terms.items():
                assert exact_bytes(coeff) == exact_bytes(P.terms[key])
                assert not coeff.flags.writeable and coeff is not P.terms[key]
            assert exact_bytes(Q(f)) == exact_bytes(value)
            assert exact_bytes(Q.multilinear(f, g)) == exact_bytes(form)
            for name in ("degree", "terms"):
                with pytest.raises(AttributeError, match="cannot change after construction"):
                    setattr(Q, name, 3)

    def test_coefficient_returns_a_writable_copy(self):
        Q = make_diagonal([1.0, 2.0], 2)
        c = Q.coefficient((1, 1))
        c[0] = 7.0
        assert Q.coefficient((1, 1))[0] == 2.0


class TestConstruction:
    """The canonical terms come from one array pass, equal to the term by
    term reference in keys, order and bits."""

    @staticmethod
    def check_against_reference(degree, n, d, terms):
        P = HomogeneousPolynomial(degree, n, d, terms)
        expect = reference_terms(degree, n, d, terms)
        assert term_bits(P.terms) == term_bits(expect)
        exact = any(v.dtype == object for v in expect.values())
        assert P.is_exact == exact
        for coeff in P.terms.values():
            assert coeff.dtype == (object if exact else float) and coeff.shape == (d,)
            assert not coeff.flags.writeable
        return P

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(0, 40),
           st.sampled_from(["float", "exact", "mixed"]), st.integers(0, 2**32 - 1))
    def test_random_term_maps_match_the_reference(self, s, n, d, m, kind, seed):
        rng = np.random.default_rng(seed)
        values = [1.0, -1.0, 0.0, -0.0, 0.5, 3.0, 1e16, math.nan]
        terms = {}
        for _ in range(m):
            # few distinct multisets, so that permuted repeats are common
            key = tuple(rng.permutation(rng.integers(0, min(n, 3), s)).tolist())
            row = [values[i] if rng.random() < 0.5 else float(rng.normal())
                   for i in rng.integers(0, len(values), d)]
            if kind == "exact" or (kind == "mixed" and rng.random() < 0.5):
                row = [Fraction(v).limit_denominator(8) if v == v else Fraction(1, 3)
                       for v in row]
                if kind == "mixed":
                    row[0] = float(row[0])  # a row holding a Fraction is all Fractions
            terms[key] = row if rng.random() < 0.5 else np.array(row, dtype=object if any(
                isinstance(v, Fraction) for v in row) else float)
        self.check_against_reference(s, n, d, terms)

    def test_permuted_repeats_are_summed_in_insertion_order(self):
        # 24 permutations of one key at d = 1: numpy's sum of 24 terms would
        # add them pairwise, in 8 partial sums
        values = [1e16] + [1.0] * 23
        keys = list(itertools.permutations(range(4)))
        terms = dict(zip(keys, ([v] for v in values)))
        P = self.check_against_reference(4, 4, 1, terms)
        assert P.terms[(0, 1, 2, 3)][0] == in_order(values) != np.add.reduce(values)

    def test_repeat_that_cancels_is_dropped(self):
        P = self.check_against_reference(2, 3, 2, {(0, 1): [1.0, 2.0], (1, 0): [-1.0, -2.0],
                                                   (2, 2): [0.0, 1.0]})
        assert list(P.terms) == [(2, 2)]
        P = self.check_against_reference(2, 2, 1, {(0, 1): [Fraction(1, 3)],
                                                   (1, 0): [Fraction(-1, 3)], (1, 1): [2.0]})
        assert list(P.terms) == [(1, 1)] and not P.is_exact

    def test_negative_zero_beside_a_nonzero_keeps_its_sign(self):
        P = self.check_against_reference(2, 2, 2, {(1, 0): [-0.0, 1.0], (1, 1): [-0.0, -0.0]})
        assert list(P.terms) == [(0, 1)] and repr(float(P.terms[(0, 1)][0])) == "-0.0"

    def test_nan_row_is_kept(self):
        P = self.check_against_reference(1, 2, 1, {(1,): [math.nan], (0,): [0.0]})
        assert list(P.terms) == [(1,)] and math.isnan(P.terms[(1,)][0])

    @pytest.mark.parametrize("terms", [
        {},
        {(2, 0, 1): [1.0, 2.0, 3.0], (0, 0, 0): [0.0, 0.0, -1.0], (1, 0, 2): [4.0, 5.0, 6.0]},
        {(np.int64(1), np.int32(0), 1): [1.5], (np.intp(0), 0, 0): [2.5]},
        {(0.0, 2.0, 1): [1.0]},
        {(0, 1, 2): 7.0, (1, 1, 1): np.float64(-2.0), (2, 2, 2): np.array(3)},
        {(0, 1, 2): [Fraction(1, 3)], (2, 1, 0): [0.5], (1, 1, 1): [np.int64(4)]},
        {(0, 1, 2): [Fraction(1, 3), 0.25], (0, 0, 0): [1.5, np.float32(0.5)]},
        # a float row plus an exact repeat: a row of floats, exact all the same
        {(0, 1, 2): [1.0], (2, 1, 0): [Fraction(1, 3)], (1, 1, 1): [2.0]},
    ], ids=["empty", "d3", "numpy-int keys", "integral float keys", "scalar rows",
            "exact", "mixed", "exact repeat"])
    def test_special_maps_match_the_reference(self, terms):
        d = len(np.atleast_1d(next(iter(terms.values())))) if terms else 2
        self.check_against_reference(3, 3, d, terms)

    def test_an_exact_polynomial_holds_its_float_rows_as_python_floats(self):
        P = HomogeneousPolynomial(2, 2, 2, {(0, 0): [Fraction(1, 3), 1], (1, 1): [0.5, -0.0]})
        assert P.is_exact
        assert [type(v) for v in P.terms[(0, 0)].tolist()] == [Fraction, Fraction]
        assert [(type(v), repr(v)) for v in P.terms[(1, 1)].tolist()] == [(float, "0.5"),
                                                                         (float, "-0.0")]

    def test_terms_are_read_only_views_of_the_stack_coefficients(self):
        P = sparse_polynomial(np.random.default_rng(4), 3, 4, 2, mixed_terms=3, mixed_mass=0.5)
        stack = TermStack.of(P)
        assert stack.coeffs.shape == (1, len(P.terms), 2) and stack.coeffs.dtype == float
        for i, coeff in enumerate(P.terms.values()):
            assert np.shares_memory(coeff, stack.coeffs)
            assert coeff.tobytes() == stack.coeffs[0, i].tobytes()
        assert not stack.coeffs.flags.writeable
        Q = rational_polynomial(P)
        assert np.shares_memory(next(iter(Q.terms.values())), TermStack.of(Q).coeffs)
        for R in (copy.deepcopy(Q), pickle.loads(pickle.dumps(Q))):
            assert term_bits(R.terms) == term_bits(Q.terms)
            assert np.shares_memory(next(iter(R.terms.values())), TermStack.of(R).coeffs)

    @pytest.mark.parametrize("args, error, message", [
        ((2, 2, 1, {(True, 1): [1.0]}), TypeError, r"key \(True, 1\) must hold ints"),
        ((2, 2, 1, {(np.bool_(False), 1): [1.0]}), TypeError, "must hold ints"),
        ((2, 2, 1, {(0.7, 1): [1.0]}), ValueError, r"key \(0.7, 1\) must hold integers"),
        ((2, 2, 1, {(0, math.nan): [1.0]}), ValueError, "must hold integers"),
        ((2, 2, 1, {(0, -math.inf): [1.0]}), ValueError, "must hold integers"),
        ((2, 2, 1, {(0, "1"): [1.0]}), TypeError, "must hold ints"),
        ((2.0, 2, 1, {(0, 1): [1.0]}), TypeError, "degree must be an int, got float"),
        ((2, 2.5, 1, {(0, 1): [1.0]}), TypeError, "domain_dim must be an int, got float"),
        ((2, 2, True, {(0, 1): [1.0]}), TypeError, "codomain_dim must be an int, got bool"),
        ((2, 2, 1, {(0, 1): ["1.5"]}), TypeError, r"key \(0, 1\) must hold real numbers, got '1.5'"),
        ((2, 2, 1, {(0, 1): [None]}), TypeError, "must hold real numbers, got None"),
        ((2, 2, 1, {(0, 1): [1 + 2j]}), TypeError, r"must hold real numbers, got \(1\+2j\)"),
        ((2, 2, 1, {(0, 1): np.array([1 + 0j])}), TypeError, "must hold real numbers"),
        ((2, 2, 1, {(0, 0): [2.0], (1, 0): [True]}), TypeError,
         r"key \(1, 0\) must hold real numbers, got True"),
        ((2, 2, 2, {(0, 1): [Fraction(1), False]}), TypeError, "got False"),
        ((2, 2, 2, {(0, 1): np.array([1, 0], dtype=bool)}), TypeError, "got True"),
    ])
    def test_input_is_not_coerced(self, args, error, message):
        with pytest.raises(error, match=message):
            HomogeneousPolynomial(*args)

    @pytest.mark.parametrize("args, message", [
        ((2, 2, 2, {(0, 1): [1.0, 2.0], (1, 1): [1.0, 2.0, 3.0]}),
         r"coefficient of key \(1, 1\) must have shape \(2,\), got \(3,\)"),
        ((2, 2, 2, {(0, 1): 1.0}), r"got \(1,\)"),
        ((2, 2, 1, {(0, 1): [[1.0]]}), r"must have shape \(1,\), got \(1, 1\)"),
        ((2, 2, 1, {(0, 1, 1): [1.0]}), r"key \(0, 1, 1\) does not have degree 2"),
        ((2, 2, 1, {(0, 1): [10**400]}), "key \\(0, 1\\) holds an integer beyond the float range"),
        ((2, 2, 1, {(0, 1): [1.0], (1, 2**70): [1.0]}),
         r"key \(1, 1180591620717411303424\) has indices outside 0..1"),
    ])
    def test_errors_name_the_key(self, args, message):
        with pytest.raises(ValueError, match=message):
            HomogeneousPolynomial(*args)

    def test_coefficient_checks_its_key(self):
        P = HomogeneousPolynomial(2, 3, 1, {(0, 2): [1.5]})
        assert P.coefficient((2, 0)).tolist() == [1.5] and P.coefficient([1, 1]).tolist() == [0.0]
        for key, error in [((0, 99), ValueError), ((0, -1), ValueError), ((0, 1, 2), ValueError),
                           ((True, 2), TypeError), ((0.5, 2), ValueError)]:
            with pytest.raises(error, match="key"):
                P.coefficient(key)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_structure_reads_the_key_table(self, s, n, d, exact, seed):
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        if exact:
            P = rational_polynomial(P)
        mixed = [len(set(key)) > 1 for key in P.terms]
        assert P.has_mixed_terms == any(mixed)
        diag = mixed_mass = 0.0
        for key, coeff in P.terms.items():  # the masses key by key
            mass = float(sum(abs(c) for c in coeff))
            if len(set(key)) > 1:
                mixed_mass += mass
            else:
                diag += mass
        got = P.coefficient_masses()
        assert [(type(v), repr(v)) for v in got] == [(float, repr(diag)), (float, repr(mixed_mass))]

    @pytest.mark.parametrize("payload, field", [
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": [None]}]}, "'coeff'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": ["x"]}]}, "'coeff'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": []}]}, "'coeff'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1], "coeff": [10**400]}]}, "'coeff'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": ["0", 1], "coeff": [1.0]}]}, "'key'"),
        ({"s": 2, "n": 2, "d": 1, "terms": [{"key": [0, 1]}]}, "'coeff'"),
        ({"s": 2, "diagonal": [[1.0], [None]]}, "'diagonal'"),
    ])
    def test_json_errors_name_their_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            polynomial_from_json(payload)

    def test_json_terms_match_the_api(self):
        rng = np.random.default_rng(12)
        P = rational_polynomial(sparse_polynomial(rng, 3, 4, 2, mixed_terms=3, mixed_mass=0.5))
        payload = polynomial_to_json(P)
        # a repeat in another order, summed in file order
        payload["terms"].append({"key": payload["terms"][0]["key"][::-1], "coeff": [0.5, "1/7"]})
        Q = polynomial_from_json(payload)
        first = tuple(payload["terms"][0]["key"])
        assert Q.terms[first].tolist() == (P.terms[first] + [Fraction(1, 2), Fraction(1, 7)]).tolist()
        assert term_bits({k: v for k, v in Q.terms.items() if k != first}) == \
            term_bits({k: v for k, v in P.terms.items() if k != first})


class TestTermStack:
    """Stacked evaluation repeats the scalar arithmetic bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.integers(1, 3), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_rows_equal_scalar_evaluation(self, s, n, d, T, seed):
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        X = np.exp(rng.uniform(-5, 5, (T, s, n)))
        for Q, Y in [(P, X), *exact_cases(P, X)]:
            stack = TermStack.of(Q)
            values = stack(Y[:, 0])
            forms = stack.form([Y[:, k] for k in range(s)])
            for t in range(T):
                assert exact_bytes(values[t]) == exact_bytes(reference_eval(Q, Y[t, 0]))
                assert exact_bytes(forms[t]) == exact_bytes(reference_form(Q, list(Y[t])))

    def test_diagonal_stack_rows_are_separate_polynomials(self):
        coeffs = np.array([[[1.0], [2.0]], [[-1.0], [0.5]]])  # (T=2, n=2, d=1)
        stack = TermStack.diagonal(coeffs, 3)
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert stack(X).ravel().tolist() == [1.0 + 2.0 * 8, -27.0 + 0.5]
        assert stack.take(np.array([1]))(X[1:]).ravel().tolist() == [-27.0 + 0.5]

    def test_zero_polynomial(self):
        stack = TermStack.of(HomogeneousPolynomial(2, 2, 3, {}))
        X = np.ones((4, 2))
        assert np.array_equal(stack(X), np.zeros((4, 3)))
        assert np.array_equal(stack.form([X, X]), np.zeros((4, 3)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3), st.integers(2, 9),
           st.integers(1, 24 * 40 * 3), st.integers(0, 2**32 - 1))
    def test_chunked_rows_are_bit_identical(self, s, n, d, T, budget, seed):
        # a small chunk budget splits the rows into chunks of one row and more
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        X = np.exp(rng.uniform(-5, 5, (T, s, n)))
        per_row = TermStack.diagonal(rng.uniform(-2, 2, (T, n, d)), s)
        cases = [(TermStack.of(Q), Y) for Q, Y in [(P, X), *exact_cases(P, X)]]
        cases += [(per_row, X), (per_row.take(np.arange(T)[::-1]), X)]
        for stack, Y in cases:
            slots = [Y[:, k] for k in range(s)]
            whole = stack(Y[:, 0]), stack.form(slots)
            with patch.object(polynomials, "CHUNK_BYTES", budget):
                chunked = stack(Y[:, 0]), stack.form(slots)
            for a, b in zip(whole, chunked):
                assert a.shape == b.shape
                assert [exact_bytes(row) for row in a] == [exact_bytes(row) for row in b]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.sampled_from([1, 3]), st.integers(1, 4),
           st.sampled_from(["dense", "diagonal", "sparse", "empty", "one"]),
           st.integers(0, 2**32 - 1))
    def test_planned_products_are_the_left_to_right_products(self, s, n, d, T, keyset, seed):
        # every table a stack plans: its keys, the arrangements of its keys in
        # key order (a sparse set's equal prefixes fall in separate runs
        # there), and a shuffled copy; at float and at exact slots
        rng = np.random.default_rng(seed)
        dense = list(itertools.combinations_with_replacement(range(n), s))
        keys = {"dense": dense, "diagonal": [(i,) * s for i in range(n)], "empty": [],
                "sparse": [k for k in dense if rng.random() < 0.4],
                "one": [dense[int(rng.integers(len(dense)))]]}[keyset]
        key_table = np.array(keys, dtype=np.intp).reshape(len(keys), s)
        arrangements = np.concatenate([reference_arrangements(k) for k in keys] or
                                      [key_table]).astype(np.int32)
        X = np.exp(rng.uniform(-5, 5, (T, s, n)))
        for table in (key_table, arrangements, rng.permutation(arrangements)):
            plan = polynomials._prefix_plan(table)
            assert [column.dtype for column, _ in plan] == [table.dtype] * s
            shared = True  # one entry per distinct prefix, then one per row
            for k in range(s):
                prefixes = len({tuple(row[:k + 1]) for row in table.tolist()})
                shared = shared and 3 * prefixes < 2 * len(table) and k < s - 1
                if k:  # slot 0 is gathered at level 1's entries
                    assert len(plan[k][0]) == (prefixes if shared else len(table))
            for slots in (list(X.transpose(1, 0, 2)), list(rational(X).transpose(1, 0, 2))):
                # the helper takes key-major slots (n, T) and gives (rows, T)
                planned = polynomials._planned_products([x.T.copy() for x in slots], plan).T
                plain = plain_products(slots, table)
                assert planned.shape == plain.shape == (T, len(table))
                assert planned.dtype == plain.dtype
                assert [exact_bytes(row) for row in planned] == [exact_bytes(row) for row in plain]
        P = HomogeneousPolynomial(s, n, d, dict(zip(keys, rng.uniform(-2, 2, (len(keys), d)))))
        for Q, Y in [(P, X), *exact_cases(P, X)]:
            stack = TermStack.of(Q)
            values, forms = stack(Y[:, 0]), stack.form(list(Y.transpose(1, 0, 2)))
            for t in range(T):
                assert exact_bytes(values[t]) == exact_bytes(reference_eval(Q, Y[t, 0]))
                assert exact_bytes(forms[t]) == exact_bytes(reference_form(Q, list(Y[t])))

    @pytest.mark.parametrize("terms", [
        [-0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 1e16, 1.0, 1.0, -1e16],
        [1.0, -1.0, -0.0], [math.inf, -0.0], [-0.0, math.nan], list(np.linspace(-1, 1, 17)),
    ])
    def test_ordered_sum_is_the_sum_from_zero(self, terms):
        # one entry (R d == 1) and rows of entries (R d > 1) alike: ((0 + t_0)
        # + t_1) + ..., -0.0 terms and cancellations included
        for R, d in ((1, 1), (3, 1), (1, 2)):
            key_major = np.repeat(np.array(terms)[:, None, None], R * d, axis=1).reshape(-1, R, d)
            key_major[:, 1:] *= 3.0  # a row or entry of its own
            sums = polynomials.ordered_sum(key_major.copy())
            expect = np.array([[in_order(key_major[:, r, e]) for e in range(d)] for r in range(R)])
            assert sums.shape == (R, d) and sums.tobytes() == expect.tobytes()
        for empty in (np.empty((0, 2, 1)), np.empty((3, 0, 1))):
            assert polynomials.ordered_sum(empty).shape == empty.shape[1:]

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_keys_without_a_shared_prefix_take_no_parent_gathers(self, s):
        # the diagonal keys (i, .., i): each level gathers its slot at 0..n-1
        # and multiplies, as a plain product does, with no gather of a parent
        coeffs = np.ones((3, 5, 2))
        P = make_diagonal(coeffs[0], s)
        arrangement_plan, _ = TermStack.of(P)._arrangement_layout()
        for plan in (TermStack.diagonal(coeffs, s)._plan, TermStack.of(P)._plan,
                     arrangement_plan):
            assert len(plan) == s
            assert all(parent is None for _, parent in plan)
            assert all(column.tolist() == list(range(5)) for column, _ in plan)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4),
           st.sampled_from(["dense", "diagonal", "sparse", "empty"]), st.integers(0, 2**32 - 1))
    def test_key_tables_match_the_reference(self, s, n, keyset, seed):
        # the arrangement table, its order and dtype, the exact multinomials
        # and the groups by count, from the sorted key table alone
        rng = np.random.default_rng(seed)
        dense = list(itertools.combinations_with_replacement(range(n), s))
        keys = {"dense": dense, "diagonal": [(i,) * s for i in range(n)], "empty": [],
                "sparse": [k for k in dense if rng.random() < 0.4]}[keyset]
        table = np.array(keys, dtype=np.intp).reshape(len(keys), s)
        arrangements = polynomials._arrangement_table(table)
        expect = [reference_arrangements(k) for k in keys]
        assert arrangements.dtype == np.int32
        assert arrangements.shape == (sum(map(len, expect)), s)
        assert arrangements.tolist() == np.concatenate(expect or [table]).tolist()
        counts = polynomials._multinomials(table).tolist()
        assert counts == [reference_multinomial(k) for k in keys]
        assert all(type(c) is int for c in counts)
        P = HomogeneousPolynomial(s, n, 1, {k: [1.0] for k in keys})
        _, groups = TermStack.of(P)._arrangement_layout()
        order = sorted(range(len(keys)), key=counts.__getitem__)
        assert np.concatenate([pos for pos, _, _ in groups] or [[]]).tolist() == order
        rows = 0
        for positions, count, span in groups:
            assert {counts[i] for i in positions} == {count}
            assert span == slice(rows, rows + count * len(positions))
            rows = span.stop
        assert rows == len(arrangements)

    # dense key sets whose groups have 1 to 7 arrangements a key, and 8
    # (the key (0^7, 1)) and more
    ARRANGEMENT_CASES = [(2, 3), (3, 3), (4, 3), (5, 2), (6, 3), (7, 2), (8, 3)]

    def test_arrangement_layout_is_the_key_tables_rows_reordered(self):
        # every group holds its keys' arrangements arrangement-major, and
        # every distinct arrangement of every key comes once
        counts = set()
        for s, n in self.ARRANGEMENT_CASES:
            keys = list(itertools.combinations_with_replacement(range(n), s))
            stack = TermStack.of(HomogeneousPolynomial(s, n, 1, {k: [1.0] for k in keys}))
            _, groups = stack._arrangement_layout()
            table = layout_table(stack, n)
            for positions, count, span in groups:
                arrangements = np.stack([reference_arrangements(keys[i]) for i in positions],
                                        axis=1)
                assert table[span].tolist() == arrangements.reshape(-1, s).tolist()
                counts.add(count)
            key_major = np.concatenate([reference_arrangements(k) for k in keys])
            assert sorted(map(tuple, table.tolist())) == sorted(map(tuple, key_major.tolist()))
        assert set(range(1, 9)) <= counts and max(counts) > 8

    @pytest.mark.parametrize("s, n", ARRANGEMENT_CASES)
    @pytest.mark.parametrize("R", [1, 3])
    @pytest.mark.parametrize("kind", ["float", "exact"])
    def test_arrangement_sums_are_ordered_sums_of_each_keys_products(self, s, n, R, kind):
        # each key's sum adds its products in arrangement order from zero (a
        # key of one arrangement keeps its product), byte for byte: products
        # of far apart magnitudes, whose sum depends on the order, and -0.0,
        # ±inf and NaN among them
        keys = list(itertools.combinations_with_replacement(range(n), s))
        stack = TermStack.of(HomogeneousPolynomial(s, n, 1, {k: [1.0] for k in keys}))
        _, groups = stack._arrangement_layout()
        rows = groups[-1][2].stop
        rng = np.random.default_rng(s * n * R)
        products = rng.standard_normal((rows, R)) * 10.0 ** rng.integers(-3, 4, (rows, R))
        if kind == "float":
            special = rng.random((rows, R))
            products[special < 0.15] = -0.0
            products[(special > 0.95) & (special < 0.97)] = math.inf
            products[special > 0.99] = -math.inf
            with np.errstate(invalid="ignore"):  # the NaN that inf * 0 gives
                products[(special > 0.97) & (special < 0.99)] = np.array(math.inf) * 0.0
        else:
            products = rational(products)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = polynomials._arrangement_sums(products.copy(), groups, len(keys))
        assert sums.shape == (len(keys), R) and sums.dtype == products.dtype
        for positions, count, span in groups:
            for i, key in enumerate(positions):
                key_rows = span.start + i + len(positions) * np.arange(count)  # arrangement-major
                for r in range(R):
                    column = np.array(products[key_rows, r])
                    with np.errstate(over="ignore", invalid="ignore"):
                        total = column[0] if count == 1 else in_order(column)
                    expect = np.array([total], column.dtype)
                    assert exact_bytes(sums[key, r:r + 1]) == exact_bytes(expect)

    def test_form_table_is_bounded_before_it_is_built(self):
        # a key over 12 distinct indices has 12! arrangements: the form
        # refuses it at once, naming the count, while P(f) needs no table
        P = HomogeneousPolynomial(12, 12, 1, {tuple(range(12)): [1.0]})
        ones = PositiveVector(np.ones(12))
        with pytest.raises(ValueError, match="479001600 arrangements"):
            P.multilinear(*[ones] * 12)
        assert P(ones).tolist() == [479001600.0]

    def test_form_table_build_is_refused_at_once(self):
        # the key (0^61, 1, 2, 3) has 64 * 63 * 62 = 249984 arrangements:
        # 4 MB of buffers for one row, within the bound, but its table of 64
        # slots would take hundreds of MB to build
        P = HomogeneousPolynomial(64, 4, 1, {(0,) * 61 + (1, 2, 3): [1.0]})
        ones = PositiveVector(np.ones(4))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="249984 arrangements .* bytes to build it"):
                P.multilinear(*[ones] * 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("terms", [
        pytest.param(lambda: {k: [1.0] for k in itertools.combinations_with_replacement(range(100), 2)},
                     id="dense (2, 100)"),
        pytest.param(lambda: {k: [1.0] for k in itertools.combinations_with_replacement(range(8), 4)},
                     id="dense (4, 8)"),
        pytest.param(lambda: {(i,) * 7: [1.0] for i in range(4000)}, id="diagonal (7, 4000)"),
        pytest.param(lambda: {tuple(range(7)): [1.0]}, id="distinct (7)"),
        pytest.param(lambda: {(0,) * 40 + (1, 2): [1.0]}, id="long run (0^40, 1, 2)"),
    ])
    def test_form_table_build_keeps_to_its_count(self, terms):
        terms = terms()
        s, n = len(next(iter(terms))), 1 + max(max(key) for key in terms)
        stack = TermStack.of(HomogeneousPolynomial(s, n, 1, terms))
        rows = int(stack._multinomials.sum())
        tracemalloc.start()
        try:
            stack._arrangement_layout()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= polynomials._table_bytes(rows, len(terms), s)

    def test_long_run_key_form_takes_its_arrangements_only(self):
        # the key (0^11, 1) has 12 arrangements, not 12! orderings: its form
        # is sum_j prod_{k != j} f_k[0] * f_j[1]
        s = 12
        P = HomogeneousPolynomial(s, 2, 1, {(0,) * (s - 1) + (1,): [Fraction(3)]})
        fs = [LatticeVector.exact([Fraction(k + 1), Fraction(1, k + 2)]) for k in range(s)]
        start = time.perf_counter()
        value = P.multilinear(*fs)
        assert time.perf_counter() - start < 1.0
        expect = sum(math.prod(f[0] for k, f in enumerate(fs) if k != j) * fs[j][1]
                     for j in range(s))
        assert value.tolist() == [3 * expect]

    def test_values_do_not_hold_the_accumulation_buffer(self):
        # 512 rows of the dense (4, 12) polynomial, 1365 keys, go in one chunk;
        # their 4 KB of values must not keep the (512, 1365, 1) buffer of
        # terms that they were accumulated in, nor one P(f) its (1, 1365, 1)
        rng = np.random.default_rng(5)
        keys = list(itertools.combinations_with_replacement(range(12), 4))
        P = HomogeneousPolynomial(4, 12, 1, dict(zip(keys, rng.uniform(0.1, 2.0, (len(keys), 1)))))
        stack = TermStack.of(P)
        X = rng.uniform(0.5, 2.0, (512, 12))
        f = PositiveVector(X[0])
        P(f)  # compiles P
        for evaluate in (lambda: stack(X), lambda: P(f)):
            tracemalloc.start()
            try:
                values = evaluate()
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept <= values.nbytes + (4 << 10)

    def test_memory_keeps_to_the_budget(self):
        # the dense (4, 12) polynomial: 1365 keys, 20736 arrangements, whose
        # slot products take about 200 MB for 1024 rows at once
        rng = np.random.default_rng(5)
        keys = list(itertools.combinations_with_replacement(range(12), 4))
        P = HomogeneousPolynomial(4, 12, 1, dict(zip(keys, rng.uniform(0.1, 2.0, (len(keys), 1)))))
        stack = TermStack.of(P)
        X = rng.uniform(0.5, 2.0, (2048, 4, 12))
        slots = [X[:1024, k] for k in range(4)]
        stack.form([x[:1] for x in slots])  # builds the arrangement tables
        for evaluate in (lambda: stack.form(slots), lambda: stack(X[:, 0])):
            tracemalloc.start()
            try:
                values = evaluate()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # slack: the values and the chunks' bookkeeping
            assert peak <= polynomials.STACK_BYTES + (1 << 20)
            # no chunk's buffers outlive the call
            assert kept <= values.nbytes + (64 << 10)
            if len(values) == 1024:
                rows = [stack.form([x[t:t + 1] for x in slots]) for t in range(1024)]
            else:
                rows = [stack(X[t:t + 1, 0]) for t in range(2048)]
            assert np.concatenate(rows).tobytes() == values.tobytes()
