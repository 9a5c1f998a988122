"""Polynomials: evaluation conventions, polarization, additivity structure."""

import functools
import hashlib
import itertools
import math
import tracemalloc
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


def reference_form(P, xs):
    """The symmetric form at the arrays xs key by key: np.prod over the slots
    of each distinct arrangement, numpy's sum over the key's arrangements,
    accumulated over keys from a zero of the matching dtype."""
    X = np.stack(xs)
    rows = np.arange(P.degree)[None, :]
    out = zero_like(P, X)
    for key, coeff in P.terms.items():
        arrangements = np.array(sorted(set(itertools.permutations(key))), dtype=np.intp)
        out = out + coeff * X[rows, arrangements].prod(axis=1).sum()
    return out


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
        ([[1.0, 2.0], vec(1, 2)], True, TypeError,
         'can only concatenate list (not "LatticeVector") to list'),
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

    def test_coefficient_returns_a_writable_copy(self):
        Q = make_diagonal([1.0, 2.0], 2)
        c = Q.coefficient((1, 1))
        c[0] = 7.0
        assert Q.coefficient((1, 1))[0] == 2.0


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
        # a small budget splits the rows into chunks of one row and more
        rng = np.random.default_rng(seed)
        P = random_polynomial(rng, s, n, d)
        X = np.exp(rng.uniform(-5, 5, (T, s, n)))
        per_row = TermStack.diagonal(rng.uniform(-2, 2, (T, n, d)), s)
        cases = [(TermStack.of(Q), Y) for Q, Y in [(P, X), *exact_cases(P, X)]]
        cases += [(per_row, X), (per_row.take(np.arange(T)[::-1]), X)]
        for stack, Y in cases:
            slots = [Y[:, k] for k in range(s)]
            whole = stack(Y[:, 0]), stack.form(slots)
            with patch.object(polynomials, "STACK_BYTES", budget):
                chunked = stack(Y[:, 0]), stack.form(slots)
            for a, b in zip(whole, chunked):
                assert a.shape == b.shape
                assert [exact_bytes(row) for row in a] == [exact_bytes(row) for row in b]

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
