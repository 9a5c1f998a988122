"""Polynomials: evaluation conventions, polarization, additivity structure."""

import itertools
import math
from collections import Counter
from fractions import Fraction

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
from oapoly.lattice import DimensionMismatchError
from oapoly.polynomials import TermStack
from oapoly.sampling import sparse_polynomial


def vec(*entries):
    return LatticeVector(entries)


def reference_eval(P, x):
    """P(x) key by key, as the scalar evaluator computes it: the multinomial
    weight times np.prod of the key's entries, accumulated from zero."""
    out = np.zeros(P.codomain_dim)
    for key, coeff in P.terms.items():
        weight = math.factorial(len(key))
        for c in Counter(key).values():
            weight //= math.factorial(c)
        out = out + coeff * (weight * np.prod(x[np.array(key, dtype=np.intp)]))
    return out


def random_polynomial(rng, s, n, d):
    if s > 1 and n > 1:
        return sparse_polynomial(rng, s, n, d, mixed_terms=4, mixed_mass=0.5)
    return make_diagonal(rng.uniform(-2, 2, (n, d)), s)


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

    def test_homogeneity_spot_check_rejects_frauds(self):
        with pytest.raises(ValueError):
            polarize_blackbox(lambda f: [f[0] ** 2 + 1.0], [vec(1, 2), vec(3, 4)])


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
        stack = TermStack.of(P)
        values = stack(X[:, 0])
        forms = stack.form([X[:, k] for k in range(s)])
        for t in range(T):
            fs = [PositiveVector(X[t, k]) for k in range(s)]
            assert np.array_equal(values[t], reference_eval(P, X[t, 0]))
            assert np.array_equal(forms[t], P.multilinear(*fs))

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
