"""Identity checks and falsification, including exact-rational replication."""

import hashlib
import json
import math
import warnings
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oapoly import (
    CompletePartition,
    HomogeneousPolynomial,
    LatticeVector,
    PositiveVector,
    PreconditionError,
    check_cross_terms,
    check_eta_disjoint,
    check_geos_lemma,
    check_gm,
    check_hm_identity,
    check_rmp,
    check_schur_bounds,
    check_wgm_identity,
    enumerate_complete,
    falsify,
    geometric_mean,
    harmonic_mean,
    is_positively_orthogonally_additive,
    make_diagonal,
    residual,
    root_mean_power,
    verify_all,
    verify_claim,
    weighted_geometric_mean,
    weights,
)
from oapoly import polynomials, theorems
from oapoly.lattice import DimensionMismatchError, is_disjoint
from oapoly.reports import DEFAULT_TOLERANCES, ToleranceConfig, VerificationReport, row_residuals
from oapoly.sampling import (
    diagonal_polynomial,
    disjoint_pair,
    positive_tuple,
    sparse_polynomial,
    tuple_with_disjoint_pair,
)


def pv(*entries):
    return PositiveVector(entries)


def square_of_sum():
    return HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [1.0], (1, 1): [1.0]})


class TestRmp:
    def test_pythagorean_case(self):
        P = make_diagonal([1.0], 2)
        rep = check_rmp(P, [pv(3.0), pv(4.0)])
        assert rep.passed and rep.max_residual <= 1e-15

    def test_all_zero(self):
        P = make_diagonal([1.0, 2.0], 3)
        rep = check_rmp(P, [pv(0, 0), pv(0, 0)])
        assert rep.passed

    def test_random_diagonal(self):
        rng = np.random.default_rng(0)
        P = make_diagonal([1.0, 2.0], 3)
        for _ in range(50):
            rep = check_rmp(P, positive_tuple(rng, int(rng.integers(2, 5)), 2))
            assert rep.passed, rep

    def test_needs_two_vectors(self):
        with pytest.raises(PreconditionError):
            check_rmp(make_diagonal([1.0], 2), [pv(1.0)])


class TestGm:
    def test_two_args(self):
        P = make_diagonal([1.0], 2)
        rep = check_gm(P, [pv(1.0), pv(9.0)])
        assert rep.passed  # both sides 9

    def test_diagonal_restriction(self):
        P = make_diagonal([1.0, -2.0], 3)
        f = pv(0.7, 2.5)
        rep = check_gm(P, [f, f, f])
        assert rep.passed

    def test_spec_example_pairs(self):
        P = make_diagonal([1.0, 1.0], 2)
        # oracle: (sqrt(1*4))^2 + (sqrt(2*8))^2 = 4 + 16 = 20 on both sides
        rep = check_gm(P, [pv(1, 2), pv(4, 8)])
        assert rep.passed
        lhs = P(PositiveVector([math.sqrt(1 * 4), math.sqrt(2 * 8)]))
        assert lhs[0] == pytest.approx(20.0, rel=1e-12)


class TestSchur:
    def test_basic(self):
        rep = check_schur_bounds([pv(1.0), pv(3.0)])
        assert rep.passed
        # oracle values: min 1, harmonic 1.5, s*min 2
        assert 1.0 <= 1.5 <= 2.0

    def test_all_equal(self):
        f = pv(0.25, 9.0)
        for s in (1, 2, 5):
            rep = check_schur_bounds([f] * s)
            assert rep.passed, rep

    def test_disjoint_pair_hits_lower_bound(self):
        rep = check_schur_bounds([pv(1, 0), pv(0, 1)])
        assert rep.passed

    def test_exact_rational_zero_slack(self):
        fs = [
            PositiveVector.exact([Fraction(3, 7), Fraction(1, 2)]),
            PositiveVector.exact([Fraction(5, 3), Fraction(1, 9)]),
            PositiveVector.exact([Fraction(2, 1), Fraction(4, 5)]),
        ]
        rep = check_schur_bounds(fs)
        assert rep.passed and rep.max_residual == 0.0 and rep.tolerance == 0.0


class TestEtaDisjoint:
    def test_unit_pair(self):
        rep = check_eta_disjoint([pv(1, 0), pv(0, 1)])
        assert rep.passed and rep.max_residual == 0.0

    def test_three_vectors_coordinatewise_zero(self):
        rep = check_eta_disjoint([pv(1, 0, 2), pv(0, 3, 0), pv(5, 5, 5)])
        assert rep.passed

    def test_zero_vectors(self):
        rep = check_eta_disjoint([pv(0, 0), pv(0, 0)])
        assert rep.passed

    def test_precondition_reported(self):
        with pytest.raises(PreconditionError):
            check_eta_disjoint([pv(1, 1), pv(1, 2)])


class TestHmIdentity:
    def test_worked_two_arg_case(self):
        # independent scalar oracle for the worked case
        f1, f2 = (1.0, 2.0), (3.0, 6.0)
        eta = tuple(2 / (1 / a + 1 / b) for a, b in zip(f1, f2))
        assert eta == (1.5, 3.0)
        pair = lambda u, v: sum(x * y for x, y in zip(u, v))
        rhs = 0.5 * (pair(eta, f2) + pair(f1, eta))
        assert rhs == pytest.approx(pair(f1, f2), rel=1e-15)  # 15 both sides

        P = make_diagonal([1.0, 1.0], 2)
        rep = check_hm_identity(P, [pv(*f1), pv(*f2)])
        assert rep.passed and rep.max_residual <= 1e-12

    def test_fixed_point_tuple(self):
        P = make_diagonal([2.0, -1.0, 0.5], 4)
        f = pv(0.25, 3.0, 11.0)
        rep = check_hm_identity(P, [f, f, f, f])
        assert rep.passed

    def test_scalar_three_arg_case(self):
        # oracle: eta(1,2,4) = 12/7; leave-one-out product sum 8+4+2 = 14;
        # (12/7)*14 = 24 = 3*8
        P = make_diagonal([1.0], 3)
        rep = check_hm_identity(P, [pv(1.0), pv(2.0), pv(4.0)])
        assert rep.passed
        assert (12 / 7) * 14 == pytest.approx(3 * 8, rel=1e-15)

    def test_exact_rational_replication(self):
        P = HomogeneousPolynomial(
            2, 2, 1, {(0, 0): [Fraction(1)], (1, 1): [Fraction(1)]}
        )
        fs = [PositiveVector.exact([1, 2]), PositiveVector.exact([3, 6])]
        rep = check_hm_identity(P, fs)
        assert rep.passed and rep.max_residual == 0.0

    def test_degree_one_rejected(self):
        with pytest.raises(PreconditionError):
            check_hm_identity(make_diagonal([1.0], 1), [pv(1.0)])

    def test_non_additive_polynomial_fails(self):
        rep = check_hm_identity(square_of_sum(), [pv(1, 0), pv(0, 1)])
        assert not rep.passed and rep.counterexample is not None


class TestGeosLemma:
    def test_even_pair_is_plain_geometric_mean(self):
        cp = CompletePartition((1, 1), 2)
        rep = check_geos_lemma(cp, [pv(2.0, 5.0), pv(8.0, 0.2)])
        assert rep.passed

    def test_sixteen_one_one(self):
        cp = CompletePartition((2, 1, 1), 4)
        rep = check_geos_lemma(cp, [pv(16.0), pv(1.0), pv(1.0)])
        assert rep.passed
        # oracle: 16^(1/2)*1*1 = 4 = (16*16*1*1)^(1/4)
        assert (16 * 16 * 1 * 1) ** 0.25 == pytest.approx(16 ** 0.5, rel=1e-15)

    def test_every_partition_of_six(self):
        rng = np.random.default_rng(1)
        from oapoly import enumerate_complete

        for parts in enumerate_complete(6):
            cp = CompletePartition(parts, 6)
            rep = check_geos_lemma(cp, positive_tuple(rng, len(parts), 3))
            assert rep.passed and rep.max_residual <= 1e-12


class TestWgmIdentity:
    def test_reduces_to_gm(self):
        P = make_diagonal([1.0], 2)
        cp = CompletePartition((1, 1), 2)
        rep = check_wgm_identity(P, cp, [pv(1.0), pv(9.0)])
        assert rep.passed

    def test_fixed_point(self):
        P = make_diagonal([1.0, 1.0], 4)
        cp = CompletePartition((2, 1, 1), 4)
        f = pv(0.5, 7.0)
        rep = check_wgm_identity(P, cp, [f, f, f])
        assert rep.passed

    def test_spec_example(self):
        # oracle: coordinatewise c_i * f1_i^2 * f2_i * f3_i on both sides
        P = make_diagonal([1.0, 1.0], 4)
        cp = CompletePartition((2, 1, 1), 4)
        f1, f2, f3 = pv(2, 1), pv(1, 3), pv(4, 1)
        expected = (2**2) * 1 * 4 + (1**2) * 3 * 1
        rep = check_wgm_identity(P, cp, [f1, f2, f3])
        assert rep.passed
        assert P.multilinear(f1, f1, f2, f3)[0] == pytest.approx(expected, rel=1e-12)

    def test_degree_mismatch_rejected(self):
        P = make_diagonal([1.0], 3)
        cp = CompletePartition((1, 1), 2)
        with pytest.raises(PreconditionError):
            check_wgm_identity(P, cp, [pv(1.0), pv(1.0)])


class TestCrossTerms:
    def test_diagonal_splits(self):
        P = make_diagonal([1.0, 1.0], 2)
        rep = check_cross_terms(P, pv(1, 0), pv(0, 2))
        assert rep.passed and rep.max_residual == 0.0

    def test_square_of_sum_fails(self):
        rep = check_cross_terms(square_of_sum(), pv(1, 0), pv(0, 1))
        assert not rep.passed
        assert rep.max_residual == pytest.approx(1.0)  # the (0,1) tensor entry

    def test_zero_second_argument(self):
        P = make_diagonal([1.0, -1.0, 2.0], 3)
        rep = check_cross_terms(P, pv(1, 2, 3), pv(0, 0, 0))
        assert rep.passed

    def test_needs_disjoint_pair(self):
        with pytest.raises(PreconditionError):
            check_cross_terms(square_of_sum(), pv(1, 1), pv(1, 0))

    def test_binomial_reconstruction_for_mixed_polynomials(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            P = sparse_polynomial(rng, 3, 4, 1, mixed_terms=2, mixed_mass=0.4)
            mask = rng.integers(0, 2, 4).astype(bool)
            f = PositiveVector(np.where(mask, rng.uniform(0.1, 3, 4), 0.0))
            g = PositiveVector(np.where(mask, 0.0, rng.uniform(0.1, 3, 4)))
            rep = check_cross_terms(P, f, g)
            # reconstruction always holds; only the mixed bound may fail
            assert rep.passed or rep.counterexample["binomial_residual"] <= 1e-9


class TestFalsify:
    def test_square_of_sum_wgm_unit_witness(self):
        rep = falsify(square_of_sum(), "WGM", budget=1000, seed=5)
        assert rep.kind == "falsify" and rep.passed and not rep.inconclusive
        w = rep.counterexample
        assert w["source"] == "structured"
        assert w["residual"] == pytest.approx(1.0)

    def test_square_of_sum_hm_unit_witness(self):
        rep = falsify(square_of_sum(), "HM", budget=1000, seed=5)
        assert rep.passed
        assert rep.counterexample["residual"] == pytest.approx(1.0)

    def test_diagonal_raises_precondition(self):
        with pytest.raises(PreconditionError):
            falsify(make_diagonal([1.0, 2.0], 2), "HM", budget=100, seed=0)

    def test_structured_family_catches_pair_mixed_terms(self):
        # nonzero (i, j) mixed key: the two-coordinate family must witness
        rng = np.random.default_rng(6)
        for s in (2, 3, 4):
            P = HomogeneousPolynomial(
                s, 3, 1, {(0,) * s: [1.0], (1,) * s: [0.5], (0,) * (s - 1) + (2,): [0.3]}
            )
            for claim in ("HM", "WGM", "GM", "RMP", "CROSS_TERMS"):
                rep = falsify(P, claim, budget=2000, seed=int(rng.integers(10**6)))
                assert rep.passed, (s, claim)
                assert rep.counterexample["source"] == "structured", (s, claim)

    def test_three_index_mixed_term_found_by_random_search(self):
        # key {0,1,2} is invisible to two-coordinate inputs; random sampling finds it
        P = HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]})
        rep = falsify(P, "HM", budget=5000, seed=1)
        assert rep.passed
        assert rep.counterexample["source"] == "random"

    def test_inconclusive_on_tiny_budget(self):
        P = HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]})
        rep = falsify(P, "HM", budget=2, seed=1)
        assert not rep.passed and rep.inconclusive
        assert rep.trials == 2

    def test_unsupported_claim(self):
        with pytest.raises(ValueError):
            falsify(square_of_sum(), "SCHUR", budget=10, seed=0)


class TestSweeps:
    def test_equivalence_triangle_gm_vs_all_ones_wgm(self):
        rng = np.random.default_rng(7)
        for s in (2, 3, 4):
            P = diagonal_polynomial(rng, s, 3, 2)
            cp = CompletePartition((1,) * s, s)
            for _ in range(25):
                fs = positive_tuple(rng, s, 3)
                gm_rep = check_gm(P, fs)
                wgm_rep = check_wgm_identity(P, cp, fs)
                assert gm_rep.passed and wgm_rep.passed

    def test_verify_claim_deterministic(self):
        a = verify_claim("HM", s=3, n=3, trials=25, seed=42)
        b = verify_claim("HM", s=3, n=3, trials=25, seed=42)
        assert a == b
        assert a.passed and a.trials == 25

    def test_verify_all_passes(self):
        reports = verify_all(s=3, n=4, d=2, trials=20, seed=11)
        assert [r.claim_id for r in reports] == [
            "RMP", "GM", "SCHUR", "ORTHO", "HM", "GEOS", "WGM", "CROSS_TERMS",
        ]
        assert all(r.passed for r in reports)

    def test_user_poly_failure_detected(self):
        rep = verify_claim("HM", s=2, n=2, trials=10, seed=3, poly=square_of_sum())
        assert not rep.passed and rep.counterexample is not None


class TestExactReplication:
    """Rational-valued worked examples re-derived with Fractions, zero residual."""

    def test_schur_one_three(self):
        fs = [PositiveVector.exact([1]), PositiveVector.exact([3])]
        rep = check_schur_bounds(fs)
        assert rep.passed and rep.max_residual == 0.0
        # min 1 <= 3/2 <= 2 = s*min, exactly
        from oapoly import harmonic_mean

        assert harmonic_mean(fs).entries == (Fraction(3, 2),)

    def test_eta_disjoint_three_vectors(self):
        fs = [
            PositiveVector.exact([1, 0, 2]),
            PositiveVector.exact([0, 3, 0]),
            PositiveVector.exact([5, 5, 5]),
        ]
        rep = check_eta_disjoint(fs)
        assert rep.passed and rep.max_residual == 0.0

    def test_hm_identity_scalar_one_two_four(self):
        P = HomogeneousPolynomial(3, 1, 1, {(0, 0, 0): [Fraction(1)]})
        fs = [PositiveVector.exact([x]) for x in (1, 2, 4)]
        rep = check_hm_identity(P, fs)
        assert rep.passed and rep.max_residual == 0.0
        # both sides equal 24 = 3 * 8: (12/7) * (8+4+2) = 24 exactly
        assert Fraction(12, 7) * (8 + 4 + 2) == 24

    def test_cross_terms_diagonal(self):
        P = HomogeneousPolynomial(
            2, 2, 1, {(0, 0): [Fraction(1)], (1, 1): [Fraction(1)]}
        )
        rep = check_cross_terms(
            P, PositiveVector.exact([1, 0]), PositiveVector.exact([0, 2])
        )
        assert rep.passed and rep.max_residual == 0.0

    def test_falsify_worked_case_sides_exact(self):
        # P(f) = (f_1 + f_2)^2 on the unit disjoint pair: the substitution
        # identity's sides are 2 * form(f, g) = 2 and 0, exactly
        P = HomogeneousPolynomial(
            2, 2, 1,
            {(0, 0): [Fraction(1)], (0, 1): [Fraction(1)], (1, 1): [Fraction(1)]},
        )
        f = PositiveVector.exact([1, 0])
        g = PositiveVector.exact([0, 1])
        from oapoly import harmonic_mean

        eta = harmonic_mean([f, g])
        assert eta.entries == (Fraction(0), Fraction(0))
        lhs = P.multilinear(f, g) * 2
        rhs = P.multilinear(eta, g) + P.multilinear(f, eta)
        assert lhs[0] == Fraction(2) and rhs[0] == Fraction(0)
        rep = check_hm_identity(P, [f, g])
        assert not rep.passed and rep.max_residual == 1.0


class TestReportInvariants:
    def test_check_invariant_enforced(self):
        with pytest.raises(ValueError):
            VerificationReport("HM", 1, 0.5, 1e-9, passed=True)
        with pytest.raises(ValueError):
            VerificationReport("HM", 1, 0.0, 1e-9, passed=False)

    def test_falsify_needs_witness_to_pass(self):
        with pytest.raises(ValueError):
            VerificationReport("HM", 1, 2.0, 1e-6, passed=True, kind="falsify")

    def test_round_trip_to_dict(self):
        rep = check_schur_bounds([pv(1.0), pv(3.0)])
        payload = rep.to_dict()
        assert payload["claim_id"] == "SCHUR" and payload["passed"] is True


class TestNonFinite:
    """A side that overflows or is NaN fails its check with residual inf."""

    def test_residual_sees_nan_past_the_first_component(self):
        assert residual([1.0, float("nan")], [1.0, 1.0]) == math.inf
        assert residual([float("inf")], [float("inf")]) == math.inf
        assert residual([1.0, 2.0], [1.0, 2.0]) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.integers(0, 11),
    )
    def test_residual_policy(self, xs, ys, bad, where):
        k = min(len(xs), len(ys))
        lhs, rhs = np.array(xs[:k]), np.array(ys[:k])
        expect = 0.0
        for a, b in zip(lhs, rhs):
            scale = max(abs(a), abs(b))
            expect = max(expect, abs(a - b) / scale if scale > 1.0 else abs(a - b))
        assert residual(lhs, rhs) == expect
        side = lhs if where % 2 else rhs
        side[(where // 2) % k] = bad
        assert residual(lhs, rhs) == math.inf

    @pytest.mark.parametrize("check", [check_rmp, check_gm, check_hm_identity])
    def test_overflowing_polynomial_fails(self, check):
        # P(f) overflows to inf in the second codomain component on both sides
        P = make_diagonal([[1.0, 1.0], [1.0, 1e300]], 2)
        rep = check(P, [pv(1.0, 1e10), pv(2.0, 1e10)])
        assert not rep.passed and rep.max_residual == math.inf
        assert rep.counterexample["nonfinite"] is True
        payload = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
        assert payload["max_residual"] == "inf"
        assert payload["counterexample"]["lhs"][1] == "inf"

    @pytest.mark.parametrize("lhs, rhs", [
        ([math.inf], [math.inf]),
        ([math.inf, 1.0], [1.0, 1.0]),
        ([1.0, -math.inf], [1.0, -math.inf]),
    ])
    def test_residual_is_silent_on_non_finite_sides(self, lhs, rhs):
        # inf - inf and inf / inf are handled on purpose, so they must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert residual(lhs, rhs) == math.inf
            assert list(row_residuals(np.array([lhs]), np.array([rhs]))) == [math.inf]

    def test_finite_sides_whose_difference_overflows(self):
        # 1e308 - (-1e308) overflows; the relative residual is |1 - (-1)| = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert residual([1e308], [-1e308]) == 2.0
            lhs = np.array([[1e308, 1.0], [0.5, 1.0], [-1.7e308, math.nan]])
            rhs = np.array([[-1.5e308, 1.0], [0.25, 1.0], [1.7e308, 1.0]])
            assert list(row_residuals(lhs, rhs)) == [1e308 / 1.5e308 + 1.0, 0.25, math.inf]
            # below the switch the residual is absolute, and that difference is beyond float
            assert residual([1e308], [-1e308], switch=1e309) == math.inf

    def test_exact_coefficients_overflowing_at_float_vectors(self):
        # exact coefficients at float vectors give object sides holding floats
        big = Fraction(10**300)
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [big], (1, 1): [big]})
        rep = check_rmp(P, [pv(1e10, 1), pv(1e10, 2)])
        assert not rep.passed and rep.max_residual == math.inf
        assert rep.counterexample["nonfinite"] is True
        assert rep.to_dict()["counterexample"]["lhs"] == ["inf"]

    def test_object_sides_follow_the_float_policy(self):
        def obj(*rows):
            return np.array(rows, dtype=object)

        third, quarter = Fraction(1, 3), Fraction(1, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = row_residuals(
                obj([third, math.nan], [third, 1.0], [math.inf, 1.0], [1e308, third], [third, 2.0]),
                obj([third, 1.0], [third, -math.inf], [1.0, 1.0], [-1e308, third], [quarter, 2.0]))
        assert list(res[:4]) == [math.inf, math.inf, math.inf, 2.0]
        # exact sides keep their exact residual
        assert type(res[4]) is Fraction and res[4] == Fraction(1, 12)

    def test_overflowing_mean_fails_the_check(self):
        # a geometric mean beyond the float range is a non-finite side of the
        # check, as in a sweep, where the public geometric_mean raises
        with np.errstate(over="ignore"):
            rep = check_gm(make_diagonal([1.0], 2), [pv(1e200), pv(1e200)])
        assert not rep.passed and rep.max_residual == math.inf
        assert rep.counterexample["nonfinite"] is True

    def test_verify_claim_fails_on_overflow(self):
        P = make_diagonal([[1.0, 1.0], [1.0, 1e308]], 2)
        rep = verify_claim("RMP", s=2, n=2, trials=5, seed=0, poly=P)
        ref = reference_verify("RMP", s=2, n=2, trials=5, seed=0, poly=P)
        assert rep.to_dict() == ref.to_dict()
        assert rep.max_residual == math.inf and rep.counterexample["nonfinite"] is True


class TestJsonSafeReports:
    def reports(self):
        P = make_diagonal([1.0, 2.0], 2)
        cp = CompletePartition((1, 1), 2)
        yield check_rmp(P, [pv(1, 2), pv(3, 4)])
        yield check_gm(P, [pv(1, 2), pv(3, 4)])
        yield check_schur_bounds([pv(1, 2), pv(3, 4)])
        yield check_eta_disjoint([pv(1, 0), pv(0, 4)])
        yield check_hm_identity(P, [pv(1, 2), pv(3, 4)])
        yield check_geos_lemma(cp, [pv(1, 2), pv(3, 4)])
        yield check_wgm_identity(P, cp, [pv(1, 2), pv(3, 4)])
        yield check_cross_terms(P, pv(1, 0), pv(0, 4))
        yield check_cross_terms(square_of_sum(), pv(1, 0), pv(0, 1))
        yield check_hm_identity(square_of_sum(), [pv(1, 0), pv(0, 1)])

    def test_every_check_report_serializes(self):
        for rep in self.reports():
            assert type(rep.passed) is bool
            payload = json.loads(json.dumps(rep.to_dict(), allow_nan=False))
            assert payload["passed"] is rep.passed

    def test_finite_bytes_unchanged(self):
        rep = check_hm_identity(square_of_sum(), [pv(1, 0), pv(0, 1)])
        assert json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(
            {"claim_id": "HM", "counterexample": {"inputs": [[1.0, 0.0], [0.0, 1.0]],
             "lhs": [2.0], "rhs": [0.0]}, "inconclusive": False, "kind": "check",
             "max_residual": 1.0, "passed": False, "tolerance": 1e-09, "trials": 1},
            sort_keys=True,
        )


# -- the eight checks, pinned ---------------------------------------------------------


def exact_vec(*entries):
    return PositiveVector.exact([Fraction(e) for e in entries])


def check_cases():
    """(label, check, arguments) for a fixed set of check_* calls: float passes over
    several degrees, partitions and arities, failures on square_of_sum and
    under tightened tolerances, exact-rational HM, SCHUR, ORTHO and
    CROSS_TERMS, and overflowing sides."""
    rng = np.random.default_rng(2024)
    cases = []

    def add(label, check, *args):
        cases.append((label, check, args))

    tight = ToleranceConfig(identity_rel=1e-300, geos_rel=1e-300, mixed_abs=1e-300,
                           ulp_slack=0)
    for s in (2, 3, 4):
        for n, d in ((1, 1), (3, 2)):
            P = diagonal_polynomial(rng, s, n, d)
            for r in (2, 3, 5):
                add(f"rmp s={s} n={n} r={r}", check_rmp, P, positive_tuple(rng, r, n))
            fs = positive_tuple(rng, s, n)
            add(f"gm s={s} n={n}", check_gm, P, fs)
            add(f"hm s={s} n={n}", check_hm_identity, P, fs)
            add(f"hm tight s={s} n={n}", check_hm_identity, P, fs, tight)
            for parts in enumerate_complete(s):
                cp = CompletePartition(parts, s)
                fs = positive_tuple(rng, len(parts), n)
                add(f"geos {parts} n={n}", check_geos_lemma, cp, fs)
                add(f"geos tight {parts} n={n}", check_geos_lemma, cp, fs, tight)
                add(f"wgm {parts} n={n}", check_wgm_identity, P, cp, fs)
                add(f"wgm tight {parts} n={n}", check_wgm_identity, P, cp, fs, tight)
            f, g = disjoint_pair(rng, n)
            add(f"cross s={s} n={n}", check_cross_terms, P, f, g)
            add(f"cross tight s={s} n={n}", check_cross_terms, P, f, g, tight)
            Q = sparse_polynomial(rng, s, max(n, 2), d, mixed_terms=2, mixed_mass=0.4)
            f, g = disjoint_pair(rng, max(n, 2))
            add(f"cross sparse s={s} n={n}", check_cross_terms, Q, f, g)
            add(f"hm sparse s={s} n={n}", check_hm_identity, Q, positive_tuple(rng, s, max(n, 2)))
    for arity in (1, 2, 3, 5):
        fs = positive_tuple(rng, arity, 4)
        add(f"schur arity={arity}", check_schur_bounds, fs)
        add(f"schur tie arity={arity}", check_schur_bounds, [fs[0]] * arity, tight)
        if arity > 1:
            add(f"ortho arity={arity}", check_eta_disjoint, tuple_with_disjoint_pair(rng, arity, 4))
    add("schur zeros", check_schur_bounds, [pv(0, 1, 2), pv(3, 0, 2)])
    # the upper bound broken by one ulp, which zero slack reports
    add("schur one ulp over", check_schur_bounds,
        [pv(37.758176259298715, 1.0), pv(1e300, 2.0), pv(1e300, 3.0)], tight)
    add("ortho zeros", check_eta_disjoint, [pv(0, 0), pv(0, 0)])

    # failures on (x + y)^2
    Q = square_of_sum()
    unit = [pv(1, 0), pv(0, 1)]
    add("rmp square_of_sum", check_rmp, Q, unit)
    add("rmp square_of_sum 3", check_rmp, Q, unit + [pv(2, 3)])
    add("gm square_of_sum", check_gm, Q, [pv(1, 4), pv(9, 1)])
    add("hm square_of_sum", check_hm_identity, Q, unit)
    add("hm square_of_sum positive", check_hm_identity, Q, [pv(1, 2), pv(3, 5)])
    add("wgm square_of_sum", check_wgm_identity, Q, CompletePartition((1, 1), 2), unit)
    add("cross square_of_sum", check_cross_terms, Q, pv(1, 0), pv(0, 1))
    add("cross square_of_sum scaled", check_cross_terms, Q, pv(3, 0), pv(0, 0.5))

    # exact rationals: HM, SCHUR, ORTHO and CROSS_TERMS
    E = HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(1)], (1, 1): [Fraction(2, 3)]})
    E3 = HomogeneousPolynomial(3, 2, 2, {(0, 0, 0): [Fraction(1), Fraction(-1, 2)],
                                         (1, 1, 1): [Fraction(5, 7), Fraction(3)]})
    ES = HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(1)], (0, 1): [Fraction(1)],
                                         (1, 1): [Fraction(1)]})
    ex = [exact_vec(1, 2), exact_vec(Fraction(3, 4), 6)]
    ex3 = [exact_vec(1, Fraction(1, 3)), exact_vec(2, 5), exact_vec(Fraction(7, 2), 0)]
    add("hm exact", check_hm_identity, E, ex)
    add("hm exact degree 3", check_hm_identity, E3, ex3)
    add("hm exact square_of_sum", check_hm_identity, ES, [exact_vec(1, 0), exact_vec(0, 1)])
    add("hm exact square_of_sum positive", check_hm_identity, ES, ex)
    add("hm float P at exact vectors", check_hm_identity, Q, ex)
    add("schur exact", check_schur_bounds, ex3)
    add("schur exact one", check_schur_bounds, [exact_vec(3, 0)])
    add("schur exact tie", check_schur_bounds, [exact_vec(Fraction(1, 3), 2)] * 3)
    add("ortho exact", check_eta_disjoint, [exact_vec(1, 0, 2), exact_vec(0, 3, 0), exact_vec(5, 5, 5)])
    add("cross exact", check_cross_terms, E, exact_vec(1, 0), exact_vec(0, Fraction(2, 5)))
    add("cross exact square_of_sum", check_cross_terms, ES, exact_vec(1, 0), exact_vec(0, 3))
    add("cross exact degree 3", check_cross_terms, E3, exact_vec(0, 1), exact_vec(Fraction(1, 2), 0))
    add("cross float P at exact vectors", check_cross_terms, Q, exact_vec(2, 0), exact_vec(0, 1))
    add("cross negative", check_cross_terms, Q, LatticeVector([-1.0, 0.0]), LatticeVector([0.0, 2.0]))

    # overflowing and non-finite sides
    big = make_diagonal([[1.0, 1.0], [1.0, 1e300]], 2)
    huge = [pv(1.0, 1e10), pv(2.0, 1e10)]
    for check in (check_rmp, check_gm, check_hm_identity):
        add(f"overflow {check.__name__}", check, big, huge)
    add("overflow wgm", check_wgm_identity, big, CompletePartition((1, 1), 2), huge)
    add("overflow cross", check_cross_terms, big, pv(1.0, 0.0), pv(0.0, 1e160))
    exact_big = HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(10**300)],
                                                (1, 1): [Fraction(10**300)]})
    add("exact coefficients overflow rmp", check_rmp, exact_big, [pv(1e10, 1), pv(1e10, 2)])
    add("exact coefficients overflow hm", check_hm_identity, exact_big, [pv(1e10, 1), pv(1e10, 2)])
    return cases


def invalid_check_calls():
    """(label, thunk) for calls that every check_* rejects."""
    P2, P3 = make_diagonal([1.0, 2.0], 2), make_diagonal([1.0, 2.0], 3)
    one = make_diagonal([1.0, 2.0], 1)
    cp2, cp3 = CompletePartition((1, 1), 2), CompletePartition((2, 1), 3)
    a, b, c = pv(1, 2), pv(3, 4), pv(1, 2, 3)
    ea, eb = exact_vec(1, 2), exact_vec(3, 4)
    neg = LatticeVector([1.0, -2.0])
    eneg = LatticeVector.exact([1, -2])
    calls = {
        # wrong vector count
        "rmp one vector": lambda: check_rmp(P2, [a]),
        "rmp no vectors": lambda: check_rmp(P2, []),
        "gm count": lambda: check_gm(P3, [a, b]),
        "hm count": lambda: check_hm_identity(P3, [a, b]),
        "hm degree one": lambda: check_hm_identity(one, [a]),
        "geos count": lambda: check_geos_lemma(cp3, [a, b, a]),
        "wgm count": lambda: check_wgm_identity(P3, cp3, [a]),
        "schur no vectors": lambda: check_schur_bounds([]),
        "ortho no vectors": lambda: check_eta_disjoint([]),
        "ortho one vector": lambda: check_eta_disjoint([pv(0, 0)]),
        # vectors whose dimension does not match P
        "rmp P dimension": lambda: check_rmp(P2, [c, c]),
        "gm P dimension": lambda: check_gm(P2, [c, c]),
        "hm P dimension": lambda: check_hm_identity(P2, [c, c]),
        "wgm P dimension": lambda: check_wgm_identity(P2, cp2, [c, c]),
        "cross P dimension": lambda: check_cross_terms(P2, pv(1, 0, 0), pv(0, 1, 0)),
        # vectors of mixed dimensions
        "rmp mixed dimensions": lambda: check_rmp(P2, [a, c]),
        "gm mixed dimensions": lambda: check_gm(P2, [c, a]),
        "schur mixed dimensions": lambda: check_schur_bounds([a, b, c]),
        "ortho mixed dimensions": lambda: check_eta_disjoint([a, c]),
        "ortho mixed dimensions after a disjoint pair": lambda: check_eta_disjoint(
            [pv(1, 0), pv(0, 1), c]),
        "hm mixed dimensions": lambda: check_hm_identity(P2, [a, c]),
        "geos mixed dimensions": lambda: check_geos_lemma(cp2, [a, c]),
        "wgm mixed dimensions": lambda: check_wgm_identity(P2, cp2, [c, a]),
        "cross mixed dimensions": lambda: check_cross_terms(P2, pv(1, 0), pv(0, 0, 1)),
        # exact vectors where a root is taken
        "rmp exact": lambda: check_rmp(P2, [ea, eb]),
        "gm exact": lambda: check_gm(P2, [ea, eb]),
        "geos exact": lambda: check_geos_lemma(cp2, [ea, eb]),
        "wgm exact": lambda: check_wgm_identity(P2, cp2, [ea, eb]),
        "rmp exact negative": lambda: check_rmp(P2, [eneg, eb]),
        # exact and float vectors mixed
        "rmp mixed exact": lambda: check_rmp(P2, [a, eb]),
        "gm mixed exact": lambda: check_gm(P2, [ea, b]),
        "schur mixed exact": lambda: check_schur_bounds([ea, b]),
        "ortho mixed exact": lambda: check_eta_disjoint([exact_vec(1, 0), pv(0, 1)]),
        "hm mixed exact": lambda: check_hm_identity(P2, [a, eb]),
        "geos mixed exact": lambda: check_geos_lemma(cp2, [ea, b]),
        "wgm mixed exact": lambda: check_wgm_identity(P2, cp2, [a, eb]),
        "cross mixed exact": lambda: check_cross_terms(P2, exact_vec(1, 0), pv(0, 1)),
        # a negative LatticeVector
        "rmp negative": lambda: check_rmp(P2, [a, neg]),
        "gm negative": lambda: check_gm(P2, [neg, b]),
        "schur negative": lambda: check_schur_bounds([neg]),
        "schur exact negative": lambda: check_schur_bounds([ea, eneg]),
        "ortho negative": lambda: check_eta_disjoint([LatticeVector([-1.0, 0.0]), pv(0, 1)]),
        "hm negative": lambda: check_hm_identity(P2, [a, neg]),
        "hm exact negative": lambda: check_hm_identity(P2, [eneg, eb]),
        "geos negative": lambda: check_geos_lemma(cp2, [neg, b]),
        "wgm negative": lambda: check_wgm_identity(P2, cp2, [a, neg]),
        # not a LatticeVector
        "schur list": lambda: check_schur_bounds([a, [1.0, 2.0]]),
        "ortho list": lambda: check_eta_disjoint([a, [1.0, 2.0]]),
        "rmp list": lambda: check_rmp(P2, [a, [1.0, 2.0]]),
        "cross list": lambda: check_cross_terms(P2, a, [1.0, 2.0]),
        # a non-disjoint input to ORTHO or CROSS_TERMS
        "ortho not disjoint": lambda: check_eta_disjoint([a, b, pv(0, 1)]),
        "cross not disjoint": lambda: check_cross_terms(P2, pv(1, 1), pv(1, 0)),
        "cross exact not disjoint": lambda: check_cross_terms(P2, ea, exact_vec(0, 1)),
        # a partition whose target or part count does not match
        "wgm target": lambda: check_wgm_identity(P2, cp3, [a, b]),
        "wgm parts": lambda: check_wgm_identity(P2, cp2, [a, b, a]),
        "wgm target before parts": lambda: check_wgm_identity(P3, cp2, [a]),
        "geos parts": lambda: check_geos_lemma(cp2, [a]),
    }
    return calls


class TestCheckEdges:
    """The eight check_* functions, pinned by their reports and errors."""

    # sha256 of json.dumps(report.to_dict(), sort_keys=True) over check_cases(),
    # recorded before the checks ran through the claims' block kernels
    def test_check_golden_digest(self):
        digest = hashlib.sha256()
        for label, check, args in check_cases():
            digest.update(f"{label}|{json.dumps(check(*args).to_dict(), sort_keys=True)};".encode())
        assert digest.hexdigest() == "b354985d5e2de75875cb36c139623d82ffef775859fa6006d28f6e727cd00075"

    def test_checks_match_the_reference(self):
        for label, check, args in check_cases():
            ref = reference_check(*REFERENCE_ARGUMENTS[check](*args))
            assert check(*args).to_dict() == ref.to_dict(), label

    # exception type and message, recorded at the same commit
    @pytest.mark.parametrize("label, error, message", [
        ("rmp one vector", PreconditionError, "the root-mean-power identity needs at least two vectors"),
        ("rmp no vectors", PreconditionError, "the root-mean-power identity needs at least two vectors"),
        ("gm count", PreconditionError, "the geometric-mean identity needs exactly 3 vectors"),
        ("hm count", PreconditionError, "the identity needs exactly 3 vectors"),
        ("hm degree one", PreconditionError, "the harmonic-mean identity needs degree >= 2"),
        ("geos count", PreconditionError, "partition has 2 parts, got 3 vectors"),
        ("wgm count", PreconditionError, "partition has 2 parts, got 1 vectors"),
        ("schur no vectors", ValueError, "a mean needs at least one argument"),
        ("ortho no vectors", PreconditionError, "no disjoint pair among the arguments"),
        ("ortho one vector", PreconditionError, "no disjoint pair among the arguments"),
        ("rmp P dimension", DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ("gm P dimension", DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ("hm P dimension", DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ("wgm P dimension", DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ("cross P dimension", DimensionMismatchError, "vector dimension 3 does not match domain 2"),
        ("rmp mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("gm mixed dimensions", DimensionMismatchError, "dimension mismatch: 3 vs 2"),
        ("schur mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("ortho mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("ortho mixed dimensions after a disjoint pair", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("hm mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("geos mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("wgm mixed dimensions", DimensionMismatchError, "dimension mismatch: 3 vs 2"),
        ("cross mixed dimensions", DimensionMismatchError, "dimension mismatch: 2 vs 3"),
        ("rmp exact", ValueError, "exact-rational vectors are only supported by harmonic_mean"),
        ("gm exact", ValueError, "exact-rational vectors are only supported by harmonic_mean"),
        ("geos exact", ValueError, "exact-rational vectors are only supported by harmonic_mean"),
        ("wgm exact", ValueError, "exact-rational vectors are only supported by harmonic_mean"),
        ("rmp exact negative", ValueError, "exact-rational vectors are only supported by harmonic_mean"),
        ("rmp mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("gm mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("schur mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("ortho mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("hm mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("geos mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("wgm mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("cross mixed exact", ValueError, "cannot mix exact and float vectors"),
        ("rmp negative", ValueError, "means are defined on nonnegative vectors only"),
        ("gm negative", ValueError, "means are defined on nonnegative vectors only"),
        ("schur negative", ValueError, "means are defined on nonnegative vectors only"),
        ("schur exact negative", ValueError, "means are defined on nonnegative vectors only"),
        ("ortho negative", ValueError, "means are defined on nonnegative vectors only"),
        ("hm negative", ValueError, "means are defined on nonnegative vectors only"),
        ("hm exact negative", ValueError, "means are defined on nonnegative vectors only"),
        ("geos negative", ValueError, "means are defined on nonnegative vectors only"),
        ("wgm negative", ValueError, "means are defined on nonnegative vectors only"),
        ("schur list", TypeError, "expected LatticeVector arguments, got list"),
        ("ortho list", TypeError, "expected a LatticeVector, got list"),
        ("rmp list", TypeError, "expected LatticeVector arguments, got list"),
        ("cross list", TypeError, "expected a LatticeVector, got list"),
        ("ortho not disjoint", PreconditionError, "no disjoint pair among the arguments"),
        ("cross not disjoint", PreconditionError, "cross-term check needs a disjoint pair"),
        ("cross exact not disjoint", PreconditionError, "cross-term check needs a disjoint pair"),
        ("wgm target", PreconditionError, "partition target 3 does not match polynomial degree 2"),
        ("wgm parts", PreconditionError, "partition has 2 parts, got 3 vectors"),
        ("wgm target before parts", PreconditionError, "partition target 2 does not match polynomial degree 3"),
        ("geos parts", PreconditionError, "partition has 2 parts, got 1 vectors"),
    ])
    def test_invalid_calls_raise(self, label, error, message):
        with pytest.raises(error) as info:
            invalid_check_calls()[label]()
        assert type(info.value) is error and str(info.value) == message


# -- block evaluation against a per-trial reference ---------------------------------


def reference_verify(claim_id, *, s=3, n=4, d=1, trials=100, seed=0, partition=None,
                     poly=None, cfg=DEFAULT_TOLERANCES):
    """verify_claim as a loop over single trials: redraw each trial's inputs with
    the sampling helpers and aggregate their reference_check reports."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if s < 2 and claim_id in ("HM", "GM", "WGM", "RMP", "CROSS_TERMS"):
        raise ValueError(f"claim {claim_id} needs degree s >= 2")
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    rng = np.random.default_rng(seed)
    pool = enumerate_complete(s) if claim_id in ("GEOS", "WGM") else None
    reports = []
    for _ in range(trials):
        P = poly
        if P is None and claim_id in ("RMP", "GM", "HM", "WGM", "CROSS_TERMS"):
            P = diagonal_polynomial(rng, s, n, d)
        cp = None
        if claim_id == "RMP":
            fs = positive_tuple(rng, int(rng.integers(2, 5)), n)
        elif claim_id in ("GM", "HM"):
            fs = positive_tuple(rng, s, n)
        elif claim_id == "SCHUR":
            fs = positive_tuple(rng, int(rng.integers(1, s + 1)), n)
        elif claim_id == "ORTHO":
            fs = tuple_with_disjoint_pair(rng, int(rng.integers(2, max(3, s + 1))), n)
        elif claim_id in ("GEOS", "WGM"):
            cp = partition or CompletePartition(pool[int(rng.integers(0, len(pool)))], s)
            fs = positive_tuple(rng, len(cp.parts), n)
        else:
            fs = list(disjoint_pair(rng, n))
        reports.append(reference_check(claim_id, None if claim_id in ("SCHUR", "ORTHO", "GEOS")
                                       else P, fs, cp, cfg))
    return VerificationReport(
        claim_id=claim_id,
        trials=len(reports),
        max_residual=max(r.max_residual for r in reports),
        tolerance=reports[0].tolerance,
        passed=all(r.passed for r in reports),
        counterexample=next((r.counterexample for r in reports if not r.passed), None),
    )


def outcome(run, *args, **kwargs):
    """A report's JSON form, or the type and message of the error raised."""
    try:
        return run(*args, **kwargs).to_dict()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


CLAIMS = ("RMP", "GM", "SCHUR", "ORTHO", "HM", "GEOS", "WGM", "CROSS_TERMS")


def claim_polynomial(kind, rng, s, n, d):
    if kind == "diagonal":
        return make_diagonal(rng.uniform(-2, 2, (n, d)), s)
    if kind == "sparse":
        return sparse_polynomial(rng, s, max(n, 2), d, mixed_terms=3,
                                 mixed_mass=0.3 if s > 1 else 0.0)
    return square_of_sum() if kind == "square_of_sum" else None


class TestBlockEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(CLAIMS),
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, "diagonal", "sparse", "square_of_sum"]),
        st.booleans(),
        st.sampled_from([7, theorems.BLOCK_TRIALS]),
    )
    def test_block_matches_per_trial_reference(self, claim_id, s, n, d, trials, seed, kind,
                                               use_partition, block):
        if claim_id in theorems.POLY_CLAIMS:
            s = max(s, 2)
        rng = np.random.default_rng(seed)
        kwargs = dict(s=s, n=n, d=d, trials=trials, seed=seed,
                      poly=claim_polynomial(kind, rng, s, n, d))
        if use_partition and claim_id in ("GEOS", "WGM"):
            pool = enumerate_complete(s)
            kwargs["partition"] = CompletePartition(pool[int(rng.integers(len(pool)))], s)
        with patch.object(theorems, "BLOCK_TRIALS", block):
            got = outcome(verify_claim, claim_id, **kwargs)
        assert got == outcome(reference_verify, claim_id, **kwargs)

    def test_exact_polynomial_takes_the_per_trial_route(self):
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(1)], (0, 1): [Fraction(1, 2)]})
        for claim_id in theorems.POLY_CLAIMS:
            kwargs = dict(s=2, n=2, trials=12, seed=4, poly=P)
            assert outcome(verify_claim, claim_id, **kwargs) == outcome(
                reference_verify, claim_id, **kwargs)

    @pytest.mark.parametrize("claim_id, kwargs, error", [
        ("RMP", dict(s=2, n=3, poly=square_of_sum()), DimensionMismatchError),
        ("CROSS_TERMS", dict(s=2, n=1, poly=square_of_sum()), DimensionMismatchError),
        ("HM", dict(s=3, n=2, poly=square_of_sum()), PreconditionError),
        ("HM", dict(s=2, n=2, poly=make_diagonal([1.0], 1)), PreconditionError),
        ("GM", dict(s=3, n=2, poly=square_of_sum()), PreconditionError),
        ("WGM", dict(s=3, n=2, poly=square_of_sum()), PreconditionError),
        ("WGM", dict(s=2, n=2, partition=CompletePartition((1, 1, 1), 3)), PreconditionError),
        ("HM", dict(s=1), ValueError),
        ("CROSS_TERMS", dict(s=0), ValueError),
        ("SCHUR", dict(s=0), ValueError),
        ("GEOS", dict(s=0), ValueError),
        ("NOPE", dict(), ValueError),
    ])
    def test_error_parity(self, claim_id, kwargs, error):
        with pytest.raises(error):
            verify_claim(claim_id, trials=3, **kwargs)
        got = outcome(verify_claim, claim_id, trials=3, **kwargs)
        ref = outcome(reference_verify, claim_id, trials=3, **kwargs)
        assert got[0] == ref[0] == error.__name__
        if error is not ValueError:
            assert got == ref


# -- falsify's random phase and the additivity check in blocks --------------------


def reference_additivity(P, trials=200, seed=0, *, exhaustive=False, tolerances=DEFAULT_TOLERANCES):
    """is_positively_orthogonally_additive as a loop over single trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = P.domain_dim
    rng = np.random.default_rng(seed)
    if exhaustive:
        if n > 16:
            raise ValueError("exhaustive bipartitions are limited to dimension 16")
        masks = [np.array([(m >> i) & 1 for i in range(n)], dtype=bool) for m in range(2**n)]
        draws = max(1, -(-trials // len(masks)))
        plan = [mask for mask in masks for _ in range(draws)]
    else:
        plan = [rng.integers(0, 2, n).astype(bool) for _ in range(trials)]
    worst, counterexample = 0.0, None
    for mask in plan:
        entries = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        entries_g = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        f = PositiveVector(np.where(mask, entries, 0.0))
        g = PositiveVector(np.where(mask, 0.0, entries_g))
        lhs, rhs = P(f + g), P(f) + P(g)
        res = float(residual(lhs, rhs, switch=tolerances.relative_switch))
        worst = max(worst, res)
        if res > tolerances.identity_rel and counterexample is None:
            counterexample = {"f": list(f.entries), "g": list(g.entries),
                              "lhs": lhs, "rhs": rhs, "residual": res}
    return VerificationReport(
        claim_id="POA", trials=len(plan), max_residual=worst,
        tolerance=tolerances.identity_rel,
        passed=worst <= tolerances.identity_rel and counterexample is None,
        counterexample=counterexample,
    )


def reference_sides(claim_id, P, fs, cp):
    """The two sides of an identity claim for one input, from the public means
    and P.multilinear alone."""
    if claim_id == "RMP":
        return P(root_mean_power(P.degree, fs)), sum(P(f) for f in fs)
    if claim_id == "GM":
        return P(geometric_mean(fs)), P.multilinear(*fs)
    if claim_id == "HM":
        eta = harmonic_mean(fs)
        lhs = P.multilinear(*fs) * P.degree
        rhs = None
        for j in range(P.degree):
            term = P.multilinear(*(fs[:j] + [eta] + fs[j + 1:]))
            rhs = term if rhs is None else rhs + term
        return lhs, rhs
    repeated = [f for r, f in zip(cp.parts, fs) for _ in range(r)] if cp else None
    if claim_id == "GEOS":
        return (weighted_geometric_mean(weights(cp), fs).to_array(),
                geometric_mean(repeated).to_array())
    if claim_id == "WGM":
        return P(weighted_geometric_mean(weights(cp), fs)), P.multilinear(*repeated)
    f, g = fs
    return P(f + g), P(f) + P(g)


def nonfinite(*values):
    """True iff some float entry of the values is inf or NaN."""
    return any(isinstance(v, float) and not math.isfinite(v)
               for value in values for v in np.ravel(value).tolist())


def reference_requires(claim_id, P, fs, cp):
    """The preconditions of a claim's check, with their messages."""
    s, count = (None if P is None else P.degree), len(fs)
    if claim_id == "RMP" and count < 2:
        raise PreconditionError("the root-mean-power identity needs at least two vectors")
    if claim_id == "GM" and count != s:
        raise PreconditionError(f"the geometric-mean identity needs exactly {s} vectors")
    if claim_id == "HM" and s < 2:
        raise PreconditionError("the harmonic-mean identity needs degree >= 2")
    if claim_id == "HM" and count != s:
        raise PreconditionError(f"the identity needs exactly {s} vectors")
    if claim_id in ("GEOS", "WGM"):
        if P is not None and cp.target != s:
            raise PreconditionError(
                f"partition target {cp.target} does not match polynomial degree {s}")
        if count != len(cp.parts):
            raise PreconditionError(f"partition has {len(cp.parts)} parts, got {count} vectors")
    if claim_id == "ORTHO" and not any(is_disjoint(f, g) for i, f in enumerate(fs)
                                       for g in fs[i + 1:]):
        raise PreconditionError("no disjoint pair among the arguments")
    if claim_id == "CROSS_TERMS" and not is_disjoint(*fs):
        raise PreconditionError("cross-term check needs a disjoint pair")


# each check_* call's arguments as reference_check takes them
REFERENCE_ARGUMENTS = {
    check_rmp: lambda P, fs, cfg=DEFAULT_TOLERANCES: ("RMP", P, fs, None, cfg),
    check_gm: lambda P, fs, cfg=DEFAULT_TOLERANCES: ("GM", P, fs, None, cfg),
    check_schur_bounds: lambda fs, cfg=DEFAULT_TOLERANCES: ("SCHUR", None, fs, None, cfg),
    check_eta_disjoint: lambda fs, cfg=DEFAULT_TOLERANCES: ("ORTHO", None, fs, None, cfg),
    check_hm_identity: lambda P, fs, cfg=DEFAULT_TOLERANCES: ("HM", P, fs, None, cfg),
    check_geos_lemma: lambda cp, fs, cfg=DEFAULT_TOLERANCES: ("GEOS", None, fs, cp, cfg),
    check_wgm_identity: lambda P, cp, fs, cfg=DEFAULT_TOLERANCES: ("WGM", P, fs, cp, cfg),
    check_cross_terms: lambda P, f, g, cfg=DEFAULT_TOLERANCES: ("CROSS_TERMS", P, [f, g], None,
                                                                cfg),
}


def reference_check(claim_id, P, fs, cp, cfg=DEFAULT_TOLERANCES):
    """One input's check report, computed coordinate by coordinate or from
    reference_sides, with the public means and P.multilinear alone."""
    reference_requires(claim_id, P, fs, cp)
    inputs = [list(f.entries) for f in fs]
    counterexample = None
    if claim_id == "SCHUR":
        e = harmonic_mean(fs).entries
        lo = [min(column) for column in zip(*(f.entries for f in fs))]
        bounds = [(lo_i, e_i, lo_i * len(fs)) for lo_i, e_i in zip(lo, e)]
        if fs[0].is_exact:  # exact order relations, with zero slack
            worst = float(max([0, *(max(a - b, b - c) for a, b, c in bounds)]))
            tol = cfg.exact_slack
        else:  # violations in units in the last place of the violated bound
            worst = max([0.0, *(float((a - b) / np.spacing(a)) for a, b, c in bounds if a > b),
                         *(float((b - c) / np.spacing(c)) for a, b, c in bounds if b > c)])
            tol = float(cfg.ulp_slack)
        passed = worst <= tol
        if not passed:
            counterexample = {"inputs": inputs, "harmonic": list(e), "min": lo}
    elif claim_id == "ORTHO":
        e = harmonic_mean(fs).entries
        worst, tol = float(max(abs(v) for v in e)), 0.0
        passed = worst == 0.0
        if not passed:
            counterexample = {"inputs": inputs, "harmonic": list(e)}
    elif claim_id == "CROSS_TERMS":
        f, g = fs
        s = P.degree
        worst, tol, witness, recon = 0.0, cfg.mixed_abs, None, None
        for k in range(s + 1):
            val = P.multilinear(*([f] * k + [g] * (s - k)))
            term = val * math.comb(s, k)
            recon = term if recon is None else recon + term
            if 1 <= k <= s - 1:
                mag = float(np.max(np.abs(val)))
                mag = math.inf if math.isnan(mag) else mag
                if mag > worst:
                    worst = mag
                    if mag > cfg.mixed_abs:
                        witness = {"copies_of_f": k, "value": val}
        total = P(f + g)
        recon_res = float(residual(total, recon, switch=cfg.relative_switch))
        passed = worst <= cfg.mixed_abs and recon_res <= cfg.identity_rel
        if not passed:
            counterexample = {"inputs": inputs, "mixed_max": worst,
                              "binomial_residual": recon_res, **(witness or {})}
            if nonfinite(total, recon):
                counterexample["nonfinite"] = True
    else:
        lhs, rhs = reference_sides(claim_id, P, fs, cp)
        tol = cfg.geos_rel if claim_id == "GEOS" else cfg.identity_rel
        worst = float(residual(lhs, rhs, switch=cfg.relative_switch))
        passed = worst <= tol
        if not passed:
            counterexample = {"inputs": inputs, "lhs": lhs, "rhs": rhs}
            if cp is not None:
                counterexample["partition"] = list(cp.parts)
            if nonfinite(lhs, rhs):
                counterexample["nonfinite"] = True
    return VerificationReport(claim_id=claim_id, trials=1, max_residual=worst, tolerance=tol,
                              passed=passed, counterexample=counterexample)


def reference_falsify(P, claim_id, budget=10_000, seed=0, *, partition=None,
                      cfg=DEFAULT_TOLERANCES):
    """falsify as a loop over single inputs, each drawn with the sampling helpers."""
    if claim_id not in theorems.FALSIFIABLE_CLAIMS:
        raise ValueError(f"claim {claim_id!r} is not falsifiable "
                         f"(choose from {theorems.FALSIFIABLE_CLAIMS})")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not P.has_mixed_terms:
        raise PreconditionError("polynomial is positively orthogonally additive; nothing to falsify")
    if P.domain_dim <= 6 and reference_additivity(
            P, trials=2**P.domain_dim, seed=seed, exhaustive=True, tolerances=cfg).passed:
        raise PreconditionError(
            "polynomial passed the exhaustive additivity check; nothing to falsify")
    cp = partition
    if claim_id == "WGM":
        cp = cp or CompletePartition((1,) * P.degree, P.degree)
        if cp.target != P.degree:
            raise PreconditionError("partition target must equal the polynomial degree")
    s, n = P.degree, P.domain_dim
    count = {"WGM": len(cp.parts) if cp else 0, "RMP": max(2, s), "CROSS_TERMS": 2}.get(claim_id, s)
    rng = np.random.default_rng(seed)
    used, best, witness = 0, 0.0, None

    def attempt(fs, source):
        nonlocal used, best, witness
        used += 1
        lhs, rhs = reference_sides(claim_id, P, fs, cp)
        res = float(residual(lhs, rhs, switch=cfg.relative_switch))
        best = max(best, res)
        if res > cfg.falsify_threshold and witness is None:
            witness = {"inputs": [list(f.entries) for f in fs], "lhs": lhs, "rhs": rhs,
                       "residual": res, "source": source}
        return used >= budget or witness is not None

    done = False
    for i, j in ((i, j) for i in range(n) for j in range(n) if i != j):
        if done:
            break
        a, b = (float(v) for v in np.exp(rng.uniform(0.0, math.log(10.0), 2)))
        f = PositiveVector([a if k == i else 0.0 for k in range(n)])
        g = PositiveVector([b if k == j else 0.0 for k in range(n)])
        for split in range(1, count):
            done = attempt([f] * split + [g] * (count - split), "structured")
            if done:
                break
    while not done:
        if claim_id == "CROSS_TERMS":
            fs = list(disjoint_pair(rng, n))
        else:
            fs = positive_tuple(rng, count, n)
        done = attempt(fs, "random")
    return VerificationReport(
        claim_id=claim_id, trials=used, max_residual=best, tolerance=cfg.falsify_threshold,
        passed=witness is not None, counterexample=witness, kind="falsify",
        inconclusive=witness is None,
    )


def falsify_polynomial(kind, rng, s, n, d):
    """Polynomials whose searches end in each phase: ``strong`` ones in the
    structured family, ``weak`` and ``wide`` ones (a small mixed key over
    distinct indices) in the random phase or inconclusive, ``exact`` ones with
    Fraction coefficients, ``additive`` ones at the precondition."""
    if kind == "strong" and n > 1 and s > 1:
        return sparse_polynomial(rng, s, n, d, mixed_terms=2, mixed_mass=0.3)
    terms = {(i,) * s: rng.uniform(0.5, 2.0, d) for i in range(n)}
    if kind == "exact":
        terms = {(i,) * s: [Fraction(i + 1)] * d for i in range(n)}
    if kind != "additive":
        key = sorted(int(i) for i in rng.choice(n, size=min(s, n), replace=False))
        key += [key[0]] * (s - len(key))
        scale = {"weak": 1e-7, "wide": 1.0}.get(kind)
        terms[tuple(key)] = [Fraction(1, 3)] * d if scale is None else rng.uniform(0.5, 2.0, d) * scale
    return HomogeneousPolynomial(s, n, d, terms)


class TestFalsifyBlocks:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(theorems.FALSIFIABLE_CLAIMS),
        st.integers(2, 4),
        st.integers(1, 6),
        st.integers(1, 3),
        st.sampled_from(["strong", "weak", "wide", "exact", "additive"]),
        st.sampled_from([1, 2, 3, 16, 17, 40, 113, 300]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([7, theorems.BLOCK_TRIALS]),
    )
    def test_blocks_match_per_input_reference(self, claim_id, s, n, d, kind, budget, seed,
                                              use_partition, block):
        rng = np.random.default_rng(seed)
        P = falsify_polynomial(kind, rng, s, n, d)
        kwargs = dict(budget=budget, seed=seed)
        if use_partition and claim_id == "WGM":
            pool = enumerate_complete(s)
            kwargs["partition"] = CompletePartition(pool[int(rng.integers(len(pool)))], s)
        with patch.object(theorems, "BLOCK_TRIALS", block):
            got = outcome(falsify, P, claim_id, **kwargs)
        assert got == outcome(reference_falsify, P, claim_id, **kwargs)

    def test_witness_at_the_first_random_input(self):
        # 6 ordered coordinate pairs x 2 splits of the structured family see
        # nothing of the key {0, 1, 2}; the first random tuple does
        P = HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]})
        rep = falsify(P, "HM", budget=5000, seed=1)
        assert rep.counterexample["source"] == "random" and rep.trials == 13
        assert rep.to_dict() == reference_falsify(P, "HM", budget=5000, seed=1).to_dict()

    @pytest.mark.parametrize("budget, block, sizes", [
        (600, 1024, [16, 32, 64, 128, 256, 102]),
        (5000, 100, [16, 32, 64, 100, 100]),
        (40, 1024, [16, 22]),
    ])
    def test_block_schedule(self, budget, block, sizes):
        # a mixed coefficient of 5e-7 keeps every residual on a disjoint pair
        # under the 1e-6 witness threshold, but not under the additivity
        # check's 1e-9; after 2 structured pairs, the random phase doubles its
        # blocks from 16 up to BLOCK_TRIALS, capped by the budget left
        P = HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (1, 1): [1.0], (0, 1): [5e-7]})
        seen = []
        real = theorems._random_rows

        def spy(claim_id, P, cp, rng, size):
            seen.append(size)
            return real(claim_id, P, cp, rng, size)

        with patch.object(theorems, "_random_rows", spy), \
                patch.object(theorems, "BLOCK_TRIALS", block):
            rep = falsify(P, "CROSS_TERMS", budget=budget, seed=3)
        assert rep.inconclusive and rep.trials == budget
        assert seen[:len(sizes)] == sizes and sum(seen) == budget - 2

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected_before_the_precondition(self, budget):
        with patch.object(theorems, "is_positively_orthogonally_additive") as check:
            with pytest.raises(ValueError, match=r"budget must be >= 1"):
                falsify(square_of_sum(), "HM", budget=budget)
        check.assert_not_called()


class TestAdditivityBlocks:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 7),
        st.integers(1, 3),
        st.sampled_from(["strong", "weak", "wide", "exact", "additive"]),
        st.sampled_from([1, 2, 3, 40, 130, -1, 0, 1]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([7, theorems.BLOCK_TRIALS]),
    )
    def test_blocks_match_per_trial_reference(self, s, n, d, kind, trials, exhaustive, seed,
                                              block):
        rng = np.random.default_rng(seed)
        P = falsify_polynomial(kind, rng, s, n, d)
        if trials <= 1:  # -1, 0, 1: just below, at and just above 2^n
            trials = 2**n + trials
        kwargs = dict(trials=trials, seed=seed, exhaustive=exhaustive)
        with patch.object(polynomials, "BLOCK_TRIALS", block):
            got = outcome(is_positively_orthogonally_additive, P, **kwargs)
        assert got == outcome(reference_additivity, P, **kwargs)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_blocks_bound_the_rows_in_memory(self, exhaustive):
        P = HomogeneousPolynomial(2, 3, 1, {(0, 0): [1.0], (0, 1): [1.0]})
        seen = []
        real = polynomials._additivity_sides

        def spy(P, f, g):
            seen.append(len(f))
            return real(P, f, g)

        with patch.object(polynomials, "_additivity_sides", spy), \
                patch.object(polynomials, "BLOCK_TRIALS", 7):
            rep = is_positively_orthogonally_additive(P, trials=30, seed=2, exhaustive=exhaustive)
        assert max(seen) == 7 and sum(seen) == rep.trials == (32 if exhaustive else 30)
        assert rep.to_dict() == reference_additivity(
            P, trials=30, seed=2, exhaustive=exhaustive).to_dict()
