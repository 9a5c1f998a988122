"""Identity checks and falsification, including exact-rational replication."""

import copy
import functools
import hashlib
import itertools
import json
import math
import tracemalloc
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
from oapoly import polynomials, sampling, theorems
from oapoly.lattice import DimensionMismatchError, is_disjoint
from oapoly.means import harmonic_mean_stack, root_mean_power_stack
from oapoly.polynomials import TermStack
from oapoly.reports import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    VerificationReport,
    cross_payload,
    row_residuals,
)
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

    @pytest.mark.parametrize("P", [
        pytest.param(HomogeneousPolynomial(4, 2, 1, {(0, 0, 0, 0): [1.0], (0, 0, 1, 1): [1.0]}),
                     id="mixed"),
        pytest.param(make_diagonal([1.0, 2.0], 4), id="additive"),
    ])
    def test_partition_is_checked_first(self, P):
        # the message of check_wgm_identity and verify_claim, before the
        # additivity preconditions
        with pytest.raises(PreconditionError) as info:
            falsify(P, "WGM", budget=10, partition=CompletePartition((2, 1), 3))
        assert str(info.value) == "partition target 3 does not match polynomial degree 4"


def seed_dependent():
    """x0^2 + 3e-9 x0 x1 + x1^2: its 4-trial exhaustive check fails under
    seed 0 (residual 1.7e-9) and passes under seed 1 (1.3e-10), and under
    seed 0 it passes at ``identity_rel`` 1e-8."""
    return HomogeneousPolynomial(2, 2, 1, {(0, 0): [1.0], (0, 1): [3e-9], (1, 1): [1.0]})


LOOSE = ToleranceConfig(identity_rel=1e-8)


class TestPreconditionVerdict:
    """falsify keeps its exhaustive precondition's verdict on P's TermStack,
    one entry keyed by (seed, cfg); every report and error is the one a
    fresh copy of P gives."""

    @staticmethod
    def counted():
        return patch.object(theorems, "is_positively_orthogonally_additive",
                            wraps=is_positively_orthogonally_additive)

    @staticmethod
    def cold(P, claim_id, **kwargs):
        return outcome(falsify, copy.deepcopy(P), claim_id, **kwargs)

    @pytest.mark.parametrize("P", [
        pytest.param(sparse_polynomial(np.random.default_rng(3), 3, 4, 2, mixed_terms=2,
                                       mixed_mass=0.3), id="strong"),
        pytest.param(HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]}),
                     id="random-phase"),
        pytest.param(HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [Fraction(1, 3)],
                                                     (0, 0, 0): [Fraction(2)]}), id="exact"),
    ])
    def test_reports_are_the_same_cold_and_warm(self, P):
        cold = [json.dumps(self.cold(P, c, budget=200, seed=4)) for c in theorems.FALSIFIABLE_CLAIMS]
        with self.counted() as check:
            warm = [json.dumps(outcome(falsify, P, c, budget=200, seed=4))
                    for c in theorems.FALSIFIABLE_CLAIMS]
        assert warm == cold
        assert check.call_count == 1

    def test_each_key_keeps_its_own_verdict(self):
        P = seed_dependent()
        assert not is_positively_orthogonally_additive(P, trials=4, seed=0, exhaustive=True).passed
        assert is_positively_orthogonally_additive(P, trials=4, seed=1, exhaustive=True).passed
        keys = [(0, DEFAULT_TOLERANCES), (1, DEFAULT_TOLERANCES), (0, LOOSE),
                (0, DEFAULT_TOLERANCES), (1, DEFAULT_TOLERANCES), (0, LOOSE), (0, LOOSE)]
        with self.counted() as check:
            got = [outcome(falsify, P, "HM", budget=40, seed=seed, cfg=cfg) for seed, cfg in keys]
        assert got == [self.cold(P, "HM", budget=40, seed=seed, cfg=cfg) for seed, cfg in keys]
        assert [type(g) for g in got] == [dict, tuple, tuple, dict, tuple, tuple, tuple]
        assert check.call_count == 6  # the last call's key is the kept one's
        assert TermStack.of(P).additivity_verdict == ((0, LOOSE), True)

    def test_an_equal_config_is_the_same_key(self):
        P = seed_dependent()
        with self.counted() as check:
            falsify(P, "HM", budget=5, seed=0, cfg=ToleranceConfig())
            falsify(P, "GM", budget=5, seed=0)
        assert check.call_count == 1

    @pytest.mark.parametrize("P", [
        pytest.param(HomogeneousPolynomial(2, 3, 1, {(0, 0): [1.0], (1, 2): [1e-30]}), id="float"),
        pytest.param(HomogeneousPolynomial(2, 3, 1, {(0, 0): [Fraction(1)],
                                                     (1, 2): [Fraction(1, 10**30)]}), id="exact"),
    ])
    def test_a_passing_polynomial_raises_on_every_call(self, P):
        assert P.has_mixed_terms
        with self.counted() as check:
            for _ in range(2):
                for claim_id in theorems.FALSIFIABLE_CLAIMS:
                    with pytest.raises(PreconditionError, match="passed the exhaustive"):
                        falsify(P, claim_id, budget=10, seed=2)
        assert check.call_count == 1

    @pytest.mark.parametrize("P", [
        pytest.param(square_of_sum(), id="float"),
        pytest.param(HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(1)], (0, 1): [Fraction(2)],
                                                     (1, 1): [Fraction(1)]}), id="exact"),
    ])
    def test_a_failing_polynomial_never_raises(self, P):
        with self.counted() as check:
            for seed in (5, 5, 6, 6, 5):
                for claim_id in theorems.FALSIFIABLE_CLAIMS:
                    assert falsify(P, claim_id, budget=10, seed=seed).passed
        assert check.call_count == 3

    def test_the_verdict_is_one_entry(self):
        P = square_of_sum()
        assert TermStack.of(P).additivity_verdict is None
        for seed in range(4):
            falsify(P, "HM", budget=10, seed=seed)
            key, verdict = TermStack.of(P).additivity_verdict
            assert key == (seed, DEFAULT_TOLERANCES) and verdict is False

    def test_the_public_check_keeps_nothing(self):
        P = square_of_sum()
        first = is_positively_orthogonally_additive(P, trials=4, seed=1, exhaustive=True)
        first.counterexample["f"] = "edited"
        again = is_positively_orthogonally_additive(P, trials=4, seed=1, exhaustive=True)
        assert again.counterexample["f"] != "edited"
        assert TermStack.of(P).additivity_verdict is None

    def test_a_wide_polynomial_runs_no_check(self):
        P = HomogeneousPolynomial(2, 7, 1, {(0, 0): [1.0], (0, 1): [1.0]})
        with self.counted() as check:
            falsify(P, "HM", budget=10, seed=0)
        check.assert_not_called()
        assert TermStack.of(P).additivity_verdict is None


class TestSeeds:
    """A seed is a nonnegative int wherever it enters, checked before any
    draw and before falsify's precondition."""

    CALLS = {
        "falsify": lambda seed: falsify(square_of_sum(), "HM", budget=10, seed=seed),
        "verify_claim": lambda seed: verify_claim("HM", s=2, n=2, trials=2, seed=seed),
        "verify_all": lambda seed: verify_all(s=2, n=2, trials=2, seed=seed),
        "additivity": lambda seed: is_positively_orthogonally_additive(
            square_of_sum(), trials=4, seed=seed, exhaustive=True),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("seed, error, message", [
        (1.0, TypeError, "seed must be an int, got float"),
        (True, TypeError, "seed must be an int, got bool"),
        ("1", TypeError, "seed must be an int, got str"),
        (None, TypeError, "seed must be an int, got NoneType"),
        (-1, ValueError, "seed must be >= 0, got -1"),
    ])
    def test_bad_seeds_are_refused(self, call, seed, error, message):
        with patch.object(theorems, "is_positively_orthogonally_additive") as check:
            with pytest.raises(error) as info:
                self.CALLS[call](seed)
        assert type(info.value) is error and str(info.value) == message
        check.assert_not_called()  # falsify refuses the seed before its precondition

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integers_are_seeds(self, call):
        def dump(got):
            return json.dumps([r.to_dict() for r in got] if isinstance(got, list) else got.to_dict())

        assert dump(self.CALLS[call](np.int64(3))) == dump(self.CALLS[call](3))


class TestSweepSizes:
    """A sweep size is an int wherever it enters, numpy's included, checked
    first: a bool, a float or None is a TypeError naming the argument."""

    CALLS = {
        "verify_claim-trials": lambda v: verify_claim("HM", s=2, n=2, trials=v),
        "verify_claim-trial": lambda v: verify_claim("HM", s=2, n=2, trials=4, trial=v),
        "verify_claim-s": lambda v: verify_claim("HM", s=v, n=2, trials=4),
        "verify_claim-n": lambda v: verify_claim("HM", s=2, n=v, trials=4),
        "verify_claim-d": lambda v: verify_claim("HM", s=2, n=2, d=v, trials=4),
        "verify_all-trials": lambda v: verify_all(s=2, n=2, trials=v),
        "verify_all-s": lambda v: verify_all(s=v, n=2, trials=4),
        "verify_all-n": lambda v: verify_all(s=2, n=v, trials=4),
        "verify_all-d": lambda v: verify_all(s=2, n=2, d=v, trials=4),
        "additivity-trials": lambda v: is_positively_orthogonally_additive(
            square_of_sum(), trials=v, seed=1),
    }

    @pytest.mark.parametrize("call, value, kind", [
        (call, value, kind) for call in CALLS
        for value, kind in ((True, "bool"), (2.0, "float"), (2.5, "float"), (None, "NoneType"))
        if not (value is None and call == "verify_claim-trial")])  # None: the whole run
    def test_sizes_that_are_not_ints_are_refused(self, call, value, kind):
        name = call.split("-")[1]
        with patch.object(sampling, "draw_trials") as draw:
            with pytest.raises(TypeError) as info:
                self.CALLS[call](value)
        assert str(info.value) == f"{name} must be an int, got {kind}"
        draw.assert_not_called()

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integers_are_sizes(self, call):
        def dump(got):
            return json.dumps([r.to_dict() for r in got] if isinstance(got, list) else got.to_dict())

        assert dump(self.CALLS[call](np.int64(3))) == dump(self.CALLS[call](3))


class TestArgumentTypes:
    """A partition or a polynomial of another type is a TypeError naming the
    argument, not an AttributeError from inside the check."""

    @pytest.mark.parametrize("call, message", [
        (lambda: check_geos_lemma((1, 1), [pv(1, 2), pv(3, 4)]),
         "cp must be a CompletePartition, got tuple"),
        (lambda: check_wgm_identity(make_diagonal([1.0, 2.0], 2), (1, 1), [pv(1, 2), pv(3, 4)]),
         "cp must be a CompletePartition, got tuple"),
        (lambda: check_wgm_identity({}, CompletePartition((1, 1), 2), [pv(1, 2), pv(3, 4)]),
         "P must be a HomogeneousPolynomial, got dict"),
        (lambda: check_hm_identity({}, [pv(1, 2), pv(3, 4)]),
         "P must be a HomogeneousPolynomial, got dict"),
        (lambda: check_cross_terms({}, pv(1, 0), pv(0, 1)),
         "P must be a HomogeneousPolynomial, got dict"),
        (lambda: verify_claim("WGM", s=2, trials=2, partition=(1, 1)),
         "partition must be a CompletePartition, got tuple"),
        (lambda: verify_claim("GEOS", s=2, trials=2, partition=(1, 1)),
         "partition must be a CompletePartition, got tuple"),
        (lambda: verify_claim("HM", s=2, trials=2, poly={}),
         "poly must be a HomogeneousPolynomial, got dict"),
        (lambda: falsify({}, "HM", budget=10), "P must be a HomogeneousPolynomial, got dict"),
        (lambda: falsify(square_of_sum(), "WGM", budget=10, partition=(1, 1)),
         "partition must be a CompletePartition, got tuple"),
    ])
    def test_type_errors_name_the_argument(self, call, message):
        with pytest.raises(TypeError) as info:
            call()
        assert type(info.value) is TypeError and str(info.value) == message


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

    @pytest.mark.parametrize("kwargs, sizes", [
        (dict(claim_id="HM", n=100_000_000), "n = 100000000, d = 1"),
        (dict(claim_id="HM", d=100_000_000), "n = 4, d = 100000000"),
        (dict(claim_id="SCHUR", n=100_000_000), "n = 100000000 draws"),
    ])
    def test_trial_beyond_the_stack_bound_is_refused_before_it_is_drawn(self, kwargs, sizes):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"one trial at {sizes}"):
                verify_claim(trials=2, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("claim_id", theorems.CLAIM_IDS)
    def test_blocks_keep_to_the_stack_bound(self, claim_id):
        # blocks of 3 trials give the report of blocks of BLOCK_TRIALS
        draw, blocks = sampling.draw_trials, []

        def recording(rng, trials, n, **spec):
            blocks.append((trials, sampling.trial_width(n, **spec)))
            return draw(rng, trials, n, **spec)

        with patch.object(sampling, "draw_trials", recording):
            whole = verify_claim(claim_id, s=3, n=4, d=2, trials=50, seed=9)
            (_, width), = set(blocks)
            blocks.clear()
            with patch.object(theorems, "STACK_BYTES", 8 * width * 3 + 7):
                split = verify_claim(claim_id, s=3, n=4, d=2, trials=50, seed=9)
        assert [trials for trials, _ in blocks] == [3] * 16 + [2]
        assert split.to_dict() == whole.to_dict()


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
        # the geometric mean 1e200 is in range, but P's value at it, 1e400, is
        # not: a non-finite side of the check, reported without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_gm(make_diagonal([1.0], 2), [pv(1e200), pv(1e200)])
        assert not rep.passed and rep.max_residual == math.inf
        assert rep.counterexample["nonfinite"] is True

    def test_geometric_means_beyond_the_product_range_pass(self):
        # prod(X) overflows inside the repeated-argument geometric mean, but
        # both sides of the lemma are 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_geos_lemma(CompletePartition((1, 1), 2), [PositiveVector([1e300])] * 2)
        assert rep.passed and math.isfinite(rep.max_residual)
        assert rep.max_residual <= DEFAULT_TOLERANCES.geos_rel

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
    # recorded before the checks ran through the claims' block kernels, and
    # re-recorded once when exact sides began to report ``exact_slack`` as their
    # tolerance: only the exact HM and CROSS_TERMS cases' "tolerance" changed
    def test_check_golden_digest(self):
        digest = hashlib.sha256()
        for label, check, args in check_cases():
            digest.update(f"{label}|{json.dumps(check(*args).to_dict(), sort_keys=True)};".encode())
        assert digest.hexdigest() == "9b67d47bd75068ecbe914c87df245f6b820901eaf1e7501fda89b30168cb9c02"

    def test_exact_sides_compare_exactly(self):
        # a mixed coefficient of 1e-30 leaves residuals far below the float
        # tolerances, and one of 1e-400 gives a residual that rounds to 0.0:
        # exact sides compare with exact_slack before any float conversion
        fs = [exact_vec(1, 2, 3, 4, 5), exact_vec(2, 1, 1, 3, 1), exact_vec(5, 4, 3, 2, 1),
              exact_vec(1, 1, 2, 2, 3)]
        diagonal = {(i,) * 4: [Fraction(i + 1)] for i in range(5)}
        for tiny in (Fraction(1, 10**30), Fraction(1, 10**400)):
            P = HomogeneousPolynomial(4, 5, 1, {**diagonal, (0, 1, 2, 3): [tiny]})
            rep = check_hm_identity(P, fs)
            assert not rep.passed and rep.tolerance == 0.0 and rep.counterexample is not None
            Q = HomogeneousPolynomial(2, 2, 1, {(0, 0): [Fraction(1)], (1, 1): [Fraction(1)],
                                                (0, 1): [tiny]})
            rep = check_cross_terms(Q, exact_vec(1, 0), exact_vec(0, 1))
            assert not rep.passed and rep.tolerance == 0.0
            assert rep.counterexample["copies_of_f"] == 1
        slack = ToleranceConfig(exact_slack=1e-20)
        assert check_hm_identity(P, fs, slack).passed
        assert check_cross_terms(Q, exact_vec(1, 0), exact_vec(0, 1), slack).tolerance == 1e-20
        rep = check_hm_identity(HomogeneousPolynomial(4, 5, 1, diagonal), fs)
        assert rep.passed and rep.max_residual == 0.0 and rep.tolerance == 0.0
        # a float P at exact vectors keeps the float tolerance
        rep = check_hm_identity(make_diagonal([1.0] * 5, 4), fs)
        assert rep.passed and rep.tolerance == DEFAULT_TOLERANCES.identity_rel

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
        ("schur list", TypeError, "expected a LatticeVector, got list"),
        ("ortho list", TypeError, "expected a LatticeVector, got list"),
        ("rmp list", TypeError, "expected a LatticeVector, got list"),
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


class TrialRow:
    """One trial's uniforms, drawn with one ``rng.random(width)`` and read off
    in order: the layout of a trial's row, read independently of
    `sampling.draw_trials`."""

    LOG_LOW, LOG_SPAN = math.log(1e-3), math.log(1e3) - math.log(1e-3)

    def __init__(self, rng, width):
        self.u, self.at = rng.random(width), 0

    def take(self, count):
        self.at += count
        return self.u[self.at - count:self.at]

    def coefficients(self, n, d):
        magnitude = 0.1 + (2.0 - 0.1) * self.take(n * d)
        negative = self.take(n * d) < 0.5
        return np.array([-c if neg else c for c, neg in zip(magnitude, negative)]).reshape(n, d)

    def pick(self, lo, hi):
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self.take(1)[0] * (hi - lo))

    def vectors(self, count, n):
        return [PositiveVector(v)
                for v in np.exp(self.LOG_LOW + self.LOG_SPAN * self.take(count * n)).reshape(count, n)]

    def slots(self, k):
        u, v = self.take(2)
        i, j = int(u * k), int(v * (k - 1))
        return i, j + (j >= i)

    def disjoint_pair(self, n):
        on_f = self.take(n) < 0.5
        f, g = np.exp(self.LOG_LOW + self.LOG_SPAN * self.take(2 * n)).reshape(2, n)
        return [PositiveVector(np.where(on_f, f, 0.0)), PositiveVector(np.where(on_f, 0.0, g))]


def reference_verify(claim_id, *, s=3, n=4, d=1, trials=100, seed=0, partition=None,
                     poly=None, cfg=DEFAULT_TOLERANCES, trial=None):
    """verify_claim as a loop over single trials: trial t reads row t of
    ``default_rng(seed)``, drawn with one ``rng.random(width)`` per trial, and
    the reports of reference_check are aggregated. ``trial`` = k draws and
    drops k rows, then checks trial k alone."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trial is not None and not 0 <= trial < trials:
        raise ValueError(f"trial {trial} out of range")
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim {claim_id!r}")
    if s < 1:
        raise ValueError(f"degree s must be >= 1, got {s}")
    if s < 2 and claim_id in ("HM", "GM", "WGM", "RMP", "CROSS_TERMS"):
        raise ValueError(f"claim {claim_id} needs degree s >= 2")
    if claim_id in ("GEOS", "WGM") and partition is not None and partition.target != s:
        raise PreconditionError(
            f"partition target {partition.target} does not match polynomial degree {s}")
    rng = np.random.default_rng(seed)
    pool = enumerate_complete(s) if claim_id in ("GEOS", "WGM") else None
    random_poly = poly is None and claim_id in ("RMP", "GM", "HM", "WGM", "CROSS_TERMS")
    # the uniforms of one trial: its tuple's k_max slots, its pick, slots and pair
    k_max, picks, extra = {
        "RMP": (4, True, 0), "GM": (s, False, 0), "HM": (s, False, 0),
        "SCHUR": (s, True, 0), "ORTHO": (max(2, s), True, 2 + 3 * n),
        "GEOS": (max(map(len, pool or [()])), partition is None, 0),
        "WGM": (max(map(len, pool or [()])), partition is None, 0),
        "CROSS_TERMS": (0, False, 3 * n),
    }[claim_id]
    if partition is not None:
        k_max = len(partition.parts)
    width = 2 * n * d * random_poly + picks + k_max * n + extra
    first = trial or 0
    rng.random((first, width))
    reports = []
    for _ in range(trials if trial is None else 1):
        row = TrialRow(rng, width)
        P = HomogeneousPolynomial.diagonal(row.coefficients(n, d), s) if random_poly else poly
        cp = None
        if claim_id == "RMP":
            k = row.pick(2, 5)
            fs = row.vectors(4, n)[:k]
        elif claim_id in ("GM", "HM"):
            fs = row.vectors(s, n)
        elif claim_id == "SCHUR":
            k = row.pick(1, s + 1)
            fs = row.vectors(s, n)[:k]
        elif claim_id == "ORTHO":
            k = row.pick(2, max(3, s + 1))
            fs = row.vectors(k_max, n)[:k]
            i, j = row.slots(k)
            fs[i], fs[j] = row.disjoint_pair(n)
        elif claim_id in ("GEOS", "WGM"):
            cp = partition or CompletePartition(pool[row.pick(0, len(pool))], s)
            fs = row.vectors(k_max, n)[:len(cp.parts)]
        else:
            fs = row.disjoint_pair(n)
        reports.append(reference_check(claim_id, None if claim_id in ("SCHUR", "ORTHO", "GEOS")
                                       else P, fs, cp, cfg))
    failing = next((t for t, r in enumerate(reports) if not r.passed), None)
    return VerificationReport(
        claim_id=claim_id,
        trials=len(reports),
        max_residual=max(r.max_residual for r in reports),
        tolerance=reports[0].tolerance,
        passed=failing is None,
        counterexample=None if failing is None else {**reports[failing].counterexample,
                                                     "trial": first + failing},
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

    @pytest.mark.parametrize("claim_id", CLAIMS)
    @pytest.mark.parametrize("k", [0, 1023, 1024, 1500])
    def test_replaying_one_trial_matches_the_reference(self, claim_id, k):
        # a non-additive polynomial fails (nearly) every trial, so the replayed
        # trial's counterexample is compared too
        poly = claim_polynomial("sparse", np.random.default_rng(k), 3, 4, 2)
        kwargs = dict(s=3, n=4, d=2, trials=2048, seed=k + 5, trial=k,
                      poly=poly if claim_id in theorems.POLY_CLAIMS else None)
        got = outcome(verify_claim, claim_id, **kwargs)
        assert got == outcome(reference_verify, claim_id, **kwargs)
        assert got["trials"] == 1
        assert got["passed"] or got["counterexample"]["trial"] == k

    @pytest.mark.parametrize("claim_id", CLAIMS)
    def test_trial_inputs_do_not_depend_on_the_run_length(self, claim_id):
        # trial k's inputs are row k of the stream: the same in a run of k + 1
        # trials as in one of 2048, on either side of the 1024-trial block
        real = sampling.draw_trials

        def inputs(trials, block):
            seen = []

            def spy(*args, **kwargs):
                seen.append(real(*args, **kwargs))
                return seen[-1]

            with patch.object(theorems.sampling, "draw_trials", spy), \
                    patch.object(theorems, "BLOCK_TRIALS", block):
                verify_claim(claim_id, s=4, n=3, d=2, trials=trials, seed=9)
            return [np.concatenate([getattr(draws, field) for draws in seen])
                    if getattr(seen[0], field) is not None else None
                    for field in sampling.TrialDraws._fields]

        full = inputs(2048, theorems.BLOCK_TRIALS)
        for k in (0, 1023, 1024, 2047):
            for block in (theorems.BLOCK_TRIALS, 100):
                for mine, theirs in zip(inputs(k + 1, block), full):
                    if mine is None:
                        assert theirs is None
                    else:
                        assert len(mine) == k + 1
                        np.testing.assert_array_equal(mine[k], theirs[k])

    @pytest.mark.parametrize("trial", [-1, 5])
    def test_trial_outside_the_run_rejected(self, trial):
        with pytest.raises(ValueError, match=r"trial must lie in \[0, 5\)"):
            verify_claim("GM", trials=5, trial=trial)

    @pytest.mark.parametrize("claim_id", CLAIMS)
    @pytest.mark.parametrize("s", [0, -3])
    def test_degree_below_one_rejected(self, claim_id, s):
        with pytest.raises(ValueError, match=rf"degree s must be >= 1, got {s}"):
            verify_claim(claim_id, s=s, trials=3)

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
        ("ORTHO", dict(s=0), ValueError),
        ("ORTHO", dict(s=-3), ValueError),
        ("GEOS", dict(s=4, n=2, partition=CompletePartition((2, 1), 3)), PreconditionError),
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
    reference_sides, with the public means and P.multilinear alone. Exact
    sides (exact vectors, and P exact or absent) are compared with
    ``exact_slack`` as exact rationals, and their residuals converted to
    floats only for the report."""
    reference_requires(claim_id, P, fs, cp)
    inputs = [list(f.entries) for f in fs]
    exact = fs[0].is_exact and (P is None or P.is_exact)
    counterexample = None
    if claim_id == "SCHUR":
        e = harmonic_mean(fs).entries
        lo = [min(column) for column in zip(*(f.entries for f in fs))]
        bounds = [(lo_i, e_i, lo_i * len(fs)) for lo_i, e_i in zip(lo, e)]
        if exact:  # exact order relations
            worst = max([0, *(max(a - b, b - c) for a, b, c in bounds)])
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
        worst, tol = max(abs(v) for v in e), cfg.exact_slack if exact else 0.0
        passed = worst <= tol
        if not passed:
            counterexample = {"inputs": inputs, "harmonic": list(e)}
    elif claim_id == "CROSS_TERMS":
        f, g = fs
        s = P.degree
        tol, recon_tol = (cfg.exact_slack,) * 2 if exact else (cfg.mixed_abs, cfg.identity_rel)
        worst, witness, recon = 0.0, None, None
        for k in range(s + 1):
            val = P.multilinear(*([f] * k + [g] * (s - k)))
            term = val * math.comb(s, k)
            recon = term if recon is None else recon + term
            if 1 <= k <= s - 1:
                mag = max(abs(v) for v in val.tolist()) if exact else float(np.max(np.abs(val)))
                mag = math.inf if not exact and math.isnan(mag) else mag
                if mag > worst:
                    worst = mag
                    if mag > tol:
                        witness = {"copies_of_f": k, "value": val}
        total = P(f + g)
        recon_res = residual(total, recon, switch=cfg.relative_switch)
        passed = worst <= tol and recon_res <= recon_tol
        if not passed:
            counterexample = {"inputs": inputs, "mixed_max": float(worst),
                              "binomial_residual": float(recon_res), **(witness or {})}
            if nonfinite(total, recon):
                counterexample["nonfinite"] = True
    else:
        lhs, rhs = reference_sides(claim_id, P, fs, cp)
        tol = cfg.geos_rel if claim_id == "GEOS" else cfg.identity_rel
        tol = cfg.exact_slack if exact else tol
        worst = residual(lhs, rhs, switch=cfg.relative_switch)
        passed = worst <= tol
        if not passed:
            counterexample = {"inputs": inputs, "lhs": lhs, "rhs": rhs}
            if cp is not None:
                counterexample["partition"] = list(cp.parts)
            if nonfinite(lhs, rhs):
                counterexample["nonfinite"] = True
    return VerificationReport(claim_id=claim_id, trials=1, max_residual=float(worst),
                              tolerance=tol, passed=bool(passed), counterexample=counterexample)


def reference_falsify(P, claim_id, budget=10_000, seed=0, *, partition=None,
                      cfg=DEFAULT_TOLERANCES):
    """falsify as a loop over single inputs: the structured family's amplitudes
    from ``default_rng(seed)``, then one ``rng.random(width)`` row of the
    random phase's stream per random input."""
    if claim_id not in theorems.FALSIFIABLE_CLAIMS:
        raise ValueError(f"claim {claim_id!r} is not falsifiable "
                         f"(choose from {theorems.FALSIFIABLE_CLAIMS})")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    cp = partition
    if claim_id == "WGM":
        cp = cp or CompletePartition((1,) * P.degree, P.degree)
        if cp.target != P.degree:
            raise PreconditionError(
                f"partition target {cp.target} does not match polynomial degree {P.degree}")
    if not P.has_mixed_terms:
        raise PreconditionError("polynomial is positively orthogonally additive; nothing to falsify")
    if P.domain_dim <= 6 and reference_additivity(
            P, trials=2**P.domain_dim, seed=seed, exhaustive=True, tolerances=cfg).passed:
        raise PreconditionError(
            "polynomial passed the exhaustive additivity check; nothing to falsify")
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
    # the random phase reads its own stream, the first child of SeedSequence(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    while not done:
        if claim_id == "CROSS_TERMS":
            fs = TrialRow(rng, 3 * n).disjoint_pair(n)
        else:
            fs = TrialRow(rng, count * n).vectors(count, n)
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
        st.sampled_from([0, 5, 128]),
    )
    def test_blocks_match_per_input_reference(self, claim_id, s, n, d, kind, budget, seed,
                                              use_partition, block, extra):
        rng = np.random.default_rng(seed)
        P = falsify_polynomial(kind, rng, s, n, d)
        kwargs = dict(budget=budget, seed=seed)
        if use_partition and claim_id == "WGM":
            pool = enumerate_complete(s)
            kwargs["partition"] = CompletePartition(pool[int(rng.integers(len(pool)))], s)
        with patch.object(theorems, "BLOCK_TRIALS", block), \
                patch.object(theorems, "_overhead_rows", lambda stack, count: extra):
            got = outcome(falsify, P, claim_id, **kwargs)
        assert got == outcome(reference_falsify, P, claim_id, **kwargs)

    def test_witness_at_the_first_random_input(self):
        # 6 ordered coordinate pairs x 2 splits of the structured family see
        # nothing of the key {0, 1, 2}; the first random tuple does
        P = HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]})
        rep = falsify(P, "HM", budget=5000, seed=1)
        assert rep.counterexample["source"] == "random" and rep.trials == 13
        assert rep.to_dict() == reference_falsify(P, "HM", budget=5000, seed=1).to_dict()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3000), st.integers(1, 40) | st.none()),
                 min_size=1, max_size=3),
        st.sampled_from([0, 1, 5, 122, 744]),
        st.integers(1, 1100),
    )
    def test_schedule_tiles_each_phase_growing_by_cost(self, phases, extra, cap):
        # phases of the given rows and first sizes (None: first = cap, the
        # fixed blocks of the sweeps), laid end to end
        bounds, end = [], 0
        for rows, first in phases:
            bounds.append((end, end + rows, cap if first is None else first))
            end += rows
        blocks = list(polynomials._schedule(cap, extra, *bounds))
        at = 0
        for lo, hi, first in bounds:
            mine = []
            while at < len(blocks) and blocks[at][0] < hi:
                mine.append(blocks[at])
                at += 1
            ends = [b for _, b in mine]
            assert [a for a, _ in mine] == ([lo] + ends)[:len(mine)]
            assert ([lo] + ends)[-1] == hi
            sizes = [b - a for a, b in mine]
            assert sizes[:1] == ([min(first, cap, hi - lo)] if hi > lo else [])
            for prev, size, (a, _) in zip(sizes, sizes[1:], mine[1:]):
                assert size == min(2 * prev + extra, cap, hi - a)
        assert at == len(blocks)

    @staticmethod
    def sided_blocks(P, claim_id, **kwargs):
        """falsify(P, claim_id, **kwargs), with the rows of each block whose
        sides it evaluated."""
        rows = []
        claim = theorems.CLAIM_TABLE[claim_id]

        def sides(stack, X, cp):
            rows.append(len(X))
            return claim.sides(stack, X, cp)

        with patch.dict(theorems.CLAIM_TABLE, {claim_id: claim._replace(sides=sides)}):
            rep = falsify(P, claim_id, **kwargs)
        return rep, rows

    def test_weak_search_takes_few_blocks(self):
        # as in the falsify benchmark's weak band: a mixed key over 4 of 6
        # indices, of mass 2e-8, which no structured pair sees. CROSS_TERMS
        # evaluates P alone, at its m = 7 keys, so a pair counts
        # 2 (2 m + m d) = 42 entries and R = 2^14 // 42 = 390: structured
        # blocks of 1 and 29 rows, random ones of 16, 422 and 132, where
        # doubling rows alone took 11
        terms = {(i,) * 4: [1.0 + i / 4] for i in range(6)}
        terms[(0, 2, 3, 5)] = [2e-8 * sum(c[0] for c in terms.values())]
        P = HomogeneousPolynomial(4, 6, 1, terms)
        rep, rows = self.sided_blocks(P, "CROSS_TERMS", budget=600, seed=0)
        assert rep.inconclusive and rep.trials == 600
        assert len(rows) == 5 and sum(rows) == 600

    def test_a_search_that_evaluates_p_counts_its_keys(self):
        # an (8, 10) polynomial: 10 diagonal keys and the key (0, .., 7) of
        # 8! arrangements, A = 40 330. CROSS_TERMS evaluates P alone, at its
        # m = 11 keys, so a pair counts 2 (2 m + m d) = 66 entries and
        # R = 2^14 // 66 = 248: blocks of 1 and 89 structured rows and 16,
        # 280 and 214 random ones, where counting A made R = 0 and 13 blocks
        terms = {(i,) * 8: [1.0 + i / 8] for i in range(10)}
        terms[tuple(range(8))] = [1e-9]
        P = HomogeneousPolynomial(8, 10, 1, terms)
        rep, rows = self.sided_blocks(P, "CROSS_TERMS", budget=600, seed=0)
        assert rows == [1, 89, 16, 280, 214]
        assert rep.to_dict() == reference_falsify(P, "CROSS_TERMS", budget=600, seed=0).to_dict()

    def test_exact_and_dense_searches_double_their_rows(self):
        # exact coefficients make R 0, and so does a dense (4, 12) polynomial
        # under a claim that evaluates its form: its 1365 keys have
        # A = 12^4 arrangements, 4 (2 A + m d) > 2^14
        cfg = ToleranceConfig(falsify_threshold=1e300)
        exact = {(i,) * 4: [Fraction(i + 1)] for i in range(6)}
        exact[(0, 2, 3, 5)] = [Fraction(1, 3)]
        rep, rows = self.sided_blocks(HomogeneousPolynomial(4, 6, 1, exact), "CROSS_TERMS",
                                      budget=100, seed=0, cfg=cfg)
        assert rep.inconclusive and rows == [1, 2, 4, 8, 15, 16, 32, 22]
        coeffs = np.random.default_rng(1).uniform(0.5, 2.0, 1365)
        dense = dict(zip(itertools.combinations_with_replacement(range(12), 4),
                         ([c] for c in coeffs)))
        rep, rows = self.sided_blocks(HomogeneousPolynomial(4, 12, 1, dense), "GM",
                                      budget=300, seed=0, cfg=cfg)
        assert rep.inconclusive and rows == [3, 6, 12, 24, 48, 96, 111]

    @pytest.mark.parametrize("budget, block, sizes", [
        (600, 1024, [16, 582]),
        (5000, 100, [16, 100, 100, 100, 100]),
        (40, 1024, [16, 22]),
    ])
    def test_block_schedule(self, budget, block, sizes):
        # a mixed coefficient of 5e-7 keeps every residual on a disjoint pair
        # under the 1e-6 witness threshold, but not under the additivity
        # check's 1e-9; after 2 structured pairs, the random phase's blocks
        # grow from 16, a block of T rows followed by 2 T + R up to
        # BLOCK_TRIALS, capped by the budget left. CROSS_TERMS evaluates P
        # alone, at its m = 3 keys into d = 1 entry, so a row of its pairs
        # (k = 2) counts 2 (2 m + m d) = 18 entries: R = 2^14 // 18 = 910
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

    @staticmethod
    def searched_blocks(P, block=theorems.BLOCK_TRIALS, **kwargs):
        """falsify(P, "HM", seed=4, **kwargs), with the (lo, hi) blocks of the
        structured family and the sizes of the random blocks that it built."""
        structured, random = [], []
        real_structured, real_random = theorems._structured_rows, theorems._random_rows

        def structured_spy(count, n, amplitudes, lo, hi):
            structured.append((lo, hi))
            return real_structured(count, n, amplitudes, lo, hi)

        def random_spy(claim, P, cp, rng, size):
            random.append(size)
            return real_random(claim, P, cp, rng, size)

        with patch.object(theorems, "_structured_rows", structured_spy), \
                patch.object(theorems, "_random_rows", random_spy), \
                patch.object(theorems, "BLOCK_TRIALS", block):
            rep = falsify(P, "HM", seed=4, **kwargs)
        return rep, structured, random

    @pytest.mark.parametrize("budget, block, structured, random", [
        # one pair of 2 rows first, then 2 T + R rows after a block of T, up
        # to the family's 12 pairs; then the random phase's blocks from 16.
        # P has m = 5 keys of A = 4 + 6 arrangements into d = 1 entry, so a
        # row of k = 3 vectors counts 3 (2 A + m d) = 75 entries:
        # R = 2^14 // 75 = 218
        (700, 1024, [(0, 2), (2, 24)], [16, 250, 410]),
        # BLOCK_TRIALS caps both phases' blocks
        (40, 3, [(0, 2), (2, 5), (5, 8), (8, 11), (11, 14), (14, 17), (17, 20), (20, 23),
                 (23, 24)], [3, 3, 3, 3, 3, 1]),
        # also below both phases' first block sizes
        (30, 1, [(r, r + 1) for r in range(24)], [1] * 6),
        # a budget that ends in the middle of a pair leaves no random phase
        (5, 1024, [(0, 2), (2, 5)], []),
    ])
    def test_structured_schedule(self, budget, block, structured, random):
        # no residual reaches a huge witness threshold, so each search spends
        # its budget
        P = HomogeneousPolynomial(3, 4, 1, {**{(i,) * 3: [1.0] for i in range(4)},
                                            (0, 1, 2): [1.0]})
        cfg = ToleranceConfig(falsify_threshold=1e300)
        rep, seen, sizes = self.searched_blocks(P, block, budget=budget, cfg=cfg)
        assert rep.inconclusive and rep.trials == budget
        assert seen == structured and sizes == random

    def test_witness_at_the_first_pair_costs_one_block(self):
        # the key (0, 0, 1) shows at the first pair's second split, (f, f, g)
        P = HomogeneousPolynomial(3, 4, 1, {**{(i,) * 3: [1.0] for i in range(4)},
                                            (0, 0, 1): [1.0]})
        rep, seen, sizes = self.searched_blocks(P, budget=10_000)
        assert rep.counterexample["source"] == "structured" and rep.trials == 2
        assert seen == [(0, 2)] and sizes == []
        assert rep.to_dict() == reference_falsify(P, "HM", budget=10_000, seed=4).to_dict()

    @pytest.mark.parametrize("claim_id", ["HM", "CROSS_TERMS", "WGM"])
    def test_random_rows_do_not_depend_on_the_schedule_or_the_structured_phase(self,
                                                                                claim_id):
        # every residual stays under a huge witness threshold, so each search
        # spends its budget; random input k is row k of the random phase's own
        # stream whatever the block schedule and whatever the structured
        # phase drew from the seed's stream
        P = HomogeneousPolynomial(3, 3, 1, {(0, 1, 2): [1.0], (0, 0, 0): [1.0]})
        cfg = ToleranceConfig(falsify_threshold=1e300)
        count = 2 if claim_id == "CROSS_TERMS" else 3
        real_rows, real_amplitudes = theorems._random_rows, sampling.log_uniform

        def random_inputs(block, first, extra_draws):
            seen = []

            def rows(*args):
                seen.append(real_rows(*args))
                return seen[-1]

            def amplitudes(rng, *args, **kwargs):
                rng.random(extra_draws)
                return real_amplitudes(rng, *args, **kwargs)

            with patch.object(theorems, "_random_rows", rows), \
                    patch.object(theorems, "BLOCK_TRIALS", block), \
                    patch.object(theorems, "_FIRST_RANDOM_BLOCK", first), \
                    patch.object(sampling, "log_uniform", amplitudes):
                rep = falsify(P, claim_id, budget=700, seed=6, cfg=cfg)
            assert rep.inconclusive and rep.trials == 700
            return np.concatenate(seen)

        X = random_inputs(theorems.BLOCK_TRIALS, 16, 0)
        assert len(X) == 700 - 6 * (count - 1)
        rng = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(0,)))
        for k, row in enumerate(X):
            row_k = TrialRow(rng, 3 * 3 if count == 2 else count * 3)
            fs = row_k.disjoint_pair(3) if count == 2 else row_k.vectors(count, 3)
            np.testing.assert_array_equal(row, [f.to_array() for f in fs])
        for block, first, extra_draws in ((7, 3, 0), (100, 16, 5), (1024, 1, 40)):
            np.testing.assert_array_equal(random_inputs(block, first, extra_draws), X)

    def test_memory_keeps_to_the_stack_bound(self):
        # n = 4096: P = sum x_i^2 plus the key (n - 2, n - 1), which none of
        # the budget's structured pairs reaches. Blocks of BLOCK_TRIALS
        # pairs peaked at 124 MiB (tracemalloc); a block of pairs now keeps
        # to STACK_BYTES at 16 k n bytes a row. Slack: the evaluation's
        # chunks and bookkeeping
        n = 4096
        P = HomogeneousPolynomial(2, n, 1, {**{(i, i): [1.0] for i in range(n)},
                                            (n - 2, n - 1): [1.0]})
        falsify(P, "CROSS_TERMS", budget=2)  # compiles P
        tracemalloc.start()
        try:
            rep = falsify(P, "CROSS_TERMS", budget=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.inconclusive and rep.trials == 3000 and rep.max_residual == 0.0
        assert peak <= polynomials.STACK_BYTES + (2 << 20)

    @pytest.mark.parametrize("budget, error, message", [
        (0, ValueError, r"budget must be >= 1"),
        (-3, ValueError, r"budget must be >= 1"),
        (2.5, TypeError, r"budget must be an int, got float"),
        (True, TypeError, r"budget must be an int, got bool"),
        ("600", TypeError, r"budget must be an int, got str"),
    ])
    def test_budget_below_one_rejected_before_the_precondition(self, budget, error, message):
        with patch.object(theorems, "is_positively_orthogonally_additive") as check:
            with pytest.raises(error, match=message):
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6),
           st.sampled_from(["strong", "weak", "exact", "additive"]),
           st.sampled_from([1, 3, 40, 130]), st.booleans(), st.integers(1, 5),
           st.integers(0, 2**32 - 1))
    def test_sub_blocks_match_per_trial_reference(self, s, n, kind, trials, exhaustive, rows,
                                                  seed):
        # a STACK_BYTES of ``rows`` trials splits each block of 7 into
        # sub-blocks, which need not divide it; the masks stay one call a block
        rng = np.random.default_rng(seed)
        P = falsify_polynomial(kind, rng, s, n, 1)
        kwargs = dict(trials=trials, seed=seed, exhaustive=exhaustive)
        with patch.object(polynomials, "STACK_BYTES", 8 * 6 * n * rows), \
                patch.object(polynomials, "BLOCK_TRIALS", 7):
            got = outcome(is_positively_orthogonally_additive, P, **kwargs)
        assert got == outcome(reference_additivity, P, **kwargs)

    def test_memory_keeps_to_the_stack_bound(self):
        # n = 4096: 1024 trials' entries at once took 196 MiB (tracemalloc),
        # and one draw of 1024 trials' int64 masks 36 MiB; now each block's
        # masks, entries and sides keep to STACK_BYTES at 48 n bytes a
        # trial. Slack: the evaluation's chunks and bookkeeping
        n = 4096
        P = make_diagonal(np.linspace(0.5, 2.0, n), 2)
        is_positively_orthogonally_additive(P, trials=2, seed=1)  # compiles P
        tracemalloc.start()
        try:
            rep = is_positively_orthogonally_additive(P, trials=1024, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.trials == 1024
        assert peak <= polynomials.STACK_BYTES + (2 << 20)

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


def bits(value):
    """A value's bytes for floats, each entry's type and repr for objects
    (repr keeps the sign of a zero), recursively through payloads."""
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return "objects", [(type(v), repr(v)) for v in value.ravel().tolist()], value.shape
        return str(value.dtype), value.tobytes(), value.shape
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return type(value), repr(value)


def loop_hm_sides(P, X):
    """The HM sides as s + 1 single-variant form calls."""
    s = X.shape[1]
    slots = [X[:, i] for i in range(s)]
    eta = harmonic_mean_stack(X)
    lhs = P.form(slots) * s
    rhs = None
    for j in range(s):
        term = P.form(slots[:j] + [eta] + slots[j + 1:])
        rhs = term if rhs is None else rhs + term
    return lhs, rhs


def loop_rmp_sides(P, X):
    """The RMP sides as k + 1 single-variant calls of P."""
    return P(root_mean_power_stack(P.degree, X)), sum(P(X[:, i]) for i in range(X.shape[1]))


def loop_additivity_sides(P, f, g):
    return P(f + g), P(f) + P(g)


def loop_cross_rows(claim, X, P, cp, cfg):
    """The CROSS_TERMS kernel with one form call per split of s slots."""
    f, g = X[:, 0], X[:, 1]
    s = P.degree
    exact = theorems._exact(X, P)
    mixed_tol, recon_tol = (cfg.exact_slack,) * 2 if exact else (cfg.mixed_abs, cfg.identity_rel)
    mixed_worst = np.zeros(len(f))
    witness = np.full(len(f), -1)
    values, recon = [], None
    for k in range(0, s + 1):
        val = P.form([f] * k + [g] * (s - k))
        values.append(val)
        term = val * math.comb(s, k)
        recon = term if recon is None else recon + term
        if 1 <= k <= s - 1:
            mag = np.max(np.abs(val), axis=1)
            if not exact:
                mag = mag.astype(float, copy=False)
                mag[np.isnan(mag)] = np.inf
            better = mag > mixed_worst
            mixed_worst = np.where(better, mag, mixed_worst)
            witness[better & (mag > mixed_tol)] = k
    total = P(f + g)
    recon_res = row_residuals(total, recon, switch=cfg.relative_switch)
    passed = (mixed_worst <= mixed_tol) & (recon_res <= recon_tol)

    def payload(i):
        k = int(witness[i])
        mixed_witness = {"copies_of_f": k, "value": values[k][i]} if k >= 0 else None
        return cross_payload([f[i].tolist(), g[i].tolist()], float(mixed_worst[i]),
                              float(recon_res[i]), mixed_witness, total[i], recon[i])

    return mixed_worst.astype(float, copy=False), passed, payload


def side_stacks(kind, rng, s, n, d, T, exact):
    """The polynomials of T rows: one shared P, its exact copy, per-row
    diagonal ones, or per-row ones taken from a larger stack in another
    order. Coefficients are signed, so zero entries give -0.0 terms."""
    if kind == "shared":
        P = sparse_polynomial(rng, s, n, d, mixed_terms=3, mixed_mass=0.5) if n > 1 else \
            make_diagonal(rng.uniform(-2, 2, (n, d)), s)
        if exact:
            P = HomogeneousPolynomial(s, n, d, {
                key: [Fraction(float(c)).limit_denominator(64) for c in coeff]
                for key, coeff in P.terms.items()})
        return TermStack.of(P)
    coeffs = rng.uniform(-2, 2, (2 * T if kind == "taken" else T, n, d))
    if exact:
        coeffs = np.array([Fraction(float(c)).limit_denominator(64) for c in coeffs.ravel()],
                          dtype=object).reshape(coeffs.shape)
    stack = TermStack.diagonal(coeffs, s)
    return stack.take(rng.permutation(2 * T)[:T]) if kind == "taken" else stack


class TestStackedSides:
    """Each claim side is one stacked evaluation; it repeats the loop of
    single-variant calls bit for bit, whatever the chunk size."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 5), st.sampled_from([1, 2]), st.integers(1, 6),
           st.sampled_from(["shared", "diagonal", "taken"]), st.booleans(),
           st.integers(1, 4000), st.integers(0, 2**32 - 1))
    def test_sides_equal_the_loop_of_single_calls(self, s, n, d, T, kind, exact, budget, seed):
        rng = np.random.default_rng(seed)
        P = side_stacks(kind, rng, s, n, d, T, exact)
        X = np.exp(rng.uniform(-3, 3, (T, s, n)))
        X[rng.random(X.shape) < 0.3] = 0.0
        pair = X[:, :2] * (np.arange(n) % 2 == np.arange(2)[:, None])  # disjoint f, g
        inputs = [X, pair]
        if exact:
            inputs = [np.array([Fraction(float(v)).limit_denominator(64) for v in A.ravel()],
                               dtype=object).reshape(A.shape) for A in inputs]
        X, pair = inputs
        claim, cfg = theorems.CLAIM_TABLE["CROSS_TERMS"], DEFAULT_TOLERANCES
        cases = [
            (lambda: theorems._hm_sides(P, X, None), lambda: loop_hm_sides(P, X)),
            (lambda: polynomials._additivity_sides(P, pair[:, 0], pair[:, 1]),
             lambda: loop_additivity_sides(P, pair[:, 0], pair[:, 1])),
            (lambda: theorems._cross_rows(claim, pair, P, None, cfg),
             lambda: loop_cross_rows(claim, pair, P, None, cfg)),
        ]
        if not exact:  # the root mean power takes roots
            cases.append((lambda: theorems._rmp_sides(P, X, None), lambda: loop_rmp_sides(P, X)))
        for stacked, loop in cases:
            expect = loop()
            with patch.object(polynomials, "CHUNK_BYTES", budget):
                got = stacked()
            if len(got) == 3:  # a kernel: residuals, flags and each row's payload
                got = got[0], got[1], [got[2](t) for t in range(T)]
                expect = expect[0], expect[1], [expect[2](t) for t in range(T)]
            assert bits(list(got)) == bits(list(expect))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 4), st.sampled_from([1, 2]), st.integers(1, 6),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_cross_rows_match_the_loop_at_ties_and_nan_forms(self, s, n, d, T, exact, seed):
        # small integer entries and coefficients make equal magnitudes at
        # several k common; an infinite entry of f beside its zeros makes
        # NaN forms (inf * 0), which count as infinite
        rng = np.random.default_rng(seed)
        keys = list(itertools.combinations_with_replacement(range(n), s))
        picked = rng.choice(len(keys), size=min(len(keys), 4), replace=False)
        coeffs = rng.choice([-1.0, 1.0, 2.0], (len(picked), d))
        if exact:
            coeffs = coeffs.astype(int).astype(object) * Fraction(1)
        P = TermStack.of(HomogeneousPolynomial(s, n, d, {keys[i]: c for i, c in zip(picked, coeffs)}))
        X = rng.choice([0.0, 1.0, 2.0] if exact else [0.0, 1.0, 2.0, np.inf], (T, 2, n))
        X = np.where(np.arange(n) % 2 == np.arange(2)[:, None], X, 0.0)  # disjoint f, g
        if exact:
            X = X.astype(int).astype(object) * Fraction(1)
        claim, cfg = theorems.CLAIM_TABLE["CROSS_TERMS"], DEFAULT_TOLERANCES
        got = theorems._cross_rows(claim, X, P, None, cfg)
        expect = loop_cross_rows(claim, X, P, None, cfg)
        assert bits([got[0], got[1], [got[2](t) for t in range(T)]]) == \
            bits([expect[0], expect[1], [expect[2](t) for t in range(T)]])

    def test_one_evaluation_per_side(self):
        # HM's s + 1 form variants, RMP's k + 1 rows of P, the additivity
        # sides' three and CROSS_TERMS' s + 1 splits each go in one call
        rng = np.random.default_rng(3)
        P = TermStack.of(sparse_polynomial(rng, 3, 4, 2, mixed_terms=2, mixed_mass=0.5))
        X = np.exp(rng.uniform(-1, 1, (5, 3, 4)))
        calls = []
        real = TermStack._evaluate

        def spy(stack, variants, *args):
            calls.append(len(variants))
            return real(stack, variants, *args)

        with patch.object(TermStack, "_evaluate", spy):
            theorems._hm_sides(P, X, None)
            theorems._rmp_sides(P, X, None)
            polynomials._additivity_sides(P, X[:, 0], X[:, 1])
            theorems._cross_rows(theorems.CLAIM_TABLE["CROSS_TERMS"], X[:, :2], P, None,
                                 DEFAULT_TOLERANCES)
        assert calls == [4, 4, 3, 4, 1]

    @pytest.mark.parametrize("s, n, T", [(4, 5, 1024), (5, 6, 256)])
    def test_sides_keep_to_the_chunk_budget(self, s, n, T):
        # the dense polynomial's (s + 1) T rows would take 26 and 96 MB of
        # slot products at once; each chunk's buffers keep to CHUNK_BYTES
        rng = np.random.default_rng(s)
        keys = list(itertools.combinations_with_replacement(range(n), s))
        P = TermStack.of(HomogeneousPolynomial(s, n, 1, dict(zip(keys, rng.uniform(-2, 2, (len(keys), 1))))))
        X = np.exp(rng.uniform(-1, 1, (T, s, n)))
        P.form([X[:1, k] for k in range(s)])  # builds the arrangement tables
        tracemalloc.start()
        try:
            theorems._hm_sides(P, X, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chunk's buffers, a few times over as the products' levels, the
        # index casts and the group sums overlap, beside the (s + 1, T)
        # values and the harmonic mean
        assert peak <= 6 * polynomials.CHUNK_BYTES


def grouped(kernel, claim, X, P, rows, cfg):
    """The kernel run as a block's rows were run before one call took them
    all: once per drawn tuple size or partition, on the rows that drew it,
    each on its own slots and with its own polynomials, the results merged
    back in row order."""
    if rows is None or rows.counts is None:
        return kernel(claim, X, P, rows, cfg)
    keys = [rows.parts(t) if rows.parts else int(rows.counts[t]) for t in range(len(X))]
    residuals, passed, payloads = np.empty(len(X)), np.empty(len(X), dtype=bool), {}
    for key in dict.fromkeys(keys):
        idx = np.array([t for t, other in enumerate(keys) if other == key])
        own = None if rows.parts is None else theorems._partition_rows(
            CompletePartition(key, sum(key)))
        res, ok, payload = kernel(claim, X[idx, :rows.counts[idx[0]]],
                                  None if P is None else P.take(idx), own, cfg)
        residuals[idx], passed[idx] = res, ok
        payloads.update({t: functools.partial(payload, i) for i, t in enumerate(idx)})
    return residuals, passed, lambda t: payloads[t]()


def compared_kernels(calls):
    """Claims whose kernels are also run grouped, on every block, with each
    row's residual bytes, pass flag and counterexample compared; ``calls``
    gets each call's claim and row count."""
    def checked(kernel):
        def run(claim, X, P, rows, cfg):
            res, ok, payload = kernel(claim, X, P, rows, cfg)
            ref_res, ref_ok, ref_payload = grouped(kernel, claim, X, P, rows, cfg)
            assert res.tobytes() == ref_res.tobytes()
            np.testing.assert_array_equal(ok, ref_ok)
            for t in np.flatnonzero(~ok):
                assert bits(payload(t)) == bits(ref_payload(t))
            calls.append((claim.id, len(X)))
            return res, ok, payload
        return run

    return {cid: claim._replace(kernel=checked(claim.kernel))
            for cid, claim in theorems.CLAIM_TABLE.items()}


class TestOneKernelCall:
    """A block is one kernel call, whatever tuple size or partition each of
    its rows drew; each row gets the bytes of its own group's call."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["RMP", "SCHUR", "ORTHO", "GEOS", "WGM"]),
        st.integers(1, 6),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, "shared", "exact", "sparse"]),
        st.sampled_from([7, theorems.BLOCK_TRIALS]),
    )
    def test_one_call_matches_the_groups(self, claim_id, s, n, d, trials, seed, kind, block):
        if claim_id in theorems.POLY_CLAIMS:
            s = max(s, 2)
        rng = np.random.default_rng(seed)
        poly = None
        if kind == "sparse" and min(s, n) > 1:  # non-additive: failing rows, with payloads
            poly = sparse_polynomial(rng, s, n, d, mixed_terms=3, mixed_mass=0.3)
        elif kind is not None:
            poly = make_diagonal(rng.uniform(-2, 2, (n, d)), s)
            if kind == "exact":
                poly = HomogeneousPolynomial(s, n, d, {
                    key: [Fraction(float(c)).limit_denominator(64) for c in coeff]
                    for key, coeff in poly.terms.items()})
        calls = []
        with patch.dict(theorems.CLAIM_TABLE, compared_kernels(calls)), \
                patch.object(theorems, "BLOCK_TRIALS", block):
            verify_claim(claim_id, s=s, n=n, d=d, trials=trials, seed=seed, poly=poly)
        assert [rows for _, rows in calls] == [
            min(block, trials - start) for start in range(0, trials, block)]

    @pytest.mark.parametrize("n", [1, 3])
    def test_powers_beyond_the_float_range(self, n):
        # x^120 leaves the float range both ways for entries in [1e-3, 1e3],
        # so the root mean power's rescue runs on rows of 2, 3 and 4 vectors
        calls = []
        with patch.dict(theorems.CLAIM_TABLE, compared_kernels(calls)), \
                patch.object(theorems, "BLOCK_TRIALS", 7):
            verify_claim("RMP", s=120, n=n, d=2, trials=40, seed=n)
        assert len(calls) == 6

    @pytest.mark.parametrize("claim_id", CLAIMS)
    def test_one_call_per_block(self, claim_id):
        calls = []

        def counted(kernel):
            def run(claim, X, P, rows, cfg):
                calls.append(len(X))
                return kernel(claim, X, P, rows, cfg)
            return run

        table = {cid: claim._replace(kernel=counted(claim.kernel))
                 for cid, claim in theorems.CLAIM_TABLE.items()}
        with patch.dict(theorems.CLAIM_TABLE, table), patch.object(theorems, "BLOCK_TRIALS", 7):
            verify_claim(claim_id, s=4, n=3, d=2, trials=30, seed=2)
        assert calls == [7, 7, 7, 7, 2]
