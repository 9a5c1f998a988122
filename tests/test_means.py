"""Means: closed forms against scalar oracles, two-route agreement, grids."""

import dataclasses
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from oapoly import (
    CompletePartition,
    InfimumSpec,
    MeanResult,
    PositiveVector,
    WeightVector,
    enumerate_complete,
    geometric_mean,
    harmonic_mean,
    harmonic_mean_via_infimum,
    root_mean_power,
    weighted_geometric_mean,
    weights,
    wgm_via_infimum,
)
from oapoly import sampling
from oapoly.lattice import DimensionMismatchError, LatticeVector
from oapoly.means import (
    _log_coefficients,
    _log_grid,
    _simplex_grid,
    _squared_simplex,
    _within_range,
    geometric_mean_stack,
    harmonic_mean_stack,
    root_mean_power_stack,
    weighted_geometric_mean_stack,
)


def pv(*entries):
    return PositiveVector(entries)


class TestRootMeanPower:
    def test_pythagorean(self):
        # oracle: hypot(3, 4) = 5
        out = root_mean_power(2, [pv(3.0), pv(4.0)])
        assert out.entries[0] == pytest.approx(math.hypot(3, 4), rel=1e-15)

    def test_single_argument_power_one(self):
        f = pv(0.25, 7, 2)
        assert root_mean_power(1, [f]) == f

    def test_zeros(self):
        assert root_mean_power(3, [pv(0.0), pv(0.0)]).entries == (0.0,)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            root_mean_power(0, [pv(1.0)])

    def test_power_is_an_int_not_a_bool(self):
        for s in (True, 2.0):
            with pytest.raises(ValueError) as info:
                root_mean_power(s, [pv(1.0), pv(3.0)])
            assert str(info.value) == f"power must be a positive integer, got {s!r}"

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            root_mean_power(2, [PositiveVector([1.0]), pv(1.0) - pv(2.0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            root_mean_power(2, [pv(1.0), pv(1.0, 2.0)])

    @pytest.mark.parametrize("x, s", [(1e200, 2), (1e300, 3), (1e-200, 2), (1e-120, 3)])
    def test_powers_beyond_the_float_range(self, x, s):
        # x^s leaves the float range, the mean 2^(1/s) x does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = root_mean_power(s, [pv(x, 3.0), pv(x, 4.0)]).entries
        assert out[0] == pytest.approx(2 ** (1 / s) * x, rel=1e-15)
        assert out[1] == root_mean_power(s, [pv(3.0), pv(4.0)]).entries[0]

    @pytest.mark.parametrize("s, fs, expect", [
        (2, [[1e-200], [0.0]], [1e-200]),
        (2, [[0.0], [1e-200]], [1e-200]),
        (3, [[1e-150, 2.0], [0.0, 1.0]], [1e-150, 9.0 ** (1 / 3)]),
        (2, [[1e-200, 0.0], [0.0, 0.0], [1e-200, 0.0]], [2 ** 0.5 * 1e-200, 0.0]),
    ])
    def test_a_vanished_argument_does_not_stop_the_rescue(self, s, fs, expect):
        # a sum is 0 only when every argument is: a power that underflows
        # beside a zero is rescued as it is beside a positive argument
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = root_mean_power(s, [PositiveVector(f) for f in fs]).entries
        assert out == pytest.approx(expect, rel=1e-15, abs=0)

    def test_a_ragged_row_counts_its_slots_in_use(self):
        X = np.array([[[1e-200], [0.0], [7.0]], [[0.0], [0.0], [7.0]]])
        out = root_mean_power_stack(2, X, np.array([2, 2]))
        np.testing.assert_array_equal(out, [[1e-200], [0.0]])

    def test_zero_rule_of_sums_and_products(self):
        # the rescue marks the entries it is handed with 1
        X = np.array([[1e-200, 1e-200, 0.0], [0.0, 1e-200, 0.0]])

        def rescued(direct, summed):
            return _within_range(direct, lambda A: np.ones(len(A)), X, summed=summed)

        square_sum = lambda X: np.add.reduce(X * X, axis=-2)  # noqa: E731
        product = lambda X: np.multiply.reduce(X, axis=-2)  # noqa: E731
        np.testing.assert_array_equal(rescued(square_sum, True), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(rescued(product, False), [0.0, 1.0, 0.0])

    def test_in_range_bytes_unchanged(self):
        X = np.random.default_rng(3).uniform(1e-3, 1e3, (50, 4, 6))
        for s in (1, 2, 5):
            np.testing.assert_array_equal(root_mean_power_stack(s, X),
                                          np.sum(X**s, axis=-2) ** (1.0 / s))
        np.testing.assert_array_equal(geometric_mean_stack(X), np.prod(X, axis=-2) ** 0.25)


class TestGeometricMean:
    def test_coordinatewise(self):
        # oracle: sqrt(1*4) = 2 and sqrt(9*1) = 3
        out = geometric_mean([pv(1, 9), pv(4, 1)])
        assert out.entries == pytest.approx((2.0, 3.0), rel=1e-15)

    def test_idempotent(self):
        f = pv(0.3, 5, 1)
        out = geometric_mean([f, f, f])
        assert np.allclose(out.to_array(), f.to_array(), rtol=1e-15)

    def test_zero_annihilates(self):
        out = geometric_mean([pv(0, 2), pv(5, 2)])
        assert out.entries == (0.0, 2.0)

    @pytest.mark.parametrize("xs, expect", [
        ((1e300, 1e300), 1e300),
        ((1e-300, 1e-300, 1e-300), 1e-300),
        ((1e300, 1e300, 1e-300), 1e100),
        ((1e200, 1e200, 1e200, 1e-300), 1e75),
    ])
    def test_products_beyond_the_float_range(self, xs, expect):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = geometric_mean([pv(x, 0.0) for x in xs]).entries
        assert out[0] == pytest.approx(expect, rel=1e-15) and out[1] == 0.0


class TestHarmonicMean:
    def test_two_args(self):
        # oracle: 2 / (1/1 + 1/3) = 3/2 exactly, via Fractions
        expect = Fraction(2) / (Fraction(1, 1) + Fraction(1, 3))
        assert expect == Fraction(3, 2)
        out = harmonic_mean([pv(1.0), pv(3.0)])
        assert out.entries[0] == pytest.approx(1.5, rel=1e-15)

    def test_three_args(self):
        # oracle: 3 / (1 + 1/2 + 1/4) = 12/7
        expect = Fraction(3) / (Fraction(1) + Fraction(1, 2) + Fraction(1, 4))
        assert expect == Fraction(12, 7)
        out = harmonic_mean([pv(1.0), pv(2.0), pv(4.0)])
        assert out.entries[0] == pytest.approx(12 / 7, rel=1e-15)

    def test_zero_branch(self):
        out = harmonic_mean([pv(0.0, 2.0, 5.0), pv(3.0, 0.0, 5.0)])
        assert out.entries == (0.0, 0.0, 5.0)

    def test_exact_mode(self):
        fs = [PositiveVector.exact([1, 0]), PositiveVector.exact([3, 7])]
        out = harmonic_mean(fs)
        assert out.is_exact
        assert out.entries == (Fraction(3, 2), Fraction(0))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_exact_stack_rows(self, T, k, n, seed):
        rng = np.random.default_rng(seed)
        nums = rng.integers(0, 9, (T, k, n))
        nums[rng.random((T, k, n)) < 0.6] += 1  # zeros in some coordinates, not all
        X = np.empty((T, k, n), dtype=object)
        X[...] = [[[Fraction(int(a), int(b)) for a, b in zip(row, rng.integers(1, 6, n))]
                   for row in block] for block in nums]
        out = harmonic_mean_stack(X)
        assert out.shape == (T, n)
        assert all(type(v) is Fraction for v in out.ravel())
        for t in range(T):
            fs = [PositiveVector.exact(X[t, j]) for j in range(k)]
            assert tuple(out[t]) == harmonic_mean(fs).entries
            for i in range(n):
                column = X[t, :, i]
                # oracle: the piecewise definition, column by column
                expect = (Fraction(0) if any(v == 0 for v in column)
                          else Fraction(k) / sum(Fraction(1) / v for v in column))
                assert out[t, i] == expect

    def test_exact_mode_rejected_elsewhere(self):
        fs = [PositiveVector.exact([1]), PositiveVector.exact([3])]
        with pytest.raises(ValueError):
            geometric_mean(fs)
        with pytest.raises(ValueError):
            root_mean_power(2, fs)


class TestWeightedGeometricMean:
    def test_even_weights(self):
        out = weighted_geometric_mean([Fraction(1, 2), Fraction(1, 2)], [pv(1.0), pv(9.0)])
        assert out.entries[0] == pytest.approx(3.0, rel=1e-15)

    def test_idempotent_any_weights(self):
        f = pv(0.7, 11)
        w = weights(CompletePartition((2, 1, 1), 4))
        out = weighted_geometric_mean(w, [f, f, f])
        assert np.allclose(out.to_array(), f.to_array(), rtol=1e-15)

    def test_sixteen_one_one(self):
        # oracle: 16**0.5 * 1 * 1 = 4
        w = weights(CompletePartition((2, 1, 1), 4))
        out = weighted_geometric_mean(w, [pv(16.0), pv(1.0), pv(1.0)])
        assert out.entries[0] == pytest.approx(4.0, rel=1e-15)

    def test_arity_mismatch(self):
        w = weights(CompletePartition((1, 1), 2))
        with pytest.raises(ValueError):
            weighted_geometric_mean(w, [pv(1.0)])

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_geometric_mean([0.7, 0.7], [pv(1.0), pv(1.0)])


# -- infimum representations ----------------------------------------------------


def harmonic_infimum_oracle(xs):
    """Solve s * inf { sum a_k x_k : 0 <= a_k <= 1, sum sqrt(a_k) = 1 } directly."""
    s = len(xs)
    start = np.full(s, 1.0 / s**2)
    sol = minimize(
        lambda a: float(np.dot(a, xs)),
        start,
        constraints=[{"type": "eq", "fun": lambda a: np.sqrt(np.abs(a)).sum() - 1.0}],
        bounds=[(0.0, 1.0)] * s,
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return s * float(sol.fun)


class TestHarmonicInfimum:
    def test_lagrange_matches_worked_minimum(self):
        # u parameterization: minimize u^2*1 + (1-u)^2*3; stationary u = 3/4,
        # objective 3/4, times s = 2 gives 3/2
        u = np.linspace(0, 1, 200001)
        obj = u**2 * 1.0 + (1 - u) ** 2 * 3.0
        assert u[np.argmin(obj)] == pytest.approx(0.75, abs=1e-4)
        assert 2 * obj.min() == pytest.approx(1.5, abs=1e-7)
        spec = InfimumSpec("harmonic", arity=2)
        res = harmonic_mean_via_infimum([pv(1.0), pv(3.0)], spec, "lagrange")
        assert res.method == "lagrange"
        assert res.value.entries[0] == pytest.approx(1.5, rel=1e-12)

    def test_lagrange_matches_slsqp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = int(rng.integers(2, 5))
            xs = rng.uniform(0.5, 5.0, s)
            spec = InfimumSpec("harmonic", arity=s)
            res = harmonic_mean_via_infimum([pv(float(x)) for x in xs], spec, "lagrange")
            assert res.value.entries[0] == pytest.approx(
                harmonic_infimum_oracle(xs), rel=1e-6
            )

    def test_all_equal_is_fixed_point(self):
        f = pv(0.2, 3.0, 40.0)
        spec = InfimumSpec("harmonic", arity=3, resolution=24)
        for method in ("lagrange", "grid"):
            res = harmonic_mean_via_infimum([f, f, f], spec, method)
            if method == "lagrange":
                assert np.allclose(res.value.to_array(), f.to_array(), rtol=1e-14)
            else:
                assert np.all(res.value.to_array() >= f.to_array() * (1 - 1e-12))

    def test_zero_coordinate(self):
        spec = InfimumSpec("harmonic", arity=2, resolution=16)
        for method in ("lagrange", "grid"):
            res = harmonic_mean_via_infimum([pv(0.0, 1.0), pv(2.0, 2.0)], spec, method)
            assert res.value.entries[0] == 0.0

    def test_grid_overestimates_and_converges(self):
        rng = np.random.default_rng(3)
        for s in (2, 3):
            fs = [pv(*rng.uniform(0.5, 4.0, 2)) for _ in range(s)]
            closed = harmonic_mean(fs).to_array()
            prev = None
            for m in (8, 16, 32, 64, 128):
                spec = InfimumSpec("harmonic", arity=s, resolution=m)
                res = harmonic_mean_via_infimum(fs, spec, "grid")
                g = res.value.to_array()
                assert np.all(g >= closed * (1 - 1e-12))
                gap = float(np.max(g - closed))
                assert gap <= res.residual_bound + 1e-15
                if prev is not None:
                    assert gap <= prev + 1e-15
                prev = gap
            assert prev <= 2e-4 * float(np.max(closed))

    def test_grid_bound_near_the_float_maximum(self):
        # the a priori bound s * sum_k x_k / m^2 is finite although the sum is not
        spec = InfimumSpec("harmonic", arity=2, resolution=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = harmonic_mean_via_infimum([pv(1e308, 1.0), pv(1e308, 3.0)], spec, "grid")
        assert res.value.entries[0] == 1e308
        assert res.residual_bound == 6.25e306

    def test_grid_descends_to_twelve_sevenths(self):
        # closed form 3/(1 + 1/2 + 1/4) = 12/7; the grid approaches it from above
        fs = [pv(1.0), pv(2.0), pv(4.0)]
        target = 12 / 7
        values = []
        for m in (6, 12, 24, 48, 96):
            spec = InfimumSpec("harmonic", arity=3, resolution=m)
            values.append(harmonic_mean_via_infimum(fs, spec, "grid").value.entries[0])
        assert all(v >= target * (1 - 1e-12) for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(target, rel=1e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InfimumSpec("harmonic")  # missing arity
        with pytest.raises(ValueError):
            InfimumSpec("nope", arity=2)
        with pytest.raises(ValueError):
            InfimumSpec("harmonic", arity=2, resolution=0)
        spec = InfimumSpec("harmonic", arity=2)
        with pytest.raises(ValueError):
            harmonic_mean_via_infimum([pv(1.0)], spec, "lagrange")
        with pytest.raises(ValueError):
            harmonic_mean_via_infimum([pv(1.0), pv(1.0)], spec, "newton")
        wspec = InfimumSpec("weighted_geometric", weights=weights(CompletePartition((1, 1), 2)))
        with pytest.raises(ValueError):
            harmonic_mean_via_infimum([pv(1.0), pv(1.0)], wspec)

    @pytest.mark.parametrize("kind, fields, message", [
        ("harmonic", {"arity": True}, "harmonic infimum needs an integer arity >= 1, got True"),
        ("harmonic", {"arity": 2.0}, "harmonic infimum needs an integer arity >= 1, got 2.0"),
        ("harmonic", {"resolution": 2.5}, "grid resolution must be an integer >= 1, got 2.5"),
        ("harmonic", {"resolution": True}, "grid resolution must be an integer >= 1, got True"),
        ("weighted_geometric", {"resolution": 8.0},
         "grid resolution must be an integer >= 1, got 8.0"),
        ("harmonic", {"log_width": math.nan}, "log_width must be finite and positive, got nan"),
        ("weighted_geometric", {"log_width": math.inf},
         "log_width must be finite and positive, got inf"),
        ("weighted_geometric", {"log_width": -math.inf},
         "log_width must be finite and positive, got -inf"),
    ])
    def test_spec_fields_are_named_when_refused(self, kind, fields, message):
        given = {"arity": 2} if kind == "harmonic" else {
            "weights": weights(CompletePartition((1, 1), 2))}
        with pytest.raises(ValueError) as info:
            InfimumSpec(kind, **{**given, **fields})
        assert str(info.value) == message


class TestWgmInfimum:
    def test_lagrange_even_weights(self):
        # (1/2) inf(theta*1 + 9/theta) = sqrt(9) = 3: dense theta-grid oracle
        theta = np.exp(np.linspace(-3, 3, 200001))
        assert 0.5 * np.min(theta * 1.0 + 9.0 / theta) == pytest.approx(3.0, abs=1e-6)
        w = weights(CompletePartition((1, 1), 2))
        spec = InfimumSpec("weighted_geometric", weights=w)
        res = wgm_via_infimum(w, [pv(1.0), pv(9.0)], spec, "lagrange")
        assert res.value.entries[0] == pytest.approx(3.0, rel=1e-12)

    def test_fixed_point(self):
        f = pv(0.4, 6.0)
        w = weights(CompletePartition((2, 1, 1), 4))
        spec = InfimumSpec("weighted_geometric", weights=w, resolution=32)
        res = wgm_via_infimum(w, [f, f, f], spec, "lagrange")
        assert np.allclose(res.value.to_array(), f.to_array(), rtol=1e-14)
        res = wgm_via_infimum(w, [f, f, f], spec, "grid")
        assert np.all(res.value.to_array() >= f.to_array() * (1 - 1e-12))

    def test_grid_single_weight_is_the_argument(self):
        w = weights(CompletePartition((1,), 1))
        f = pv(0.4, 6.0, 0.0)
        res = wgm_via_infimum(w, [f], InfimumSpec("weighted_geometric", weights=w), "grid")
        assert res.value == f and res.method == "grid" and res.residual_bound == 0.0

    def test_zero_coordinate_is_infimum_limit(self):
        w = weights(CompletePartition((1, 1), 2))
        spec = InfimumSpec("weighted_geometric", weights=w, resolution=16)
        for method in ("lagrange", "grid"):
            res = wgm_via_infimum(w, [pv(0.0, 1.0), pv(5.0, 2.0)], spec, method)
            assert res.value.entries[0] == 0.0

    def test_grid_overestimates_and_converges(self):
        rng = np.random.default_rng(17)
        for parts in [(1, 1), (2, 1), (2, 1, 1)]:
            cp = CompletePartition(parts, sum(parts))
            w = weights(cp)
            fs = [pv(*rng.uniform(0.9, 1.4, 2)) for _ in range(len(parts))]
            closed = weighted_geometric_mean(w, fs).to_array()
            prev = None
            for m in (8, 16, 32, 64, 128):
                spec = InfimumSpec("weighted_geometric", weights=w, resolution=m, log_width=0.5)
                res = wgm_via_infimum(w, fs, spec, "grid")
                g = res.value.to_array()
                assert np.all(g >= closed * (1 - 1e-12))
                gap = float(np.max(g - closed))
                assert gap <= res.residual_bound + 1e-15
                if prev is not None:
                    assert gap <= prev + 1e-15
                prev = gap
            assert prev <= 1e-4 * float(np.max(closed))

    def test_grid_sixteen_one_one_bound_decreases(self):
        # value sinks toward 16^(1/2) = 4 and the reported gap bound shrinks with m
        w = weights(CompletePartition((2, 1, 1), 4))
        values, bounds = [], []
        for m in (8, 16, 32, 64):
            spec = InfimumSpec("weighted_geometric", weights=w, resolution=m, log_width=2.0)
            res = wgm_via_infimum(w, [pv(16.0), pv(1.0), pv(1.0)], spec, "grid")
            values.append(res.value.entries[0])
            bounds.append(res.residual_bound)
        assert all(v >= 4.0 * (1 - 1e-12) for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        assert values[-1] == pytest.approx(4.0, rel=1e-3)

    def test_boundary_minimizer_reports_unbounded_gap(self):
        # inputs spread wider than the log box pushes the minimizer to the edge
        w = weights(CompletePartition((1, 1), 2))
        spec = InfimumSpec("weighted_geometric", weights=w, resolution=8, log_width=0.1)
        res = wgm_via_infimum(w, [pv(1e-3), pv(1e3)], spec, "grid")
        assert res.residual_bound == math.inf

    def test_weight_spec_match_enforced(self):
        w1 = weights(CompletePartition((1, 1), 2))
        w2 = weights(CompletePartition((2, 1, 1), 4))
        spec = InfimumSpec("weighted_geometric", weights=w2)
        with pytest.raises(ValueError):
            wgm_via_infimum(w1, [pv(1.0), pv(2.0)], spec)


W211 = weights(CompletePartition((2, 1, 1), 4))


# every mean and route: (call on argument vectors fs, its number of arguments)
ROUTES = {
    "root_mean_power": (lambda fs: root_mean_power(2, fs), 2),
    "geometric_mean": (geometric_mean, 2),
    "harmonic_mean": (harmonic_mean, 2),
    "weighted_geometric_mean": (lambda fs: weighted_geometric_mean(W211, fs), 3),
    **{f"harmonic_{method}": (
        lambda fs, method=method: harmonic_mean_via_infimum(
            fs, InfimumSpec("harmonic", arity=max(len(fs), 1), resolution=8), method), 2)
       for method in ("lagrange", "grid")},
    **{f"wgm_{method}": (
        lambda fs, method=method: wgm_via_infimum(
            W211, fs, InfimumSpec("weighted_geometric", weights=W211, resolution=8), method), 3)
       for method in ("lagrange", "grid")},
}


class TestInvalidCalls:
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("args, error, message", [
        pytest.param(lambda k: [[1.0, 2.0]] + [pv(1.0, 2.0)] * (k - 1), TypeError,
                     "expected a LatticeVector, got list", id="list-first"),
        pytest.param(lambda k: [pv(1.0, 2.0)] * (k - 1) + [[1.0, 2.0]], TypeError,
                     "expected a LatticeVector, got list", id="list-last"),
        pytest.param(lambda k: [], ValueError, "a mean needs at least one argument", id="empty"),
        pytest.param(lambda k: [pv(1.0, 2.0)] * (k - 1) + [pv(1.0)], DimensionMismatchError,
                     "dimension mismatch: 2 vs 1", id="dimensions"),
        pytest.param(lambda k: [pv(1.0, 2.0)] * (k - 1) + [LatticeVector([1.0, -2.0])],
                     ValueError, "means are defined on nonnegative vectors only", id="negative"),
    ])
    def test_invalid_arguments(self, route, args, error, message):
        call, k = ROUTES[route]
        with pytest.raises(error, match=message):
            call(args(k))

    @pytest.mark.parametrize("route", [r for r in ROUTES if r != "harmonic_mean"])
    def test_exact_vectors_only_for_the_harmonic_mean(self, route):
        call, k = ROUTES[route]
        with pytest.raises(ValueError, match="only supported by harmonic_mean"):
            call([PositiveVector.exact([1, 2])] * k)

    def test_mixing_exact_and_float(self):
        with pytest.raises(ValueError, match="cannot mix exact and float vectors"):
            harmonic_mean([PositiveVector.exact([1, 2]), pv(1.0, 2.0)])


class TestGridTables:
    """The cached grid tables are read-only and hold one set of numbers in
    both layouts; a cached weight vector cannot be changed."""

    def assert_read_only(self, table):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0

    @pytest.mark.parametrize("m, k", [(8, 2), (16, 3)])
    def test_squared_simplex(self, m, k):
        U = _simplex_grid(m, k)
        columns, rows = _squared_simplex(m, k, False), _squared_simplex(m, k, True)
        for table in (columns, rows):
            self.assert_read_only(table)
        np.testing.assert_array_equal(rows, U * U)
        np.testing.assert_array_equal(columns, (U * U).T)
        assert columns.flags.c_contiguous and rows.flags.c_contiguous

    @pytest.mark.parametrize("parts, m, width", [((1, 1), 8, 0.5), ((2, 1, 1), 16, 0.1)])
    def test_log_coefficients_and_boundary_mask(self, parts, m, width):
        w = weights(CompletePartition(parts, sum(parts)))
        (columns, edge), (rows, edge_rows) = (_log_coefficients(m, w.floats, width, rows)
                                              for rows in (False, True))
        for table in (columns, rows, edge, edge_rows):
            self.assert_read_only(table)
        np.testing.assert_array_equal(columns, rows.T)
        Yfree = _log_grid(m, len(parts) - 1, width)
        # a point is on the boundary when a free coordinate sits at +-width
        expect = np.any(np.isclose(np.abs(Yfree), width, rtol=0, atol=1e-12), axis=1)
        np.testing.assert_array_equal(edge, expect)
        np.testing.assert_array_equal(edge_rows, expect)
        assert edge.any() and not edge.all()

    def test_cached_weight_vector_is_immutable(self):
        w = weights(CompletePartition((2, 1, 1), 4))
        assert weights(CompletePartition((1, 2, 1), 4)) is w
        assert w.floats == (0.5, 0.25, 0.25)
        for field, value in (("weights", (Fraction(1),)), ("floats", (1.0,))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, field, value)
        floats = w.as_floats()
        floats[0] = 9.0
        assert w.as_floats() == [0.5, 0.25, 0.25] and w.floats[0] == 0.5


class TestMeanResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            MeanResult(pv(1.0), "closed_form", residual_bound=0.1)
        with pytest.raises(ValueError):
            MeanResult(pv(1.0), "grid")
        with pytest.raises(ValueError):
            MeanResult(pv(1.0), "magic")


# -- spec-level invariants --------------------------------------------------------

positive_entries = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=4
)


@st.composite
def positive_tuples(draw, max_count=4):
    xs = draw(positive_entries)
    count = draw(st.integers(1, max_count))
    out = [PositiveVector(xs)]
    for _ in range(count - 1):
        out.append(
            PositiveVector([draw(st.floats(min_value=1e-3, max_value=1e3)) for _ in xs])
        )
    return out


@settings(max_examples=60)
@given(
    positive_tuples(),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=7)),
)
def test_positive_homogeneity(fs, lam):
    s = len(fs)
    for mean in (
        lambda v: root_mean_power(2, v),
        geometric_mean,
        harmonic_mean,
        lambda v: weighted_geometric_mean([Fraction(1, s)] * s, v),
    ):
        scaled = mean([f * lam for f in fs]).to_array()
        direct = mean(fs).to_array() * lam
        assert np.allclose(scaled, direct, rtol=5e-15)


@settings(max_examples=60)
@given(positive_tuples())
def test_hm_gm_am_chain(fs):
    hm = harmonic_mean(fs).to_array()
    gm = geometric_mean(fs).to_array()
    am = np.mean([f.to_array() for f in fs], axis=0)
    eps = 1e-12
    assert np.all(hm <= gm * (1 + eps))
    assert np.all(gm <= am * (1 + eps))


@settings(max_examples=80)
@given(positive_tuples())
def test_min_bounds_harmonic(fs):
    s = len(fs)
    hm = harmonic_mean(fs).to_array()
    low = np.min([f.to_array() for f in fs], axis=0)
    slack = 1 + 5e-16
    assert np.all(low <= hm * slack)
    assert np.all(hm <= s * low * slack)


@settings(max_examples=40)
@given(positive_tuples(max_count=3))
def test_disjoint_pair_kills_harmonic(fs):
    mask = [i % 2 == 0 for i in range(fs[0].dim)]
    f = PositiveVector([x if m else 0.0 for x, m in zip(fs[0].entries, mask)])
    g = PositiveVector([0.0 if m else x for x, m in zip(fs[0].entries, mask)])
    out = harmonic_mean([f, g] + fs[1:])
    assert all(v == 0.0 for v in out.entries)


def test_step_one_product_identity():
    # harmonic * sum of leave-one-out products = s * full product, scalars
    rng = np.random.default_rng(23)
    for _ in range(500):
        s = int(rng.integers(2, 7))
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), s))
        eta = harmonic_mean([pv(float(x)) for x in xs]).entries[0]
        full = float(np.prod(xs))
        leave_one_out = sum(full / x for x in xs)
        lhs, rhs = eta * leave_one_out, s * full
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_geos_identity_all_partitions():
    rng = np.random.default_rng(29)
    for s in range(1, 7):
        for parts in enumerate_complete(s):
            cp = CompletePartition(parts, s)
            fs = [pv(*np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3)))
                  for _ in range(len(parts))]
            lhs = weighted_geometric_mean(weights(cp), fs).to_array()
            repeated = [f for r, f in zip(cp.parts, fs) for _ in range(r)]
            rhs = geometric_mean(repeated).to_array()
            assert np.allclose(lhs, rhs, rtol=1e-12)


class TestRaggedStacks:
    """A ragged block's row t, of counts[t] arguments, is the mean of its own
    tuple bit for bit, whatever its unused slots hold."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([3, 9]), st.sampled_from([1, 3]),
           st.sampled_from([1, 2, 120]), st.integers(0, 2**32 - 1))
    def test_rows_equal_their_own_tuples(self, T, k, n, s, seed):
        # k = 9 is a sum that numpy would add pairwise along a lone column
        # (n = 1); s = 120 sends x^s beyond the float range, both ways
        rng = np.random.default_rng(seed)
        X = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (T, k, n)))
        counts = rng.integers(1, k + 1, T)
        used = np.arange(k) < counts[:, None]
        zeros = X.copy()
        zeros[(rng.random((T, k, n)) < 0.2) & used[..., None]] = 0.0  # vanished arguments
        W = np.where(used, rng.uniform(0.1, 1.0, (T, k)), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rmp = root_mean_power_stack(s, X, counts)
            hm = harmonic_mean_stack(zeros, counts)
        wgm = weighted_geometric_mean_stack(W, X)
        for t, c in enumerate(counts):
            own = X[t:t + 1, :c]
            assert rmp[t].tobytes() == root_mean_power_stack(s, own)[0].tobytes()
            assert hm[t].tobytes() == harmonic_mean_stack(zeros[t:t + 1, :c])[0].tobytes()
            assert wgm[t].tobytes() == weighted_geometric_mean_stack(W[t, :c], own[0]).tobytes()
        assert np.isfinite(rmp).all() and (rmp > 0).all()


def harmonic_via_infinities(X, counts=None):
    """Reference: the harmonic mean with its zero branch reached through
    infinities, a vanished argument's reciprocal +inf making k / inf = +0.
    It does the arithmetic of `harmonic_mean_stack` on every entry, a row's
    unused slots adding 0 in place of their reciprocals, and adds the
    reciprocals slot by slot from +0, so the two must agree byte for byte."""
    if X.dtype == object:
        vanished = X == 0
        out = Fraction(X.shape[-2]) / np.sum(Fraction(1) / np.where(vanished, 1, X), axis=-2)
        out[vanished.any(axis=-2)] = Fraction(0)
        return out
    with np.errstate(divide="ignore"):
        recip = 1.0 / X.astype(np.longdouble)
    k = np.longdouble(X.shape[-2])
    if counts is not None:
        recip[np.arange(X.shape[-2]) >= counts[:, None]] = 0
        k = counts[:, None].astype(np.longdouble)
    total = np.zeros(recip.shape[:-2] + recip.shape[-1:], np.longdouble)
    for j in range(X.shape[-2]):
        total = total + recip[..., j, :]
    return (k / total).astype(float)


class TestHarmonicZeroBranch:
    """The zero branch is taken by mask: no arithmetic touches a vanished
    argument, and every value keeps the bytes of the formula through
    infinities."""

    @staticmethod
    def entries(rng, scale, shape):
        unit = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), shape))
        subnormal = rng.integers(1, 2**52, shape) * 5e-324
        huge = rng.uniform(1e306, np.finfo(float).max, shape)
        if scale == "mixed":
            return np.choose(rng.integers(0, 3, shape), [unit, subnormal, huge])
        return {"unit": unit, "subnormal": subnormal, "huge": huge}[scale]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 12), st.sampled_from([2, 3, 9]), st.sampled_from([1, 3]),
           st.sampled_from(["none", "some", "every"]),
           st.sampled_from(["unit", "subnormal", "huge", "mixed"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_bytes_of_the_formula_through_infinities(self, T, k, n, zeros, scale, ragged, seed):
        # k = 9 is a sum that numpy would add pairwise along a lone column
        # (n = 1); "every" gives about half the rows a vanished argument in
        # use in every coordinate
        rng = np.random.default_rng(seed)
        X = self.entries(rng, scale, (T, k, n))
        counts = rng.integers(1, k + 1, T) if ragged else None
        if zeros != "none":
            X[rng.random((T, k, n)) < 0.25] = 0.0  # in used and unused slots
        if zeros == "every":
            dead = np.flatnonzero(rng.random(T) < 0.5)
            used = k if counts is None else counts[dead, None]
            slots = (rng.random((len(dead), n)) * used).astype(np.intp)
            X[dead[:, None], slots, np.arange(n)] = 0.0
        expect = harmonic_via_infinities(X, counts)
        got = harmonic_mean_stack(X, counts)
        assert got.tobytes() == expect.tobytes()
        assert harmonic_mean_stack(X[0]).tobytes() == harmonic_via_infinities(X[0]).tobytes()
        if counts is not None:
            # a row's unused zeros leave it to its own tuple
            for t, c in enumerate(counts):
                assert got[t].tobytes() == harmonic_mean_stack(X[t, :c]).tobytes()
        if scale == "unit" and counts is None:
            exact = np.empty(X.shape, dtype=object)
            exact[...] = [[[Fraction(v) for v in row] for row in block] for block in X]
            out = harmonic_mean_stack(exact)
            assert all(type(v) is Fraction for v in out.ravel())
            assert (out == harmonic_via_infinities(exact)).all()

    def test_no_division_by_a_vanished_argument(self):
        rng = np.random.default_rng(19)
        # ORTHO's block: a disjoint pair in every row, so every coordinate vanishes
        ortho = sampling.draw_trials(rng, 40, 8, pick=(2, 6), counts=range(6), pair="slots")
        # a ragged block with zeros in used and unused slots, and one whose
        # lone column numpy would sum pairwise (k >= 8)
        X = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (30, 4, 3)))
        X[rng.random(X.shape) < 0.2] = 0.0
        counts = rng.integers(1, 5, 30)
        column = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (30, 9, 1)))
        column[rng.random(column.shape) < 0.05] = 0.0
        cases = [(ortho.vectors, ortho.counts), (X, counts), (column, None),
                 (column, rng.integers(1, 10, 30))]
        for A, c in cases:
            with np.errstate(all="raise"):
                got = harmonic_mean_stack(A, c)
            assert got.tobytes() == harmonic_via_infinities(A, c).tobytes()
        eta = harmonic_mean_stack(ortho.vectors, ortho.counts)
        assert (eta == 0).all() and not np.signbit(eta).any()  # +0.0, never -0.0
        unused = np.arange(4) >= counts[:, None]
        kept = (X > 0).all(axis=2) | unused  # rows whose zeros all sit in unused slots
        rows = kept.all(axis=1) & (X == 0).any(axis=2).any(axis=1)
        assert rows.any() and (harmonic_mean_stack(X, counts)[rows] > 0).all()


# -- every route's output, pinned byte for byte ------------------------------------

ROUTE_WEIGHTS = {
    1: [(1,)],
    2: [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3))],
    3: [(Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5))],
    4: [(Fraction(1, 4),) * 4, (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))],
}


def route_tuples():
    """Seeded tuples of k = 1..4 arguments in 1, 3 and 6 coordinates, as
    (label, vectors): unit magnitudes, the same with vanished arguments,
    magnitudes exp(±20), 10^(±150) and 1e306 to 1e307, and small exact
    rationals."""
    rng = np.random.default_rng(2207)
    for k in range(1, 5):
        for n in (1, 3, 6):
            unit = rng.uniform(0.5, 2.0, (k, n))
            zero = unit.copy()
            zero[rng.random((k, n)) < 0.3] = 0.0
            zero[rng.integers(k), rng.integers(n)] = 0.0
            wide = np.exp(rng.uniform(-20.0, 20.0, (k, n)))
            extreme = 10.0 ** rng.uniform(-150.0, 150.0, (k, n))
            huge = rng.uniform(1e306, 1e307, (k, n))
            for label, X in (("unit", unit), ("zero", zero), ("wide", wide),
                             ("extreme", extreme), ("huge", huge)):
                yield f"{label} k={k} n={n}", [PositiveVector(row) for row in X]
            ints = rng.integers(0, 6, (k, n))
            yield f"exact k={k} n={n}", [PositiveVector.exact(row.tolist()) for row in ints]


def route_outputs(fs):
    """Each public mean route on fs, as (route, thunk)."""
    k = len(fs)
    for s in (1, 2, 3):
        yield f"rmp s={s}", lambda s=s: root_mean_power(s, fs)
    yield "gm", lambda: geometric_mean(fs)
    yield "hm", lambda: harmonic_mean(fs)
    yield "hm lagrange", lambda: harmonic_mean_via_infimum(fs, InfimumSpec("harmonic", arity=k))
    for m in (1, 3, 16):
        spec = InfimumSpec("harmonic", arity=k, resolution=m)
        yield f"hm grid m={m}", lambda spec=spec: harmonic_mean_via_infimum(fs, spec, "grid")
    for ws in ROUTE_WEIGHTS[k]:
        w = WeightVector(ws)
        yield f"wgm {ws}", lambda w=w: weighted_geometric_mean(w, fs)
        spec = InfimumSpec("weighted_geometric", weights=w)
        yield f"wgm lagrange {ws}", lambda w=w, spec=spec: wgm_via_infimum(w, fs, spec)
        for m, width in ((1, 1.0), (4, 0.5), (16, 1.0)):
            spec = InfimumSpec("weighted_geometric", weights=w, resolution=m, log_width=width)
            yield f"wgm grid m={m} width={width} {ws}", \
                lambda w=w, spec=spec: wgm_via_infimum(w, fs, spec, "grid")


def route_record(out) -> str:
    """A route's output as text: the value's bytes (each entry's repr, for
    exact entries), and the grid's bound."""
    result = out if isinstance(out, MeanResult) else None
    value = out.value if result else out
    data = value.to_array()
    text = repr(data.tolist()) if value.is_exact else data.tobytes().hex()
    return f"{text} {result.residual_bound!r}" if result else text


def test_every_route_output_golden_digest():
    # sha256 over each route's value bytes and grid bound, or its error, on
    # every tuple of `route_tuples`
    lines = []
    for label, fs in route_tuples():
        for route, call in route_outputs(fs):
            try:
                text = route_record(call())
            except ValueError as exc:
                text = f"{type(exc).__name__}: {exc}"
            lines.append(f"{label} {route}: {text}")
    assert len(lines) == 1278
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "7807c11a0e3dcc21e7b4c4c0a4efd2d534108cad51d8a1cfc25db0401b2406e3"


def test_route_results_are_frozen_and_never_negative_zero():
    # all-positive tuples take the routes' unmasked branch, tuples with a
    # vanished argument the masked one; a plain LatticeVector can hold -0.0
    # (the negation of a zero), which no result keeps
    negative_zero = -LatticeVector([0.0, 0.0, 0.0])
    tuples = [
        [pv(1.0, 2.0, 0.5), pv(0.7, 1.1, 3.0)],
        [pv(1.0, 0.0, 0.5), pv(0.0, 1.1, 3.0), pv(2.0, 0.4, 0.0)],
        [negative_zero],
        [negative_zero, pv(1.0, 2.0, 0.5)],
        [LatticeVector([1.0, -0.0, 2.0]), pv(0.7, 1.1, 3.0)],
    ]
    for fs in tuples:
        for route, call in route_outputs(fs):
            out = call()
            value = out.value if isinstance(out, MeanResult) else out
            assert type(value) is PositiveVector, route
            assert not value._data.flags.writeable, route
            assert not np.signbit(value.to_array()).any(), route
            assert all(value._data is not f._data for f in fs), route


class TestLagrangeRange:
    """The Lagrange routes on valid arguments at the ends of the float range:
    a value, or the route's own error, without a warning."""

    def test_hm_at_a_subnormal_argument(self):
        # 1 / 5e-324 overflows: the column is taken again from reciprocals
        # scaled by its smallest argument
        fs = [pv(5e-324, 1.0, 0.75), pv(1.0, 1.0, 1.25)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lag = harmonic_mean_via_infimum(fs, InfimumSpec("harmonic", arity=2))
            assert lag.value.entries[:2] == harmonic_mean(fs).entries[:2] == (1e-323, 1.0)
            # an in-range column keeps its bytes
            alone = harmonic_mean_via_infimum([pv(1.0, 0.75), pv(1.0, 1.25)],
                                              InfimumSpec("harmonic", arity=2))
        assert lag.value.to_array()[1:].tobytes() == alone.value.to_array().tobytes()

    def test_hm_at_the_smallest_subnormal(self):
        # the rescued column's terms u_k^2 x_k = 5e-324 / 4 are below the
        # smallest subnormal: in doubles they vanish and the mean is 0
        fs = [pv(5e-324, 1e-320), pv(5e-324, 3e-320)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lag = harmonic_mean_via_infimum(fs, InfimumSpec("harmonic", arity=2))
            assert lag.value.entries == harmonic_mean(fs).entries == (5e-324, 1.5e-320)

    @pytest.mark.parametrize("xs", [(1e-308, 1e-308), (2e-310, 1.7e308, 3e-320)])
    def test_hm_where_the_reciprocals_leave_the_range(self, xs):
        fs = [pv(x) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lag = harmonic_mean_via_infimum(fs, InfimumSpec("harmonic", arity=len(xs)))
            closed = harmonic_mean(fs)
        assert lag.value.entries[0] == pytest.approx(closed.entries[0], rel=1e-12)

    def test_wgm_lagrange_point_beyond_the_float_range(self):
        # theta = G / x = sqrt(1e308 / 5e-324) is beyond the float range
        w = weights(CompletePartition((1, 1), 2))
        fs = [pv(5e-324, 1.0), pv(1e308, 1.0)]
        spec = InfimumSpec("weighted_geometric", weights=w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert weighted_geometric_mean(w, fs).entries == (2.2227587494850776e-08, 1.0)
            with pytest.raises(ValueError, match="^the Lagrange point G / x or its value is "
                               "beyond the float range$"):
                wgm_via_infimum(w, fs, spec)

    def test_wgm_lagrange_point_below_the_normal_range(self):
        # theta_2 = (1e-300 / 1e300)^(2/3) = 1e-400 underflows, which would
        # drop its term from the objective
        w = WeightVector((Fraction(2, 3), Fraction(1, 3)))
        fs = [pv(1e-300), pv(1e300)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Lagrange point G / x or its value is beyond"):
                wgm_via_infimum(w, fs, InfimumSpec("weighted_geometric", weights=w))


# magnitudes over the whole float range, subnormals and 0 among them
FLOAT_RANGE = st.one_of(
    st.sampled_from([0.0, 5e-324, 3e-320, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
                     1e308, np.finfo(float).max]),
    st.floats(min_value=5e-324, max_value=np.finfo(float).max),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(FLOAT_RANGE, min_size=2, max_size=2), min_size=k, max_size=k)))
def test_every_route_over_the_float_range(rows):
    assert_routes_in_range([PositiveVector(row) for row in rows])


def test_every_route_at_the_ends_of_the_float_range():
    top, tiny = np.finfo(float).max, 5e-324
    for k in range(1, 5):
        for column in ([top] * k, [top, top * (1 - 1e-15), 1e308, top][:k],
                       [tiny] * k, [tiny, 1e-310, 3e-320, 1.0][:k], [tiny, top, 1.0, 1e-300][:k]):
            assert_routes_in_range([PositiveVector([x, 1.0]) for x in column])


def assert_routes_in_range(fs):
    # each public mean route gives a finite nonnegative value, or its own
    # ValueError saying the value is beyond the float range, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route, call in route_outputs(fs):
            try:
                out = call()
            except ValueError as exc:
                assert str(exc).endswith("is beyond the float range"), (route, str(exc))
                continue
            value = (out.value if isinstance(out, MeanResult) else out).to_array()
            assert np.isfinite(value).all() and (value >= 0).all(), route
            assert not isinstance(out, MeanResult) or out.residual_bound is None \
                or out.residual_bound >= 0, route
