"""Means: closed forms against scalar oracles, two-route agreement, grids."""

import math
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
    enumerate_complete,
    geometric_mean,
    harmonic_mean,
    harmonic_mean_via_infimum,
    root_mean_power,
    weighted_geometric_mean,
    weights,
    wgm_via_infimum,
)
from oapoly.lattice import DimensionMismatchError
from oapoly.means import harmonic_mean_stack


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

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            root_mean_power(2, [PositiveVector([1.0]), pv(1.0) - pv(2.0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            root_mean_power(2, [pv(1.0), pv(1.0, 2.0)])


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
