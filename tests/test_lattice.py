"""Lattice operations: frozen examples plus algebraic laws."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oapoly import (
    CompletePartition,
    DimensionMismatchError,
    InfimumSpec,
    LatticeVector,
    PositiveVector,
    apply_homogeneous,
    check_cross_terms,
    check_eta_disjoint,
    check_geos_lemma,
    check_gm,
    check_hm_identity,
    check_rmp,
    check_schur_bounds,
    check_wgm_identity,
    geometric_mean,
    harmonic_mean,
    harmonic_mean_via_infimum,
    inf,
    is_disjoint,
    make_diagonal,
    polarize_blackbox,
    root_mean_power,
    sup,
    vector_from_json,
    vector_to_json,
    weighted_geometric_mean,
    weights,
    wgm_via_infimum,
)
from oapoly.lattice import EXACT_DIGITS, json_row


def vec(*entries):
    return LatticeVector(entries)


class TestSupInf:
    def test_sup_coordinatewise(self):
        assert sup(vec(1, -2), vec(0, 3)).entries == (1.0, 3.0)
        assert sup(vec(2, 0), vec(-1, 5)).entries == (2.0, 5.0)

    def test_sup_idempotent(self):
        f = vec(1.5, -0.25, 7)
        assert sup(f, f) == f

    def test_inf_coordinatewise(self):
        assert inf(vec(1, -2), vec(0, 3)).entries == (0.0, -2.0)
        assert inf(vec(2, 0), vec(-1, 5)).entries == (-1.0, 0.0)

    def test_inf_idempotent(self):
        f = vec(0.5, 2, -9)
        assert inf(f, f) == f

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sup(vec(1, 2), vec(1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            inf(vec(1), vec(1, 2))

    def test_positive_closure(self):
        f, g = PositiveVector([1, 0]), PositiveVector([0, 2])
        assert isinstance(sup(f, g), PositiveVector)
        assert isinstance(inf(f, g), PositiveVector)


class TestDisjoint:
    def test_disjoint_supports(self):
        assert is_disjoint(vec(1, 0, 2), vec(0, 3, 0))

    def test_overlapping_supports(self):
        assert not is_disjoint(vec(1, 1), vec(0, 1))

    def test_zero_disjoint_from_itself(self):
        assert is_disjoint(vec(0, 0), vec(0, 0))

    def test_exact_not_tolerance_based(self):
        assert not is_disjoint(vec(1e-300, 0), vec(1e-300, 1))


class TestApplyHomogeneous:
    def test_max(self):
        r = apply_homogeneous(max, [PositiveVector([1, 4]), PositiveVector([3, 2])])
        assert r.entries == (3.0, 4.0)

    def test_identity(self):
        f = PositiveVector([0.5, 2])
        assert apply_homogeneous(lambda x: x, [f]) == f

    def test_scalar_geometric_mean(self):
        # oracle: sqrt(1*4) = 2, sqrt(9*1) = 3
        r = apply_homogeneous(
            lambda a, b: math.sqrt(a * b),
            [PositiveVector([1, 9]), PositiveVector([4, 1])],
        )
        assert r.entries == pytest.approx((2.0, 3.0), rel=1e-15)

    def test_commutes_with_positive_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = float(rng.uniform(0, 3))
            fs = [PositiveVector(rng.uniform(0, 10, 3)) for _ in range(2)]
            direct = apply_homogeneous(max, [f * lam for f in fs])
            scaled = apply_homogeneous(max, fs) * lam
            assert np.allclose(direct.to_array(), scaled.to_array(), rtol=1e-15)


entries = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=5
)


@st.composite
def vector_pairs(draw, count=2):
    xs = draw(entries)
    vs = [LatticeVector(xs)]
    for _ in range(count - 1):
        ys = [
            draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
            for _ in xs
        ]
        vs.append(LatticeVector(ys))
    return vs


@given(vector_pairs(2))
def test_sup_inf_commute(pair):
    f, g = pair
    assert sup(f, g) == sup(g, f)
    assert inf(f, g) == inf(g, f)


@given(vector_pairs(3))
def test_sup_inf_associate(triple):
    f, g, h = triple
    assert sup(sup(f, g), h) == sup(f, sup(g, h))
    assert inf(inf(f, g), h) == inf(f, inf(g, h))


@given(vector_pairs(2))
def test_absorption(pair):
    f, g = pair
    assert sup(f, inf(f, g)) == f
    assert inf(f, sup(f, g)) == f


@given(entries)
def test_abs_is_join_with_negation(xs):
    f = LatticeVector(xs)
    assert abs(f) == sup(f, -f)


@given(vector_pairs(2))
def test_disjointness_symmetry(pair):
    f, g = pair
    assert is_disjoint(f, g) == is_disjoint(g, f)
    assert is_disjoint(f, g) == is_disjoint(abs(f), abs(g))


class TestConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            LatticeVector([1.0, float("nan")])
        with pytest.raises(ValueError):
            LatticeVector([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LatticeVector([])

    def test_positive_rejects_negative(self):
        with pytest.raises(ValueError):
            PositiveVector([1.0, -0.5])

    def test_immutable(self):
        f = vec(1, 2)
        with pytest.raises(ValueError):
            f._data[0] = 9
        copy = f.to_array()
        copy[0] = 9  # copies are the caller's to mutate
        assert f.entries == (1.0, 2.0)

    def test_exact_mode(self):
        f = LatticeVector.exact(["1/2", 3, Fraction(2, 7)])
        assert f.is_exact
        assert f.entries == (Fraction(1, 2), Fraction(3), Fraction(2, 7))

    def test_mixing_modes_rejected(self):
        with pytest.raises(ValueError):
            sup(LatticeVector.exact([1]), vec(1.0))

    def test_exact_float_scalar_rejected(self):
        with pytest.raises(ValueError):
            LatticeVector.exact([1]) * 0.5

    def test_arithmetic_beyond_the_float_range_is_refused(self):
        # as the constructor refuses the vector it would hold, and quietly
        big = PositiveVector([1e308, 1.0])
        results = [lambda: big + big, lambda: big * 10.0, lambda: 10.0 * big,
                   lambda: vec(1e308) - vec(-1e308), lambda: big * math.inf,
                   lambda: vec(0.0, 1.0) * math.inf, lambda: big * math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for result in results:
                with pytest.raises(ValueError, match="^lattice vector entries must be finite$"):
                    result()
            assert (big + PositiveVector([7e307, 1.0])).entries == (1.7e308, 2.0)

    def test_positive_results_hold_no_negative_zero(self):
        for f in (PositiveVector([0.0, 2.0]) * -0.0, abs(-vec(0.0, 1.0)),
                  sup(PositiveVector([0.0]), PositiveVector([0.0]))):
            assert isinstance(f, PositiveVector) and not np.signbit(f.to_array()).any()
        assert np.signbit((-vec(0.0)).to_array()).all()  # a LatticeVector keeps its sign


class TestJson:
    def test_float_round_trip(self):
        f = vec(1.5, -2.25, 0)
        assert vector_from_json(vector_to_json(f)) == f

    def test_exact_round_trip(self):
        f = LatticeVector.exact(["2/3", "-1/7", 4])
        payload = vector_to_json(f)
        assert payload == ["2/3", "-1/7", "4"]
        assert vector_from_json(payload) == f

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            vector_from_json([])
        with pytest.raises(ValueError):
            vector_from_json("nope")

    def test_row_exactness(self):
        row = json_row([1, 2.5, -0.0], "f")
        assert row.dtype == np.float64 and row.tolist() == [1.0, 2.5, 0.0]
        row = json_row([1, "2/3", 0.5], "f")
        assert row.dtype == object and row.tolist() == [1, Fraction(2, 3), Fraction(1, 2)]
        assert json_row(["1e400"], "f")[0] == 10**400

    @pytest.mark.parametrize("row, problem", [
        ([], "must be a nonempty array of numbers, got []"),
        ("1.0", "must be a nonempty array of numbers, got '1.0'"),
        ({"a": 1.0}, "must be a nonempty array of numbers"),
        ([1.0, True], 'must hold numbers or "p/q" strings, got True'),
        ([1.0, None], 'must hold numbers or "p/q" strings, got None'),
        ([[1.0]], 'must hold numbers or "p/q" strings, got [1.0]'),
        ([{"a": 1}], 'must hold numbers or "p/q" strings'),
        (["x"], "holds 'x', which is not a rational number"),
        (["1/0"], "holds '1/0', whose denominator is zero"),
        ([10**400], "holds an integer beyond the float range"),
        (["1", math.inf], "holds inf, which is not finite"),
        (["1", math.nan], "holds nan, which is not finite"),
    ])
    def test_row_rejections_name_the_field(self, row, problem):
        with pytest.raises(ValueError) as err:
            json_row(row, "field 'f'")
        assert str(err.value).startswith(f"field 'f' {problem}")

    def test_exact_entries_are_bounded_before_they_are_read(self):
        # EXACT_DIGITS bounds the characters of a string plus its exponent,
        # and the digits of an integer in an exact row
        bound = EXACT_DIGITS
        for entry in (f"1e{bound - 5}", "9" * bound, "1/" + "7" * (bound - 2), 10**bound - 1):
            assert json_row([entry, "1"], "f")[0] == Fraction(entry)
        for entry in (f"1e{bound - 4}", f"1E-{bound}", "9" * (bound + 1), "1e3000000", 10**bound):
            with pytest.raises(ValueError, match=f"^field 'f' holds .*, which has more than "
                                                 f"{bound} digits$"):
                json_row([entry, "1"], "field 'f'")
        with pytest.raises(ValueError, match="holds '1e[+]-5', which is not a rational"):
            json_row(["1e+-5", "1"], "field 'f'")

    def test_non_finite_floats_are_left_to_the_caller(self):
        assert json_row([math.inf, 1.0], "f")[0] == math.inf
        with pytest.raises(ValueError, match="must be finite"):
            vector_from_json([math.inf, 1.0])


# -- one check of vector arguments ---------------------------------------------

P2 = make_diagonal([1.0, 2.0], 2)
CP2 = CompletePartition((1, 1), 2)
W2 = weights(CP2)

# every public function that takes vectors, as (call(fs), k): call takes a
# list of its k vector arguments, in order
VECTOR_CALLS = {
    "root_mean_power": (lambda fs: root_mean_power(2, fs), 2),
    "geometric_mean": (geometric_mean, 2),
    "harmonic_mean": (harmonic_mean, 2),
    "weighted_geometric_mean": (lambda fs: weighted_geometric_mean(W2, fs), 2),
    **{f"harmonic_mean_via_infimum {method}": (
        lambda fs, method=method: harmonic_mean_via_infimum(
            fs, InfimumSpec("harmonic", arity=2, resolution=8), method), 2)
       for method in ("lagrange", "grid")},
    **{f"wgm_via_infimum {method}": (
        lambda fs, method=method: wgm_via_infimum(
            W2, fs, InfimumSpec("weighted_geometric", weights=W2, resolution=8), method), 2)
       for method in ("lagrange", "grid")},
    "sup": (lambda fs: sup(*fs), 2),
    "inf": (lambda fs: inf(*fs), 2),
    "is_disjoint": (lambda fs: is_disjoint(*fs), 2),
    "apply_homogeneous": (lambda fs: apply_homogeneous(min, fs), 2),
    "P(f)": (lambda fs: P2(*fs), 1),
    "P.multilinear": (lambda fs: P2.multilinear(*fs), 2),
    "polarize_blackbox compiled": (lambda fs: polarize_blackbox(P2, fs), 2),
    "polarize_blackbox black box": (lambda fs: polarize_blackbox(lambda f: [f[0] ** 2], fs), 2),
    "check_rmp": (lambda fs: check_rmp(P2, fs), 2),
    "check_gm": (lambda fs: check_gm(P2, fs), 2),
    "check_schur_bounds": (check_schur_bounds, 2),
    "check_eta_disjoint": (check_eta_disjoint, 2),
    "check_hm_identity": (lambda fs: check_hm_identity(P2, fs), 2),
    "check_geos_lemma": (lambda fs: check_geos_lemma(CP2, fs), 2),
    "check_wgm_identity": (lambda fs: check_wgm_identity(P2, CP2, fs), 2),
    "check_cross_terms": (lambda fs: check_cross_terms(P2, *fs), 2),
}


@pytest.mark.parametrize("name, position", [
    (name, position) for name, (_, k) in VECTOR_CALLS.items() for position in sorted({0, k - 1})])
def test_a_list_is_not_a_vector(name, position):
    # the other arguments are a disjoint positive pair, valid for every call
    call, k = VECTOR_CALLS[name]
    fs = [PositiveVector([1.0, 0.0]), PositiveVector([0.0, 1.0])][:k]
    fs[position] = [1.0, 0.0]
    with pytest.raises(TypeError) as info:
        call(fs)
    assert type(info.value) is TypeError and str(info.value) == "expected a LatticeVector, got list"


MEANS = ("root_mean_power", "geometric_mean", "harmonic_mean", "weighted_geometric_mean",
         "harmonic_mean_via_infimum", "wgm_via_infimum")


@pytest.mark.parametrize("name, position", [
    (name, position) for name, (_, k) in VECTOR_CALLS.items() if name.split()[0] in MEANS
    for position in sorted({0, k - 1})])
def test_a_negative_lattice_vector_is_refused_by_every_mean(name, position):
    # a PositiveVector's sign was checked when it was built; a plain
    # LatticeVector's is checked by the mean, in every route
    call, k = VECTOR_CALLS[name]
    fs = [PositiveVector([1.0, 2.0]), PositiveVector([3.0, 1.0])][:k]
    fs[position] = LatticeVector([1.0, -0.5])
    with pytest.raises(ValueError, match="^means are defined on nonnegative vectors only$"):
        call(fs)
    fs[position] = LatticeVector([1.0, 0.5])
    out = call(fs)
    assert isinstance(getattr(out, "value", out), PositiveVector)


@pytest.mark.parametrize("name", [name for name, (_, k) in VECTOR_CALLS.items() if k == 2])
def test_mixing_exact_and_float_vectors_is_refused_by_every_call(name):
    call, _ = VECTOR_CALLS[name]
    for fs in ([PositiveVector.exact([1, 0]), PositiveVector([0.0, 1.0])],
               [PositiveVector([1.0, 0.0]), PositiveVector.exact([0, 1])]):
        with pytest.raises(ValueError, match="^cannot mix exact and float vectors$"):
            call(fs)


# -- a vector's mode is its array's kind ------------------------------------------


def assert_kind(f, exact):
    """f is exact exactly when its array holds objects, and then holds Fractions."""
    assert isinstance(f, LatticeVector)
    assert f.is_exact is exact and (f.to_array().dtype == object) is exact
    assert all(isinstance(e, Fraction) for e in f.entries) if exact else f.to_array().dtype == float


class TestExactnessIsTheArrayKind:
    """Every way a vector is made gives a vector whose `is_exact` is its
    array's kind: objects holding Fractions, or float64."""

    F, G = PositiveVector([1.0, 2.0]), PositiveVector([3.0, 0.5])
    E, H = PositiveVector.exact(["1/2", 2]), PositiveVector.exact([3, "1/4"])

    def test_construction(self):
        assert_kind(LatticeVector([1, 2.5]), False)
        assert_kind(LatticeVector([1, "1/2"], exact=True), True)
        assert_kind(LatticeVector.exact([1, Fraction(1, 2), 0.25]), True)
        assert_kind(PositiveVector.exact([3]), True)
        assert_kind(vector_from_json([1, 2.5]), False)
        assert_kind(vector_from_json([1, "2/3"]), True)
        assert_kind(vector_from_json(["1", 0.5], positive=True), True)

    @pytest.mark.parametrize("exact", [False, True])
    def test_operations_keep_the_kind(self, exact):
        f, g = (self.E, self.H) if exact else (self.F, self.G)
        results = [f + g, f - g, -f, f * 3, 3 * f, f * -2, f * Fraction(1, 3),
                   Fraction(-2, 5) * f, abs(f - g), sup(f, g), inf(f, g), sup(-f, g)]
        if not exact:
            results += [f * 0.5, 2.5 * f]
        for result in results:
            assert_kind(result, exact)

    def test_a_fraction_scales_a_float_vector_by_its_float(self):
        f = LatticeVector([1.0, -3.0, 1e-300])
        for t in (Fraction(1, 3), Fraction(-7, 10**9)):
            assert (f * t).to_array().tolist() == [x * t for x in f.to_array().tolist()]

    def test_apply_homogeneous(self):
        assert_kind(apply_homogeneous(min, [self.E, self.H]), True)
        assert_kind(apply_homogeneous(min, [self.F, self.G]), False)
        # an exact argument whose value is not rational makes a float vector
        assert_kind(apply_homogeneous(lambda x, y: math.sqrt(x * y), [self.E, self.H]), False)

    def test_means(self):
        spec = InfimumSpec("harmonic", arity=2, resolution=8)
        w1 = weights(CompletePartition((1,), 1))
        values = [root_mean_power(2, [self.F, self.G]), geometric_mean([self.F, self.G]),
                  harmonic_mean([self.F, self.G]), weighted_geometric_mean(W2, [self.F, self.G])]
        for method in ("lagrange", "grid"):
            values.append(harmonic_mean_via_infimum([self.F, self.G], spec, method).value)
            for w, fs in ((W2, [self.F, self.G]), (w1, [self.F])):
                wspec = InfimumSpec("weighted_geometric", weights=w, resolution=8)
                values.append(wgm_via_infimum(w, fs, wspec, method).value)
        for value in values:
            assert_kind(value, False)
        assert_kind(harmonic_mean([self.E, self.H]), True)
        assert_kind(harmonic_mean([self.E, PositiveVector.exact([0, 1])]), True)

    @pytest.mark.parametrize("exact", [False, True])
    def test_rows_handed_to_a_black_box(self, exact):
        fs = [self.E, self.H] if exact else [self.F, self.G]
        seen = []

        def evaluator(f):
            seen.append(f)
            return [f[0] * f[1]]

        polarize_blackbox(evaluator, fs)
        assert len(seen) == 3 + 4  # the three probes, then the signed rows
        for f in seen:
            assert_kind(f, exact)

    def test_rows_beyond_the_float_range_handed_to_a_black_box(self):
        seen = []
        polarize_blackbox(lambda f: seen.append(f) or [0.0],
                          [PositiveVector([1e308]), PositiveVector([1e308])],
                          check_homogeneity=False)
        assert seen[0].entries == (math.inf,)
        for f in seen:
            assert_kind(f, False)

    def test_equal_vectors_hash_equal(self):
        pairs = [(LatticeVector.exact([1, 2]), vector_from_json(["1", 2])),
                 (self.E + self.H - self.H, self.E),
                 (PositiveVector.exact([1, 2]), LatticeVector.exact(["1", "2"])),
                 (LatticeVector([1, 2]), vector_from_json([1.0, 2.0])),
                 (self.F * Fraction(1, 2), LatticeVector([0.5, 1.0]))]
        for f, g in pairs:
            assert f == g and hash(f) == hash(g)
        assert LatticeVector.exact([1, 2]) != LatticeVector([1, 2])
