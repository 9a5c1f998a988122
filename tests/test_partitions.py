"""Complete partitions: examples, oracle equivalence, weight vectors."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oapoly import CompletePartition, WeightVector, enumerate_complete, is_complete, weights


def subset_sum_exhaustive(parts, s):
    """Independent completeness oracle: try every alpha in {0,1}^p."""
    if sum(parts) != s:
        return False
    sums = {
        sum(a * r for a, r in zip(alpha, parts))
        for alpha in itertools.product((0, 1), repeat=len(parts))
    }
    return all(q in sums for q in range(1, s + 1))


def all_partitions(s):
    def gen(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest
    return list(gen(s, s))


class TestIsComplete:
    def test_two_one_one_of_four(self):
        # the p = s-1 family with one part equal to 2
        assert is_complete((2, 1, 1), 4)
        assert subset_sum_exhaustive((2, 1, 1), 4)

    def test_all_ones(self):
        for s in range(1, 10):
            assert is_complete((1,) * s, s)

    def test_one_three_of_four(self):
        # oracle: alpha in {0,1}^2 reaches {0, 1, 3, 4} so q = 2 is missed
        assert not subset_sum_exhaustive((1, 3), 4)
        assert not is_complete((1, 3), 4)

    def test_order_irrelevant(self):
        assert is_complete((1, 1, 2), 4)
        assert is_complete((1, 2, 1), 4)

    def test_wrong_total(self):
        assert not is_complete((2, 1, 1), 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            is_complete((0, 1), 1)
        with pytest.raises(ValueError):
            is_complete((2, -1), 1)
        with pytest.raises(ValueError):
            is_complete((1,), 0)
        with pytest.raises(ValueError):
            is_complete((), 3)


parts_strategy = st.lists(st.integers(1, 9), min_size=1, max_size=7)


@given(parts_strategy)
def test_is_complete_matches_exhaustive_oracle(parts):
    s = sum(parts)
    assert is_complete(parts, s) == subset_sum_exhaustive(parts, s)


@given(parts_strategy)
def test_complete_partitions_contain_a_one(parts):
    s = sum(parts)
    if is_complete(parts, s):
        assert 1 in parts


class TestEnumerate:
    def test_s1(self):
        assert enumerate_complete(1) == [(1,)]

    def test_s4(self):
        # brute force: filter all partitions of 4 through the exhaustive oracle
        expected = sorted(p for p in all_partitions(4) if subset_sum_exhaustive(p, 4))
        assert expected == [(1, 1, 1, 1), (2, 1, 1)]
        assert enumerate_complete(4) == expected

    def test_s5(self):
        expected = sorted(p for p in all_partitions(5) if subset_sum_exhaustive(p, 5))
        assert expected == [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1)]
        assert enumerate_complete(5) == expected

    @pytest.mark.parametrize("s", range(1, 13))
    def test_matches_brute_force(self, s):
        expected = sorted(p for p in all_partitions(s) if is_complete(p, s))
        got = enumerate_complete(s)
        assert got == expected
        for p in got:
            assert sum(p) == s
            assert is_complete(p, s)
            assert p == tuple(sorted(p, reverse=True))

    def test_bound(self):
        with pytest.raises(ValueError):
            enumerate_complete(31)
        assert enumerate_complete(31, bound=31)  # raising the bound works

    def test_deterministic_order(self):
        assert enumerate_complete(6) == enumerate_complete(6)


@pytest.mark.parametrize("call, message", [
    (lambda: CompletePartition((True, True), 2), "parts must be positive integers, got True"),
    (lambda: CompletePartition((1,), True), "target must be a positive integer, got True"),
    (lambda: is_complete([True], 1), "parts must be positive integers, got True"),
    (lambda: enumerate_complete(True), "target must be a positive integer, got True"),
    (lambda: enumerate_complete(3, bound=True), "enumeration bound must be an integer, got True"),
    (lambda: enumerate_complete(3, bound=30.5), "enumeration bound must be an integer, got 30.5"),
], ids=["parts", "target", "is_complete", "enumerate_complete", "bound", "float bound"])
def test_a_bool_or_float_is_not_an_integer(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestWeights:
    def test_half_quarter_quarter(self):
        cp = CompletePartition((2, 1, 1), 4)
        assert weights(cp).weights == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_even_split(self):
        cp = CompletePartition((1, 1), 2)
        assert weights(cp).weights == (Fraction(1, 2), Fraction(1, 2))

    def test_three_two_one(self):
        assert subset_sum_exhaustive((3, 2, 1), 6)
        cp = CompletePartition((3, 2, 1), 6)
        assert weights(cp).weights == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))

    @given(st.integers(1, 12))
    def test_weights_sum_to_one_exactly(self, s):
        for parts in enumerate_complete(s):
            w = weights(CompletePartition(parts, s))
            assert sum(w.weights) == 1

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            CompletePartition((1, 3), 4)

    def test_canonicalized_nonincreasing(self):
        cp = CompletePartition((1, 2, 1), 4)
        assert cp.parts == (2, 1, 1)

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector((Fraction(1, 2), Fraction(1, 3)))  # sums to 5/6
        with pytest.raises(ValueError):
            WeightVector((Fraction(3, 2), Fraction(-1, 2)))
        assert WeightVector((Fraction(1),)).as_floats() == [1.0]
