"""Homogeneous polynomials on R^n with their symmetric multilinear forms.

A degree-s polynomial P: R^n -> R^d is stored sparsely, as a table of index
multisets (sorted s-tuples over 0..n-1) and a matrix of their codomain
coefficient vectors (see `_canonical_terms`). The stored coefficient is the
value of the symmetric tensor at any ordered arrangement of the key, which
pins the one convention everything else relies on:

    P(f)          = sum_key coeff(key) * multinomial(key) * prod_{i in key} f_i
    P_sym(f_1..f_s) = sum_key coeff(key) * sum over distinct arrangements
                      (i_1..i_s) of the key of f_1[i_1] * ... * f_s[i_s]

so the multilinear form restricted to the diagonal reproduces P exactly, term
by term. Diagonal polynomials (only pure keys (i, ..., i)) are precisely the
positively orthogonally additive ones in this representation.

Coefficients may be floats or exact Fractions; evaluation on exact vectors
with exact coefficients stays exact.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, inf
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import LatticeVector, PositiveVector, _check_vectors, json_entries
from .reports import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    VerificationReport,
    _finite_entries,
    row_residuals,
)

__all__ = [
    "HomogeneousPolynomial",
    "SymmetricMultilinearView",
    "TermStack",
    "make_diagonal",
    "polarize_blackbox",
    "is_positively_orthogonally_additive",
    "polynomial_to_json",
    "polynomial_from_json",
    "JSON_DEGREE_LIMIT",
    "JSON_DIMENSION_LIMIT",
]

POLARIZATION_DEGREE_CAP = 8

BLOCK_TRIALS = 1024
"""Trials drawn and evaluated together; bounds memory whatever the trial count."""

STACK_BYTES = 32 << 20
"""The refusal bound: bytes that one row of a `TermStack` evaluation, or
one block of trials, may take. A form whose buffers for one row would
take more, counting a row's 8-byte entries (an object array counts its
references) for an index table of r rows (the keys, or the form's
arrangements), m keys and d codomain entries as 2 r + m d (see
`_row_bytes`), or whose arrangement table of r rows and s slots would take
more to build (see `_table_bytes`), is refused before its table is built.
Every trial loop keeps its blocks to it (see `_schedule`)."""

CHUNK_BYTES = 512 << 10
"""Bytes of buffers that one chunk of a `TermStack` evaluation may hold,
counting a row as 8 (2 r + m d + n k) bytes: `_row_bytes` and its k slot
arrays of n entries, gathered key-major. A chunk this size stays in a
core's cache from its gathers to its sum over keys, and its arrays are
small enough that the allocator hands their memory back chunk after chunk
rather than mapping fresh pages; a row that alone takes more is a chunk of
its own."""


class TermStack:
    """A stack of T polynomials of one degree that share one key set.

    The keys are one table (m, s) of sorted index rows, in sorted order, and
    ``coeffs`` has shape (T, m, d), or (1, m, d) for one polynomial shared by
    every row: floats, or objects holding exact Fractions. Evaluation takes
    V variants of stacked rows (T, n), float or object, against the same T
    polynomials (`values`, `forms`; P(X) and ``form(slots)`` are the one-
    variant case), and computes row by row in the one order that
    `ordered_sum` declares: products left to right over slots, the form's
    products summed over each key's arrangements in order, and the terms
    over keys in key order from +0, so each row's value is bit-identical to
    evaluating that row's polynomial at that row alone, and exact
    coefficients at exact rows give exact values. The V T rows go in chunks
    of at most `CHUNK_BYTES` of buffers (`_in_chunks`), and each chunk runs
    key-major: its slot entries are gathered into (n, rows) arrays, so each
    gather and product moves a rows-wide vector, and the sum over keys adds
    (rows, d) arrays in key order. Exact coefficients at float rows multiply
    as floats, as `Fraction * float` does, and float coefficients take exact
    rows' terms as floats, as `float * Fraction` does. Overflow, also of an
    exact coefficient or term beyond the float range, gives inf without a
    warning: the residual policy reports non-finite sides. Each key's
    multinomial is an exact integer; float rows multiply by its float and
    exact rows by the integer. Every index table, the keys' and the form's
    arrangement tables (built on the form's first use), is held as its
    `_prefix_plan`, so that
    rows sharing a prefix of slots share that prefix's product. Each plan
    column is one contiguous vector for ``ndarray.take``, which gathers
    faster than fancy indexing. The form's keys are grouped by their number
    A of arrangements, and each group is held arrangement-major, so that
    one reduction sums the arrangements of all its keys
    (`_arrangement_layout`, `_arrangement_sums`).
    """

    def __init__(self, table: np.ndarray, coeffs: np.ndarray, plan: list,
                 multinomials: np.ndarray, layout=None):
        self._table = table  # the sorted keys (m, s), in sorted order
        self.coeffs = coeffs
        self._plan = plan  # the key table's, see _prefix_plan
        self._multinomials = multinomials  # exact integers, held as objects
        self._weights = multinomials.astype(float)
        m, d = coeffs.shape[1:]
        # bytes of a row's buffers, see STACK_BYTES; the form's come with its layout
        self._row_bytes = _row_bytes(m, m, d)
        # a layout given here is of a table of one arrangement per key
        self._layout = layout  # see _arrangement_layout
        self._arrangements = None  # see arrangements
        self._form_row_bytes = None if layout is None else self._row_bytes
        # falsify's exhaustive additivity verdict, ((seed, cfg), passed):
        # one entry, replaced when the key changes
        self.additivity_verdict = None

    @classmethod
    def of(cls, P: "HomogeneousPolynomial") -> "TermStack":
        """One polynomial, shared by every row: P's compiled form, built on
        first use and kept on P, on P's key table and coefficient matrix as
        they are. Exact coefficients are held as objects."""
        if P._stack is None:
            table = P._table
            P._stack = cls(table, P._coeffs[None], _prefix_plan(table), _multinomials(table))
        return P._stack

    @classmethod
    def diagonal(cls, coeffs: np.ndarray, degree: int) -> "TermStack":
        """Row t is sum_i coeffs[t, i] x_i^degree, for coeffs of shape (T, n, d).
        Its keys share no prefix, so each level of its plan is 0..n-1, and
        each key is its one arrangement: the form's plan is the same, in one
        group of count 1."""
        n = coeffs.shape[1]
        keys = np.arange(n)
        plan = [(keys, None)] * degree
        return cls(np.repeat(keys[:, None], degree, axis=1), coeffs, plan,
                   np.ones(n, dtype=object), (plan, [(keys, 1, slice(0, n))]))

    @property
    def degree(self) -> int:
        return len(self._plan)

    @property
    def arrangements(self) -> int:
        """A, the number of rows of the form's arrangement table: the sum of
        the keys' multinomials, computed on first use and kept, so that a
        stack built per block (`diagonal`) never pays for it."""
        if self._arrangements is None:
            self._arrangements = sum(self._multinomials.tolist())
        return self._arrangements

    def take(self, rows: np.ndarray | slice) -> "TermStack":
        """The stack of the given rows' polynomials (itself when one is shared)."""
        if self.coeffs.shape[0] == 1:
            return self
        out = copy.copy(self)
        out.coeffs = self.coeffs[rows]
        return out

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """P at each row of X (T, n); returns (T, d)."""
        return self._evaluate([[X]], self._plan, None, self._row_bytes)[0]

    def values(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """P at each row of each of V stacked row arrays (T, n), all float
        or all exact, row t of every variant against polynomial t, in one
        evaluation; (V, T, d)."""
        return self._evaluate([[X] for X in rows], self._plan, None, self._row_bytes)

    def form(self, slots: Sequence[np.ndarray]) -> np.ndarray:
        """The symmetric form at stacked arguments: slots[k] (T, n) fills slot k."""
        return self.forms([slots])[0]

    def forms(self, variants: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
        """The symmetric form at each of V variants of stacked arguments,
        variant v's slots[k] (T, n) filling slot k, all float or all exact,
        row t of every variant against polynomial t, in one evaluation;
        (V, T, d)."""
        for slots in variants:
            if len(slots) != self.degree:
                raise ValueError(f"the form takes exactly {self.degree} vectors, got {len(slots)}")
        plan, groups = self._arrangement_layout()
        return self._evaluate(variants, plan, groups, self._form_row_bytes)

    def _arrangement_layout(self):
        """The `_prefix_plan` of the form's arrangement table, and its groups.
        The keys are ordered by their multinomial, the number A of their
        arrangements, stably; a group is its keys' positions, A, and its
        slice of the table's rows, which holds the A arrangements of each of
        its keys from `_arrangement_table`, arrangement-major: arrangement j
        of each key in turn, then arrangement j + 1 (see `_arrangement_sums`).
        A table so
        large that one row's buffers, or its build, would exceed
        `STACK_BYTES` raises ValueError before it is built."""
        if self._layout is None:
            m, d = self.coeffs.shape[1:]
            rows = self.arrangements
            row_bytes = _row_bytes(rows, m, d)
            for need, what in ((row_bytes, "of buffers for one row"),
                               (_table_bytes(rows, m, self.degree), "to build it")):
                if need > STACK_BYTES:
                    raise ValueError(
                        f"the symmetric form's table would hold {rows} arrangements of the "
                        f"{m} keys: {need} bytes {what}, beyond {STACK_BYTES}")
            counts = self._multinomials.astype(np.intp)
            order = np.argsort(counts, kind="stable")
            counts = counts[order]
            # each group's first key, where the count changes, then the end
            edges = [*np.flatnonzero(np.diff(counts, prepend=0)).tolist(), m]
            ends = np.cumsum(counts)  # each key's last row in the table, plus one
            groups = [(order[lo:hi], int(counts[lo]),
                       slice(int(ends[lo] - counts[lo]), int(ends[hi - 1])))
                      for lo, hi in zip(edges, edges[1:])]
            table = _arrangement_table(self._table[order])
            for positions, count, span in groups:
                table[span] = table[span].reshape(len(positions), count, -1).transpose(
                    1, 0, 2).reshape(-1, self.degree)
            self._layout = _prefix_plan(table), groups
            self._form_row_bytes = row_bytes
        return self._layout

    @np.errstate(over="ignore", invalid="ignore")
    def _evaluate(self, variants, plan, groups, row_bytes: int) -> np.ndarray:
        """The V variants' sums over keys of coefficient times planned
        product (weighted for P, summed over each key's arrangements for the
        form when ``groups`` are given), (V, T, d), evaluated chunk by chunk
        (`_in_chunks`). A variant is its slot arrays, or for P its one array,
        which fills every slot; each is gathered key-major once a chunk."""
        V, filled, (T, n) = len(variants), len(variants[0]), variants[0][0].shape
        m, d = self.coeffs.shape[1:]
        coeffs = _coefficients_at(self.coeffs, variants)
        shared = len(coeffs) == 1
        coeffs = coeffs.transpose(1, 0, 2)  # key-major: (m, T or 1, d)
        sums = []
        for lo, hi, segments in _in_chunks(V, T, max(1, CHUNK_BYTES // (row_bytes + 8 * n * filled))):
            # each slot's rows of the chunk, key-major and C-contiguous (n, rows)
            if len(segments) == 1:
                (v, t0, t1), = segments
                slots = [np.ascontiguousarray(x[t0:t1].T) for x in variants[v]]
            else:
                slots = [np.concatenate([variants[v][k][t0:t1].T for v, t0, t1 in segments], axis=1)
                         for k in range(filled)]
            products = _planned_products(slots * (len(plan) // filled), plan)
            if groups is None:
                # integer weights keep exact monomials exact; float ones
                # spare float monomials a cast
                products *= (self._multinomials if products.dtype == object
                             else self._weights)[:, None]
            else:
                products = _arrangement_sums(products, groups, m)
            if products.dtype == object and coeffs.dtype != object:
                # exact terms at float coefficients: each term rounded once,
                # as `float * Fraction` rounds it, ±inf beyond the float range
                products = _as_floats(products)
            if shared:
                terms = coeffs * products[:, :, None]
            else:
                terms = np.empty((m, hi - lo, d), np.result_type(coeffs, products))
                for v, t0, t1 in segments:
                    o = v * T + t0 - lo
                    np.multiply(coeffs[:, t0:t1], products[:, o:o + t1 - t0, None],
                                out=terms[:, o:o + t1 - t0])
            sums.append(ordered_sum(terms))
        return (sums[0] if len(sums) == 1 else np.concatenate(sums)).reshape(V, T, d)


def _in_chunks(V: int, T: int, step: int):
    """The chunks of at most ``step`` rows of V stacked variants of T rows,
    row v T + t being row t of variant v, as few as that allows and of
    equal sizes, give or take a row: for each chunk, its rows lo..hi and
    its segments (v, t0, t1), the rows t0..t1 of variant v that it holds.
    Rows are independent, so the values are those of one chunk. The chunks
    are made one at a time, so that a call of many holds few."""
    total = V * T
    if total <= step:
        yield 0, total, [(v, 0, T) for v in range(V)]
        return
    step = -(-total // -(-total // step))
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        yield lo, hi, [(v, max(lo - v * T, 0), min(hi - v * T, T))
                       for v in range(lo // T, (hi - 1) // T + 1)]


def _schedule(cap: int, extra: int, *phases):
    """The block rule of every trial loop: (lo, hi) blocks of a stream of
    rows, over each phase (lo, hi, first) in turn. A phase's first block
    holds ``first`` rows, and after a block of T rows comes one of
    2 T + ``extra``, each capped by ``cap`` and by the phase's rows left.

    A caller whose row takes b bytes passes cap = min(`BLOCK_TRIALS`,
    `STACK_BYTES` // b), both read from its own module, so that a block
    keeps to both bounds; a row that alone takes more than `STACK_BYTES` is
    a block of its own. With first = cap every block has cap rows. With
    ``extra`` about c0 / c1, for blocks of T rows that cost about c0 + c1 T,
    each block costs about twice the one before, so a search that stops
    early pays for few rows and a long one for few blocks. The loops:

    verify_claim   blocks of cap rows; b = 8 W, a trial's W uniforms
                   (`sampling.trial_width`)
    falsify        growing blocks over its structured and random phases,
                   ``extra`` = `theorems._overhead_rows`; b = 16 k n, about
                   2 k n floats for an input of k vectors of n entries
    is_positively_orthogonally_additive
                   blocks of cap rows; b = 48 n: the 2 n uniforms, f, g and
                   f + g, and n of headroom for the evaluation

    Rows are independent, so no report depends on the blocks. (One
    `TermStack` evaluation splits its rows further, into chunks of
    `CHUNK_BYTES`: see `_in_chunks`.)"""
    cap = max(1, cap)
    for lo, hi, size in phases:
        while lo < hi:
            size = min(size, cap, hi - lo)
            yield lo, lo + size
            lo += size
            size = 2 * size + extra


def ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """The sum of ``terms`` over ``axis``, term after term from +0,
    ((0 + t_0) + t_1) + ..., float, extended or exact; an empty sum is +0,
    Fraction(0) for objects.

    This is the package's one arithmetic order, for every sum of a claim's
    sides and of the closed-form means: products are taken left to right
    over slots, and sums in slot, arrangement and key order. P and the
    form add their terms in key order and the form each key's products in
    arrangement order (`TermStack`); the root mean power and the harmonic
    mean add their slots' terms in slot order, RMP, HM and CROSS_TERMS
    their sides' variants and the polarization its sign rows in order,
    each through this function. The order is the package's own, not
    numpy's: numpy's sum adds a contiguous run of 8 or more terms
    pairwise. A reduction over an outer axis of a C-contiguous array adds
    its slabs elementwise, slab after slab, so the terms are reduced so;
    only where every axis after the summed one has length 1, so that numpy
    would add the run pairwise, are they accumulated in order instead, the
    +0 added last: 0 + t_0 is t_0 but for -0.0, which becomes +0.0 and
    changes no later partial sum but a zero's sign. A masked term of +0
    therefore changes no sum, and a row's sum does not depend on the rows
    beside it. The error of A terms is at most (A - 1) u sum |t| for the
    unit roundoff u (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4)."""
    terms = np.ascontiguousarray(terms)
    # in a C-contiguous array the summed axis steps one item exactly where
    # every axis after it has length 1 (or its own length is 1)
    if terms.shape[axis] and terms.strides[axis] == terms.itemsize:
        return np.add.accumulate(terms, axis=axis).take(-1, axis=axis) + 0
    return np.add.reduce(terms, axis=axis, initial=Fraction(0) if terms.dtype == object else 0)


def _row_bytes(rows: int, m: int, d: int) -> int:
    """Bytes of one row's buffers for an index table of ``rows`` rows, m keys
    and d codomain entries; see `STACK_BYTES`."""
    return 8 * max(1, 2 * rows + m * d)


def _table_bytes(rows: int, m: int, s: int) -> int:
    """Bytes that building the form's table of ``rows`` arrangements of m
    keys of s slots holds at most at once (measured with tracemalloc): the
    expansion's last step holds two (rows, s) int32 tables, three bool masks
    and int64 row vectors, beside the sorted (m, s) int64 keys."""
    return 16 * rows * (s + 4) + 8 * m * s


def _run_starts(table: np.ndarray) -> np.ndarray:
    """For each sorted key of ``table`` (m, s) and each position, whether
    the position starts a run of equal indices; (m, s) bool."""
    starts = np.ones(table.shape, dtype=bool)
    np.not_equal(table[:, 1:], table[:, :-1], out=starts[:, 1:])
    return starts


def _multinomials(table: np.ndarray) -> np.ndarray:
    """Each sorted key's number of distinct arrangements, s! over the product
    of its runs' factorials, as exact integers held as objects: a run of
    length L contributes the places 1..L of its positions to the product."""
    s = table.shape[1]
    slots = np.arange(s)
    run_start = np.maximum.accumulate(np.where(_run_starts(table), slots, 0), axis=1)
    places = (slots - run_start + 1).astype(object)
    return factorial(s) // np.multiply.reduce(places, axis=1)


def _arrangement_table(table: np.ndarray) -> np.ndarray:
    """Every distinct arrangement of each sorted key of ``table`` (m, s), the
    keys in table order and each key's arrangements in lexicographic order;
    (sum of the multinomials, s) int32. It is built slot by slot: each
    partial arrangement branches to the key's positions that are unused and
    the first unused of their run of equal indices, in increasing order, so
    each distinct arrangement is made once and in order."""
    m, s = table.shape
    starts = _run_starts(table)
    keys, used = np.arange(m), np.zeros((m, s), dtype=bool)
    out = np.empty((m, s), dtype=np.int32)
    for k in range(s):
        free = ~used
        free[:, 1:] &= starts.take(keys, axis=0)[:, 1:] | used[:, :-1]
        rows, positions = np.nonzero(free)
        keys, used, out = keys.take(rows), used.take(rows, axis=0), out.take(rows, axis=0)
        used[np.arange(len(rows)), positions] = True
        out[:, k] = table.take(keys * s + positions)
    return out


def _coefficients_at(coeffs: np.ndarray, variants) -> np.ndarray:
    """coeffs as they multiply the variants' slot arrays: exact coefficients
    at float rows as the floats that `Fraction * float` multiplies by, held
    as objects, and ±inf beyond the float range, where `Fraction.__float__`
    raises OverflowError."""
    if coeffs.dtype == object and all(x.dtype != object for slots in variants for x in slots):
        return _as_floats(coeffs)
    return coeffs


def _as_float(c) -> float:
    try:
        return float(c)
    except OverflowError:  # beyond the float range, as float("1e400") is
        return inf if c > 0 else -inf


_as_floats = np.frompyfunc(_as_float, 1, 1)
"""Exact values as the floats that `Fraction.__float__` gives, or ±inf
beyond the float range, held as objects."""


def _prefix_plan(table: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The shared-prefix plan of an index table (rows, s): for each slot k,
    one entry per distinct prefix t_0..t_k, in lexicographic order, while
    the prefixes are fewer than two thirds of the rows; from the first slot
    where they are not (the last slot at the latest) on, one entry per row,
    in the table's order. A shared level costs a gather of its parents
    besides its slot's gather and its multiply, 3 operations an entry
    against 2 a row, so sharing pays below that share. An entry is its
    slot-k index and the entry at level k - 1 that it extends; a level whose
    entries extend those before it one to one, in order, has None. Indices
    keep the table's dtype."""
    rows, s = table.shape
    order = np.lexsort(table.T[::-1])
    starts = np.zeros(rows, dtype=bool)  # the sorted rows that start a prefix
    starts[:1] = True
    plan, entries = [], 0
    for k in range(s):
        if entries == rows:  # each row's prefix is its own
            plan.append((table[:, k].copy(), None))
            continue
        column = table[order, k]
        starts[1:] |= column[1:] != column[:-1]
        first = np.flatnonzero(starts)
        if 3 * len(first) >= 2 * rows or k == s - 1:  # an entry per row, in table order
            first = np.argsort(order)
        parent = None
        if k and len(first) != entries:
            parent = runs[first]
            parent -= 1
        plan.append((column[first], parent))
        # each sorted row's entry at level k, plus one
        entries, runs = len(first), np.cumsum(starts, dtype=table.dtype)
    if s > 1 and plan[1][1] is not None:  # slot 0 is gathered at level 1's entries
        plan[:2] = [(plan[0][0][plan[1][1]], None), (plan[1][0], None)]
    return plan


def _planned_products(slots: Sequence[np.ndarray], plan) -> np.ndarray:
    """For each row r of the plan's table and each column of the key-major
    slots (n, R), the product ((x_0[t_0] * x_1[t_1]) * x_2[t_2]) * ... of
    the slots at r; (rows, R). Each level's products extend their parents'
    in place, so a row's product takes the operations of the left-to-right
    product, and each gather copies R-wide rows."""
    (column, _), *levels = plan
    products = slots[0].take(column, axis=0)
    for slot, (column, parent) in zip(slots[1:], levels):
        if parent is not None:
            products = products.take(parent, axis=0)
        products *= slot.take(column, axis=0)
    return products


def _arrangement_sums(products: np.ndarray, groups, keys: int) -> np.ndarray:
    """For each key and each column, the `ordered_sum` over the key's
    arrangements of their slot products, key-major (rows of the arrangement
    table, R), laid out as `TermStack._arrangement_layout` groups them;
    (keys, R). A group of count A, arrangement-major, is one sum over its A
    (keys, R) slabs; a key of one arrangement keeps its product, as 0 + t is
    t but for a -0.0, whose sign the sum over keys from +0 drops all the
    same."""
    if len(groups) == 1 and groups[0][1] == 1:  # every key once, in key order
        return products
    R = products.shape[1]
    totals = np.empty((keys, R), dtype=products.dtype)
    for positions, count, rows in groups:
        block = products[rows]
        totals[positions] = block if count == 1 else ordered_sum(
            block.reshape(count, len(positions), R))
    return totals


_INDEX_TYPES = (int, np.integer, float, np.floating)
_REAL_TYPES = (int, np.integer, float, np.floating, Fraction)
_FLOAT_BOUND = 2**1024 - 2**970  # the least int whose float overflows


def _first(keys, flags) -> tuple:
    """The first key whose flag is set, as a tuple, for an error message."""
    return tuple(keys[int(np.flatnonzero(flags)[0])])


def _key_table(keys: Sequence, degree: int, n: int) -> np.ndarray:
    """The keys, tuples of ints or integral floats, as one (m, degree) intp
    table with each row sorted. A key that is not a tuple, of another
    length, with an entry that is a bool, a non-integral float or not a
    number, or with an index outside 0..n-1 raises TypeError or ValueError
    naming the first such key."""
    m = len(keys)
    if not all(issubclass(t, tuple) for t in set(map(type, keys))):
        key = next(k for k in keys if not isinstance(k, tuple))
        raise TypeError(f"key {key!r} must be a tuple of ints")
    if m and set(map(len, keys)) != {degree}:
        raise ValueError(f"key {_first(keys, [len(k) != degree for k in keys])} "
                         f"does not have degree {degree}")
    flat = list(itertools.chain.from_iterable(keys))
    kinds = set(map(type, flat))
    if not all(issubclass(t, _INDEX_TYPES) and not issubclass(t, bool) for t in kinds):
        bad = [not isinstance(i, _INDEX_TYPES) or isinstance(i, bool) for i in flat]
        raise TypeError(f"key {_first(keys, np.reshape(bad, (m, degree)).any(axis=1))} "
                        "must hold ints")
    integral = all(issubclass(t, (int, np.integer)) for t in kinds)
    try:
        table = np.array(flat, dtype=np.intp if integral else float).reshape(m, degree)
    except OverflowError:  # an index beyond the machine's integers
        huge = [isinstance(i, int) and not 0 <= i < n for i in flat]
        key = _first(keys, np.reshape(huge, (m, degree)).any(axis=1))
        raise ValueError(f"key {tuple(sorted(key))} has indices outside 0..{n - 1}") from None
    if not integral:
        fractional = ~np.isfinite(table) | (table != np.floor(table))
        if fractional.any():
            raise ValueError(f"key {_first(keys, fractional.any(axis=1))} must hold integers")
    table.sort(axis=1)
    outside = (table[:, 0] < 0) | (table[:, -1] >= n)
    if outside.any():
        key = table[np.flatnonzero(outside)[0]]
        raise ValueError(f"key {tuple(int(i) for i in key)} has indices outside 0..{n - 1}")
    return table.astype(np.intp, copy=False)


def _coefficient_matrix(keys: Sequence, rows: Sequence, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient rows as one (m, d) matrix, and which rows are exact.
    A row is a sequence of d real numbers, or for d = 1 a bare number; a
    row holding a Fraction is exact and becomes all Fractions, and the
    others are floats, Python floats in an object matrix when any row is
    exact. A row of another length, or an entry that is a bool, a string,
    None, complex or no real number, raises ValueError or TypeError naming
    its key."""
    m = len(rows)
    if not set(map(type, rows)) <= {list, tuple}:
        rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
        rows = [r if isinstance(r, (list, tuple)) else [r] for r in rows]
    if m and set(map(len, rows)) != {d}:
        i = next(i for i, r in enumerate(rows) if len(r) != d)
        raise ValueError(f"the coefficient of key {tuple(keys[i])} must have shape ({d},), "
                         f"got {np.shape(rows[i])}")
    flat = list(itertools.chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if not all(issubclass(t, _REAL_TYPES) and not issubclass(t, bool) for t in kinds):
        i, v = next((i // d, v) for i, v in enumerate(flat)
                    if not isinstance(v, _REAL_TYPES) or isinstance(v, bool))
        if isinstance(v, (list, tuple)):
            raise ValueError(f"the coefficient of key {tuple(keys[i])} must have shape "
                             f"({d},), got {np.shape(rows[i])}")
        raise TypeError(f"the coefficient of key {tuple(keys[i])} must hold real numbers, "
                        f"got {v!r}")
    exact = np.zeros(m, dtype=bool)
    if any(issubclass(t, Fraction) for t in kinds):
        exact = np.reshape([isinstance(v, Fraction) for v in flat], (m, d)).any(axis=1)
    try:
        floats = np.array([r for r, e in zip(rows, exact) if not e] if exact.any() else flat,
                          dtype=float).reshape(-1, d)
    except OverflowError:  # an int that rounds beyond the largest float
        i = next(i for i, v in enumerate(flat) if isinstance(v, int) and abs(v) >= _FLOAT_BOUND)
        raise ValueError(f"the coefficient of key {tuple(keys[i // d])} holds an integer "
                         "beyond the float range") from None
    if not exact.any():
        return floats, exact
    matrix = np.empty((m, d), dtype=object)
    matrix[~exact] = floats
    for i in np.flatnonzero(exact).tolist():
        try:
            matrix[i] = [v if isinstance(v, Fraction) else
                         Fraction(v.item() if isinstance(v, np.generic) else v) for v in rows[i]]
        except (ValueError, OverflowError):
            raise ValueError(f"the coefficient of key {tuple(keys[i])} holds a Fraction "
                             "beside a number that is not finite") from None
    return matrix, exact


def _canonical_terms(degree: int, n: int, d: int, keys: Sequence,
                     rows: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The canonical key table (m, degree), its rows sorted and in
    lexicographic order, and coefficient matrix (m, d), both read-only,
    of the terms (keys[i], rows[i]): the coefficients of keys that are
    equal once sorted summed in the order given, from the first, and rows
    whose entries are all 0 dropped. The matrix is float64, or objects when
    a kept row is exact (see `_coefficient_matrix`); a repeat of an exact
    row is exact."""
    table = _key_table(keys, degree, n)
    coeffs, exact = _coefficient_matrix(keys, rows, d)
    order = np.lexsort(table.T[::-1])  # stable: repeats stay in the order given
    table, coeffs, exact = table[order], coeffs[order], exact[order]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    if not first.all():
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(table))
        sums = coeffs[starts]
        for j in range(1, int(counts.max())):
            more = counts > j
            sums[more] = sums[more] + coeffs[starts[more] + j]
        table, coeffs, exact = table[starts], sums, np.logical_or.reduceat(exact, starts)
    kept = (coeffs != 0).any(axis=1)
    if not kept.all():
        table, coeffs, exact = table[kept], coeffs[kept], exact[kept]
    if coeffs.dtype == object and not exact.any():
        coeffs = coeffs.astype(float)
    table.flags.writeable = coeffs.flags.writeable = False
    return table, coeffs


class HomogeneousPolynomial:
    """Degree-s homogeneous polynomial R^n -> R^d with sparse coefficients.

    ``terms`` is a read-only mapping from canonical keys to read-only row
    views of the coefficient matrix that `_canonical_terms` builds, beside
    the key table, in one pass; ``degree``, ``domain_dim``,
    ``codomain_dim`` and ``terms`` cannot be set again: a polynomial cannot
    change after construction.
    """

    _fixed = ("degree", "domain_dim", "codomain_dim", "terms", "_table", "_coeffs")
    __slots__ = (*_fixed, "_stack")

    def __init__(
        self,
        degree: int,
        domain_dim: int,
        codomain_dim: int,
        terms: Mapping[tuple[int, ...], Sequence],
    ):
        self._build(degree, domain_dim, codomain_dim, list(terms), list(terms.values()))

    @classmethod
    def _from_rows(cls, degree: int, domain_dim: int, codomain_dim: int, keys: Sequence,
                   rows: Sequence) -> "HomogeneousPolynomial":
        """The polynomial of the terms (keys[i], rows[i]), where keys may
        repeat: repeats are summed in the order given, as `__init__` sums
        keys that are equal once sorted."""
        P = cls.__new__(cls)
        P._build(degree, domain_dim, codomain_dim, keys, rows)
        return P

    def _build(self, degree, domain_dim, codomain_dim, keys, rows) -> None:
        dims = [_check_int(v, name) for v, name in ((degree, "degree"), (domain_dim, "domain_dim"),
                                                     (codomain_dim, "codomain_dim"))]
        if min(dims) < 1:
            raise ValueError("degree and dimensions must be >= 1")
        self.degree, self.domain_dim, self.codomain_dim = dims
        self._table, self._coeffs = _canonical_terms(*dims, keys, rows)
        # iterating a read-only matrix gives read-only row views
        self.terms = MappingProxyType(dict(zip(map(tuple, self._table.tolist()), self._coeffs)))
        self._stack = None  # the compiled form, see TermStack.of

    def __reduce__(self):
        # a copy or an unpickled polynomial is built again by __init__, which
        # checks its terms; it compiles its own form on first use
        return type(self), (self.degree, self.domain_dim, self.codomain_dim, dict(self.terms))

    def __setattr__(self, name, value):
        # the fixed slots are set once, by __init__, and never again; the
        # compiled form is filled in on first use
        if name in self._fixed and hasattr(self, name):
            raise AttributeError(
                f"cannot set {name!r}: a polynomial cannot change after construction")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in self._fixed:
            raise AttributeError(
                f"cannot delete {name!r}: a polynomial cannot change after construction")
        object.__delattr__(self, name)

    @classmethod
    def diagonal(cls, coeffs: Sequence, degree: int) -> "HomogeneousPolynomial":
        """P(f) = sum_i c_i f_i^degree for codomain vectors c_i (scalars mean d=1)."""
        rows, degree = list(coeffs), _check_int(degree, "degree")
        if not rows:
            raise ValueError("diagonal construction needs at least one coefficient")
        shape = np.shape(rows[0])
        keys = [(i,) * degree for i in range(len(rows))]
        return cls._from_rows(degree, len(rows), shape[0] if shape else 1, keys, rows)

    # -- evaluation ------------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._coeffs.dtype == object

    def __call__(self, f: LatticeVector) -> np.ndarray:
        """Evaluate P(f), returning a codomain vector of shape (d,)."""
        _check_vectors((f,), self.domain_dim)
        # a vector's entries are read-only, so they are read without a copy
        return TermStack.of(self)(f._data[None])[0]

    @property
    def multilinear(self) -> "SymmetricMultilinearView":
        """The unique symmetric s-linear form with P on its diagonal."""
        return SymmetricMultilinearView(self)

    # -- structure -------------------------------------------------------------

    @property
    def has_mixed_terms(self) -> bool:
        """True iff some key touching two distinct coordinates has a nonzero
        coefficient, which is exactly failure of positive orthogonal additivity.
        A sorted key touches two exactly when its first and last entries differ."""
        return bool((self._table[:, 0] != self._table[:, -1]).any())

    def coefficient(self, key: Sequence[int]) -> np.ndarray:
        """The coefficient of ``key``, a writable copy: zeros when P has no
        such term. The key is checked as `__init__` checks its keys."""
        key = tuple(_key_table([tuple(key)], self.degree, self.domain_dim)[0].tolist())
        if key in self.terms:
            return self.terms[key].copy()
        return np.full(self.codomain_dim, Fraction(0) if self.is_exact else 0.0)

    def coefficient_masses(self) -> tuple[float, float]:
        """(diagonal, mixed) l1 masses of the coefficient map: each key's
        entries' magnitudes summed in order, as a float, then the keys'
        masses of each kind in key order from 0."""
        masses = ordered_sum(np.abs(self._coeffs), axis=1).astype(float)
        mixed = self._table[:, 0] != self._table[:, -1]
        return float(ordered_sum(masses[~mixed])), float(ordered_sum(masses[mixed]))

    def __repr__(self) -> str:
        return (
            f"HomogeneousPolynomial(degree={self.degree}, domain_dim={self.domain_dim}, "
            f"codomain_dim={self.codomain_dim}, terms={len(self.terms)})"
        )


@dataclass(frozen=True)
class SymmetricMultilinearView:
    """Callable view of a polynomial's symmetric multilinear form."""

    polynomial: HomogeneousPolynomial

    def __call__(self, *fs: LatticeVector) -> np.ndarray:
        P = self.polynomial
        s = P.degree
        if len(fs) != s:
            raise ValueError(f"the form takes exactly {s} vectors, got {len(fs)}")
        _check_vectors(fs, P.domain_dim)
        return TermStack.of(P).form([f._data[None] for f in fs])[0]


def make_diagonal(coeffs: Sequence, degree: int) -> HomogeneousPolynomial:
    """Module-level alias for `HomogeneousPolynomial.diagonal`."""
    return HomogeneousPolynomial.diagonal(coeffs, degree)


def polarize_blackbox(
    evaluator: Callable[[LatticeVector], Sequence],
    fs: Sequence[LatticeVector],
    *,
    check_homogeneity: bool = True,
) -> np.ndarray:
    """Recover the symmetric multilinear value from black-box evaluations.

    Uses the signed-evaluation identity

        form(f_1..f_s) = (1 / (2^s s!)) * sum over signs e in {-1,1}^s of
                         (prod e_k) * P(sum_k e_k f_k)

    with s = len(fs). The degree is capped at 8: the 2^s term count and the
    s! division make the alternating sum increasingly ill-conditioned.

    With ``check_homogeneity`` set, a wrong degree raises ValueError rather
    than returning a silently wrong value. A `HomogeneousPolynomial` (its
    class exactly) states its degree, and is evaluated in one call on its
    `TermStack` at the 2^(s-1) signed arguments whose first sign is +1; the
    others are their negations, where P takes (-1)^degree times its value,
    bit for bit (`_with_negated_rows`). Any other evaluator is a black
    box, called once per argument: first at the summed arguments and at two
    scalings of them, each checked for degree-s scaling (a residual above
    1e-6) before the next call; then at the signed arguments, in order. A
    black box whose probe leaves the float range cannot be checked: that
    raises its own ValueError ("cannot verify ... within the float range").
    Either way the values are summed in sign-row order, with the same bytes;
    a sum beyond the float range is ±inf, without a warning.
    """
    s = len(fs)
    if s < 1:
        raise ValueError("polarization needs at least one vector")
    if s > POLARIZATION_DEGREE_CAP:
        raise ValueError(f"degree {s} exceeds the polarization cap {POLARIZATION_DEGREE_CAP}")
    compiled = type(evaluator) is HomogeneousPolynomial
    _check_vectors(fs, evaluator.domain_dim if compiled else None)
    if compiled and check_homogeneity and evaluator.degree != s:
        raise ValueError(f"polarization of {s} vectors needs degree {s}, "
                         f"but the polynomial has degree {evaluator.degree}")
    signs, parities = _sign_table(s)
    if compiled:  # the rows whose first sign is +1; the others are their negations
        signs = signs[:len(signs) // 2]
    with np.errstate(over="ignore", invalid="ignore"):
        # sum_k e_k f_k for each sign row e, slot by slot (integer signs keep
        # exact entries exact); a row beyond the float range is ±inf
        rows = fs[0]._data * signs[:, :1]
        for k in range(1, s):
            rows = rows + fs[k]._data * signs[:, k:k + 1]
        if compiled:
            values = _with_negated_rows(TermStack.of(evaluator)(rows), evaluator.degree)
            return _parity_sum(values, parities, s)
    # a black box runs under its caller's error state
    values = _blackbox_values(evaluator, fs, rows, check_homogeneity)
    with np.errstate(over="ignore", invalid="ignore"):
        return _parity_sum(values, parities, s)


def _parity_sum(values: np.ndarray, parities: np.ndarray, s: int) -> np.ndarray:
    """The polarization sum of the values at the 2^s sign rows, each times
    its row's parity, summed in sign-row order (`ordered_sum`), over 2^s s!."""
    total = ordered_sum(values * parities)
    denom = (2**s) * factorial(s)
    if total.dtype == object:
        return total * Fraction(1, denom)
    return total / denom


def _with_negated_rows(head: np.ndarray, degree: int) -> np.ndarray:
    """The values at all 2^s sign rows from ``head``, those at the first
    2^(s-1), whose first sign is +1: row 2^s - 1 - i negates row i's signs,
    so its argument is row i's negated, up to the signs of zeros, and a
    homogeneous P of the given degree takes the value (-1)^degree P there,
    bit for bit. P's sums start from +0, so its values are never -0.0, and
    a NaN among them is the same NaN at x and -x: the negated value is
    0 - value, which keeps a +0.0 and a NaN as they are (negation would flip
    their sign bits)."""
    values = np.empty((2 * len(head), *head.shape[1:]), dtype=head.dtype)
    values[:len(head)] = head
    mirror = values[::-1][:len(head)]  # rows 2^s - 1 down to 2^(s-1)
    if degree % 2:
        np.subtract(0, head, out=mirror)
    else:
        mirror[...] = head
    return values


@lru_cache(maxsize=POLARIZATION_DEGREE_CAP)
def _sign_table(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sign row e in {1, -1}^s, the all-plus row first, and each row's
    parity prod_k e_k as an int8 column, which keeps any value's dtype."""
    signs = np.array(list(itertools.product((1, -1), repeat=s)))
    parities = signs.prod(axis=1, dtype=np.int8)[:, None]
    signs.flags.writeable = parities.flags.writeable = False
    return signs, parities


def _blackbox_values(evaluator: Callable, fs: Sequence[LatticeVector], rows: np.ndarray,
                     check_homogeneity: bool) -> np.ndarray:
    """The evaluator's values at the signed rows, one call per row, after
    its homogeneity probes when ``check_homogeneity`` is set. The probes and
    the all-plus row are PositiveVectors when every f is one; each other
    row, holding a negated f, is a LatticeVector. A signed row beyond the
    float range reaches the evaluator as the unchecked LatticeVector of its
    ±inf entries, the one kind of vector that holds them. A probe that the
    float range cannot check, because the summed arguments, a scaling of
    them or the value expected there are not finite, raises ValueError
    saying so, apart from the spot check's failure."""
    s, exact = len(fs), fs[0].is_exact
    cone = PositiveVector if all(isinstance(f, PositiveVector) for f in fs) else LatticeVector

    def value(cls, row):
        if _finite_entries(row).all():
            f = cls._from_data(row)
        else:  # a signed argument beyond the float range, handed over as it is
            f = LatticeVector._wrap(row)
        return np.atleast_1d(np.asarray(evaluator(f)))

    if check_homogeneity:
        beyond = f"cannot verify the degree-{s} homogeneity within the float range"
        with np.errstate(over="ignore"):
            probe = reduce(lambda a, b: a + b, [f._data for f in fs])
        if not _finite_entries(probe).all():
            raise ValueError(f"{beyond}: the summed arguments are not finite")
        base = value(cone, probe.copy())  # a lone f's sum is its own data
        for lam in (2, Fraction(1, 2)) if exact else (2.0, 0.5):
            with np.errstate(over="ignore", invalid="ignore"):
                expect = base * lam**s
                scaled = probe * lam
            if not _finite_entries(expect).all():
                raise ValueError(f"{beyond}: the value at the summed arguments times "
                                 f"{lam}**{s} is not finite")
            if not _finite_entries(scaled).all():
                raise ValueError(f"{beyond}: the summed arguments times {lam} are not finite")
            if float(row_residuals(value(cone, scaled)[None], expect[None])[0]) > 1e-6:
                raise ValueError(
                    f"evaluator failed the degree-{s} homogeneity spot check at scale {lam}"
                )
    classes = [cone] + [LatticeVector] * (len(rows) - 1)
    return np.stack([value(cls, row) for cls, row in zip(classes, rows)])


def _additivity_sides(P: TermStack, f: np.ndarray, g: np.ndarray):
    """P(f + g) and P(f) + P(g) for each row of the stacked disjoint pairs f, g
    (T, n), from one evaluation; both (T, d), object for exact coefficients."""
    total, at_f, at_g = P.values([f + g, f, g])
    return total, at_f + at_g


def _check_int(value, name: str) -> int:
    """``value`` as a Python int, or TypeError naming the argument ``name``
    unless it is an int (numpy's included); a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return int(value)


def _check_seed(seed) -> None:
    """A seed is a nonnegative int: numpy's own errors for a float or a
    negative seed name no argument, and it would take True as 1."""
    _check_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def is_positively_orthogonally_additive(
    P: HomogeneousPolynomial,
    trials: int = 200,
    seed: int = 0,
    *,
    exhaustive: bool = False,
    tolerances: ToleranceConfig = DEFAULT_TOLERANCES,
) -> VerificationReport:
    """Randomized additivity check of P on disjoint positive pairs.

    Samples support bipartitions (all 2^n of them when ``exhaustive``, each
    tried ceil(trials / 2^n) times in a row; uniformly random otherwise, all
    drawn before any entry), fills the two sides with log-uniform positive
    entries, and compares P(f+g) against P(f) + P(g). Failure is a report
    outcome carrying the first counterexample, not an exception.

    Trials run in blocks (`_schedule`), drawn with the generator calls of a
    loop over single trials and evaluated together on P's `TermStack`, so
    reports do not depend on the blocks. Each bit of a random mask is one
    32-bit output of ``default_rng(seed)``: the entries' generator skips
    past all of them at once, and a second generator of the seed draws each
    block's masks.

    ``trials`` must be a positive int and ``seed`` a nonnegative one
    (TypeError, ValueError). Every call runs the check and returns a fresh
    report; only `falsify` keeps the verdict of its exhaustive precondition
    (see there).
    """
    trials = _check_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_seed(seed)
    n = P.domain_dim
    rng = np.random.default_rng(seed)
    if exhaustive:
        if n > 16:
            raise ValueError("exhaustive bipartitions are limited to dimension 16")
        draws = max(1, -(-trials // 2**n))
        total = 2**n * draws
        bits = np.arange(n)

        def masks(start, stop):
            # trial t tries bipartition t // draws, whose bit i puts coordinate i in f
            return (np.arange(start, stop)[:, None] // draws >> bits) & 1 == 1
    else:
        total = trials
        replay = np.random.default_rng(seed)
        # the masks come first, one 32-bit output a bit, and PCG64 makes two
        # such outputs of each 64-bit step
        rng.bit_generator.advance(-(-total * n // 2))

        def masks(start, stop):
            return replay.integers(0, 2, (stop - start, n)).astype(bool)

    low, high = np.log(1e-3), np.log(1e3)
    stack = TermStack.of(P)
    worst = 0.0
    counterexample = None
    cap = min(BLOCK_TRIALS, STACK_BYTES // (8 * 6 * n))
    for lo, hi in _schedule(cap, 0, (0, total, cap)):
        mask = masks(lo, hi)
        entries = rng.uniform(low, high, (hi - lo, 2, n))
        np.exp(entries, out=entries)
        f = np.where(mask, entries[:, 0], 0.0)
        g = np.where(mask, 0.0, entries[:, 1])
        lhs, rhs = _additivity_sides(stack, f, g)
        res = row_residuals(lhs, rhs, switch=tolerances.relative_switch)
        worst = max(worst, float(res.max()))
        failing = np.flatnonzero(res > tolerances.identity_rel)
        if counterexample is None and failing.size:
            i = failing[0]
            counterexample = {
                "f": f[i].tolist(),
                "g": g[i].tolist(),
                "lhs": lhs[i],
                "rhs": rhs[i],
                "residual": float(res[i]),
            }
    return VerificationReport(
        claim_id="POA",
        trials=total,
        max_residual=worst,
        tolerance=tolerances.identity_rel,
        passed=worst <= tolerances.identity_rel and counterexample is None,
        counterexample=counterexample,
    )


# -- JSON wire format ----------------------------------------------------------


def polynomial_to_json(P: HomogeneousPolynomial) -> dict:
    """{"s", "n", "d", "terms": [{"key": [...], "coeff": [...]}]} with keys 0-based."""
    def scalar(v):
        return str(v) if isinstance(v, Fraction) else float(v)

    return {
        "s": P.degree,
        "n": P.domain_dim,
        "d": P.codomain_dim,
        "terms": [
            {"key": list(key), "coeff": [scalar(c) for c in coeff]}
            for key, coeff in P.terms.items()
        ],
    }


JSON_DEGREE_LIMIT = 64
"""The largest degree ``s`` that `polynomial_from_json` accepts."""

JSON_DIMENSION_LIMIT = 1 << 16
"""The largest dimensions ``n`` and ``d`` that `polynomial_from_json`
accepts: a polynomial's keys and coefficients are built before any vector is
read, so a size beyond these is rejected, naming the field."""


def _json_int(value, field: str, limit: int | None = None) -> int:
    """An integral JSON number, in 1..limit when a limit is given; booleans,
    strings and fractional values are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    if limit is not None and not 1 <= value <= limit:
        raise ValueError(f"field {field!r} must lie in 1..{limit}, got {value!r}")
    return int(value)


def polynomial_from_json(payload: dict) -> HomogeneousPolynomial:
    """Parse the term-map format, or the shortcut {"s": ..., "diagonal": [[...], ...]}.

    Degrees, dimensions and key entries must be integral numbers, the degree
    at most `JSON_DEGREE_LIMIT` and the dimensions at most
    `JSON_DIMENSION_LIMIT`, and each coefficient row a `json_entries` row (a bare
    number is a row of one); anything else raises ValueError naming the
    field, never a silent truncation.
    """
    if not isinstance(payload, dict):
        raise ValueError("polynomial payload must be a JSON object")
    if "s" not in payload:
        raise ValueError("polynomial payload is missing field 's'")
    s = _json_int(payload["s"], "s", JSON_DEGREE_LIMIT)
    if "diagonal" in payload:
        rows = payload["diagonal"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("field 'diagonal' must be a nonempty array of coefficient rows")
        if len(rows) > JSON_DIMENSION_LIMIT:
            raise ValueError(f"field 'diagonal' must hold at most {JSON_DIMENSION_LIMIT} rows, "
                             f"got {len(rows)}")
        return HomogeneousPolynomial.diagonal([_coeff_row(r, "diagonal") for r in rows], s)
    try:
        n, d, raw_terms = payload["n"], payload["d"], payload["terms"]
    except KeyError as exc:
        raise ValueError(f"polynomial payload is missing field {exc.args[0]!r}") from exc
    n, d = _json_int(n, "n", JSON_DIMENSION_LIMIT), _json_int(d, "d", JSON_DIMENSION_LIMIT)
    if not isinstance(raw_terms, list):
        raise ValueError(f"field 'terms' must be an array of terms, got {raw_terms!r}")
    keys, rows = [], []
    for item in raw_terms:
        try:
            key, coeff = item["key"], item["coeff"]
        except (TypeError, KeyError):
            raise ValueError("each term needs fields 'key' and 'coeff'") from None
        if not isinstance(key, list):
            raise ValueError(f"field 'key' must be an array of integers, got {key!r}")
        keys.append(tuple(_json_int(i, "key") for i in key))
        rows.append(_coeff_row(coeff, "coeff"))
    # terms on one index multiset are summed in file order, whether their
    # key lists are identical or permuted
    return HomogeneousPolynomial._from_rows(s, n, d, keys, rows)


def _coeff_row(row, field: str) -> list:
    return json_entries(row if isinstance(row, list) else [row], f"field {field!r}")
