"""Homogeneous polynomials on R^n with their symmetric multilinear forms.

A degree-s polynomial P: R^n -> R^d is stored as a sparse map from index
multisets (sorted s-tuples over 0..n-1) to codomain coefficient vectors. The
stored coefficient is the value of the symmetric tensor at any ordered
arrangement of the key, which pins the one convention everything else relies
on:

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, inf
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import DimensionMismatchError, LatticeVector, PositiveVector, json_row
from .reports import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    VerificationReport,
    residual,
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
]

POLARIZATION_DEGREE_CAP = 8

BLOCK_TRIALS = 1024
"""Trials drawn and evaluated together; bounds memory whatever the trial count."""

STACK_BYTES = 32 << 20
"""Bytes that the buffers of one `TermStack` evaluation may hold at once. Its
rows go in chunks of at most STACK_BYTES // (24 * width) rows, where width is
the evaluation's widest per-row buffer (slot products, or terms over keys and
codomain): at most three such buffers of 8-byte entries are alive at once (an
object array counts its references)."""


def _multinomial(key: tuple[int, ...]) -> int:
    """Number of ordered arrangements of the index multiset ``key``."""
    out = factorial(len(key))
    for c in Counter(key).values():
        out //= factorial(c)
    return out


@lru_cache(maxsize=4096)
def _arrangements(key: tuple[int, ...]) -> np.ndarray:
    """All distinct ordered arrangements of ``key``, shape (multinomial, s)."""
    arr = np.array(sorted(set(itertools.permutations(key))), dtype=np.intp)
    arr.flags.writeable = False
    return arr


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """((0 + t_0) + t_1) + ... over axis 1 of (T, m, d) terms, float or exact:
    the order of accumulating key by key from zero. The terms are accumulated
    in place, and the sums copied out, so that no (T, m, d) buffer outlives
    the call."""
    if terms.shape[1] == 0:
        return np.full((terms.shape[0], terms.shape[2]),
                       Fraction(0) if terms.dtype == object else 0.0)
    terms[:, 0] += 0
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()


class TermStack:
    """A stack of T polynomials of one degree that share one key set.

    ``keys`` are canonical index multisets and ``coeffs`` has shape (T, m, d),
    or (1, m, d) for one polynomial shared by every row: floats, or objects
    holding exact Fractions. Evaluation takes stacked rows, float or object,
    and computes row by row in one fixed order (sequential products over
    slots, then sequential accumulation over keys from zero), so each row's
    value is bit-identical to evaluating that row's polynomial at that row
    alone, and exact coefficients at exact rows give exact values. So rows
    go in chunks when a block's buffers would exceed `STACK_BYTES`. Exact
    coefficients at float rows multiply as floats, as `Fraction * float`
    does. Overflow, also of an exact coefficient beyond the float range,
    gives inf without a warning: the residual policy reports non-finite
    sides. The arrangement tables of the symmetric form are built on its
    first use. Index tables are kept in Fortran order, so that each slot's
    column is one contiguous vector for ``ndarray.take``, which gathers
    faster than fancy indexing.
    """

    def __init__(self, degree: int, keys: Sequence[tuple[int, ...]], coeffs: np.ndarray):
        self._keys = [tuple(k) for k in keys]
        self.coeffs = coeffs
        self._index = np.asfortranarray(
            np.array(self._keys, dtype=np.intp).reshape(len(self._keys), degree))
        self._weights = np.array([_multinomial(k) for k in self._keys], dtype=float)
        self._layout = None
        # bytes of a row's buffers, see STACK_BYTES; the form's come with its layout
        self._row_bytes = 24 * max(1, coeffs.shape[1] * coeffs.shape[2])
        self._form_row_bytes = None

    @classmethod
    def of(cls, P: "HomogeneousPolynomial") -> "TermStack":
        """One polynomial, shared by every row: P's compiled form, built on
        first use and kept on P. Exact coefficients are held as objects."""
        if P._stack is None:
            coeffs = np.empty((1, len(P.terms), P.codomain_dim),
                              dtype=object if P.is_exact else float)
            for i, coeff in enumerate(P.terms.values()):
                coeffs[0, i] = coeff
            coeffs.flags.writeable = False
            P._stack = cls(P.degree, list(P.terms), coeffs)
        return P._stack

    @classmethod
    def diagonal(cls, coeffs: np.ndarray, degree: int) -> "TermStack":
        """Row t is sum_i coeffs[t, i] x_i^degree, for coeffs of shape (T, n, d)."""
        return cls(degree, [(i,) * degree for i in range(coeffs.shape[1])], coeffs)

    @property
    def degree(self) -> int:
        return self._index.shape[1]

    def take(self, rows: np.ndarray | slice) -> "TermStack":
        """The stack of the given rows' polynomials (itself when one is shared)."""
        if self.coeffs.shape[0] == 1:
            return self
        self._arrangement_layout()  # built once, shared by every row group
        out = copy.copy(self)
        out.coeffs = self.coeffs[rows]
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, X: np.ndarray) -> np.ndarray:
        """P at each row of X (T, n); returns (T, d)."""
        if len(X) > 1 and len(X) * self._row_bytes > STACK_BYTES:
            return self._in_chunks(lambda stack, lo, hi: stack(X[lo:hi]), len(X), self._row_bytes)
        index = self._index
        monomial = X.take(index[:, 0], axis=1)
        for k in range(1, index.shape[1]):
            monomial = monomial * X.take(index[:, k], axis=1)
        # integer weights keep exact monomials exact; float ones spare float
        # monomials a cast per call
        weights = self._weights.astype(np.intp) if X.dtype == object else self._weights
        return _sum_terms(_coefficients_at(self.coeffs, (X,)) * (weights * monomial)[:, :, None])

    def _in_chunks(self, evaluate, T: int, row_bytes: int) -> np.ndarray:
        """evaluate(stack, lo, hi) for chunks of the T rows that keep to
        `STACK_BYTES`, each on the stack of its rows' polynomials; rows are
        independent, so the values are those of one call."""
        step = max(1, STACK_BYTES // row_bytes)
        return np.concatenate([evaluate(self.take(slice(lo, lo + step)), lo, lo + step)
                               for lo in range(0, T, step)])

    def _arrangement_layout(self):
        """The keys grouped by their number A of arrangements: for each group,
        its keys' positions, all their arrangements as one int32 table of
        shape (keys * A, s), each key's A rows together, and A."""
        if self._layout is None:
            groups: dict[int, tuple[list, list]] = {}
            for i, key in enumerate(self._keys):
                arrangements = _arrangements(key)
                positions, tables = groups.setdefault(len(arrangements), ([], []))
                positions.append(i)
                tables.append(arrangements)
            self._layout = [
                (np.array(positions),
                 np.asfortranarray(np.concatenate(tables, dtype=np.int32)),
                 count)
                for count, (positions, tables) in groups.items()
            ]
            widest = max((len(table) for _, table, _ in self._layout), default=0)
            self._form_row_bytes = max(self._row_bytes, 24 * widest)
        return self._layout

    @np.errstate(over="ignore", invalid="ignore")
    def form(self, slots: Sequence[np.ndarray]) -> np.ndarray:
        """The symmetric form at stacked arguments: slots[k] (T, n) fills slot k."""
        if len(slots) != self.degree:
            raise ValueError(f"the form takes exactly {self.degree} vectors, got {len(slots)}")
        groups = self._arrangement_layout()
        T = len(slots[0])
        if T > 1 and T * self._form_row_bytes > STACK_BYTES:
            return self._in_chunks(lambda stack, lo, hi: stack.form([x[lo:hi] for x in slots]),
                                   T, self._form_row_bytes)
        if len(groups) == 1:  # every key, in key order
            totals = _arrangement_sums(slots, *groups[0][1:])
        else:
            totals = np.empty((T, len(self._keys)), dtype=np.result_type(*slots))
            for positions, table, count in groups:
                totals[:, positions] = _arrangement_sums(slots, table, count)
        return _sum_terms(_coefficients_at(self.coeffs, slots) * totals[:, :, None])


def _coefficients_at(coeffs: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """coeffs as they multiply the given rows: exact coefficients at float
    rows as the floats that `Fraction * float` multiplies by, held as
    objects, and ±inf beyond the float range, where `Fraction.__float__`
    raises OverflowError."""
    if coeffs.dtype == object and np.result_type(*rows) != object:
        return _float_coefficients(coeffs)
    return coeffs


def _as_float(c) -> float:
    try:
        return float(c)
    except OverflowError:  # beyond the float range, as float("1e400") is
        return inf if c > 0 else -inf


_float_coefficients = np.frompyfunc(_as_float, 1, 1)


def _arrangement_sums(slots: Sequence[np.ndarray], table: np.ndarray, count: int) -> np.ndarray:
    """For each row and each key of one arrangement group, the sum over the
    key's ``count`` arrangements of the slot products; (T, keys)."""
    products = slots[0].take(table[:, 0], axis=1)
    for k in range(1, table.shape[1]):
        products = products * slots[k].take(table[:, k], axis=1)
    if count == 1:
        return products
    # take gives C order, so that each row's sum over a key's arrangements is
    # numpy's pairwise sum of a contiguous vector, as in the scalar form
    return products.reshape(len(products), -1, count).sum(axis=2)


def _coerce_coeff(value, d: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value))
    if any(isinstance(v, Fraction) for v in arr.ravel().tolist()):
        arr = np.array([Fraction(v) if not isinstance(v, Fraction) else v for v in arr], dtype=object)
    else:
        arr = arr.astype(float)
    if arr.shape != (d,):
        raise ValueError(f"coefficient must have shape ({d},), got {arr.shape}")
    return arr


class HomogeneousPolynomial:
    """Degree-s homogeneous polynomial R^n -> R^d with sparse coefficients.

    ``terms`` is a read-only mapping from canonical keys to read-only
    coefficient arrays: a polynomial cannot change after construction.
    """

    __slots__ = ("degree", "domain_dim", "codomain_dim", "terms", "_exact", "_stack")

    def __init__(
        self,
        degree: int,
        domain_dim: int,
        codomain_dim: int,
        terms: Mapping[tuple[int, ...], Sequence],
    ):
        if degree < 1 or domain_dim < 1 or codomain_dim < 1:
            raise ValueError("degree and dimensions must be >= 1")
        self.degree = degree
        self.domain_dim = domain_dim
        self.codomain_dim = codomain_dim
        canon: dict[tuple[int, ...], np.ndarray] = {}
        for key, coeff in terms.items():
            key = tuple(sorted(int(i) for i in key))
            if len(key) != degree:
                raise ValueError(f"key {key} does not have degree {degree}")
            if key and (key[0] < 0 or key[-1] >= domain_dim):
                raise ValueError(f"key {key} has indices outside 0..{domain_dim - 1}")
            arr = _coerce_coeff(coeff, codomain_dim)
            if key in canon:
                arr = canon[key] + arr
            canon[key] = arr
        for arr in canon.values():
            arr.flags.writeable = False
        self.terms = MappingProxyType(
            {k: v for k, v in sorted(canon.items()) if np.any(v != 0)}
        )
        self._exact = any(c.dtype == object for c in self.terms.values())
        self._stack = None  # the compiled form, see TermStack.of

    @classmethod
    def diagonal(cls, coeffs: Sequence, degree: int) -> "HomogeneousPolynomial":
        """P(f) = sum_i c_i f_i^degree for codomain vectors c_i (scalars mean d=1)."""
        rows = [np.atleast_1d(np.asarray(c)) for c in coeffs]
        if not rows:
            raise ValueError("diagonal construction needs at least one coefficient")
        d = rows[0].shape[0]
        n = len(rows)
        terms = {(i,) * degree: rows[i] for i in range(n)}
        return cls(degree, n, d, terms)

    # -- evaluation ------------------------------------------------------------

    def _check_vector(self, f: LatticeVector) -> None:
        if not isinstance(f, LatticeVector):
            raise TypeError(f"expected a LatticeVector, got {type(f).__name__}")
        if f.dim != self.domain_dim:
            raise DimensionMismatchError(
                f"vector dimension {f.dim} does not match domain {self.domain_dim}"
            )

    @property
    def is_exact(self) -> bool:
        return self._exact

    def __call__(self, f: LatticeVector) -> np.ndarray:
        """Evaluate P(f), returning a codomain vector of shape (d,)."""
        self._check_vector(f)
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
        coefficient, which is exactly failure of positive orthogonal additivity."""
        return any(len(set(key)) > 1 for key in self.terms)

    def coefficient(self, key: Sequence[int]) -> np.ndarray:
        key = tuple(sorted(int(i) for i in key))
        if key in self.terms:
            return self.terms[key].copy()
        return np.full(self.codomain_dim, Fraction(0) if self.is_exact else 0.0)

    def coefficient_masses(self) -> tuple[float, float]:
        """(diagonal, mixed) l1 masses of the coefficient map."""
        diag = mixed = 0.0
        for key, coeff in self.terms.items():
            mass = float(sum(abs(c) for c in coeff))
            if len(set(key)) > 1:
                mixed += mass
            else:
                diag += mass
        return diag, mixed

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
        for f in fs:
            P._check_vector(f)
        exact = fs[0].is_exact
        if any(f.is_exact != exact for f in fs):
            raise ValueError("cannot mix exact and float vectors")
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

    When ``check_homogeneity`` is set, the evaluator is first probed at two
    scalings of the summed arguments; a mismatch with degree-s scaling (a
    residual above 1e-6) raises ValueError rather than returning a silently
    wrong value.

    A `HomogeneousPolynomial` (its class exactly) is evaluated at the probes
    and at all 2^s signed arguments in one call on its `TermStack`. Any other
    evaluator is a black box, called once per argument in that order, so
    that a fraud raises before any signed argument is evaluated. Either way
    the values are summed in sign-row order, with the same bytes.
    """
    s = len(fs)
    if s < 1:
        raise ValueError("polarization needs at least one vector")
    if s > POLARIZATION_DEGREE_CAP:
        raise ValueError(f"degree {s} exceeds the polarization cap {POLARIZATION_DEGREE_CAP}")
    probe = reduce(lambda a, b: a + b, fs)
    compiled = type(evaluator) is HomogeneousPolynomial
    if compiled:  # what P(probe), and so P at every signed argument, checks
        evaluator._check_vector(probe)
    scales = ((2, Fraction(1, 2)) if probe.is_exact else (2.0, 0.5)) if check_homogeneity else ()
    signs, parities = _sign_table(s)
    rows, classes = _polarization_rows(fs, probe, scales, signs)
    if compiled:  # every row in one call on P's compiled form
        values = TermStack.of(evaluator)(rows)

        def evaluate(lo, hi):
            return values[lo:hi]
    else:
        def evaluate(lo, hi):  # a black box: one call per row, in order
            return np.stack([
                np.atleast_1d(np.asarray(evaluator(cls._from_data(row, probe.is_exact))))
                for cls, row in zip(classes[lo:hi], rows[lo:hi])])
    if check_homogeneity:
        base = evaluate(0, 1)[0]
        for i, lam in enumerate(scales, 1):
            expect = base * lam**s
            if float(residual(evaluate(i, i + 1)[0], expect)) > 1e-6:
                raise ValueError(
                    f"evaluator failed the degree-{s} homogeneity spot check at scale {lam}"
                )
    # total = val, then total + val, in sign-row order
    total = np.add.accumulate(evaluate(len(rows) - len(signs), len(rows)) * parities,
                              axis=0)[-1]
    denom = (2**s) * factorial(s)
    if total.dtype == object:
        return total * Fraction(1, denom)
    return total / denom


@lru_cache(maxsize=POLARIZATION_DEGREE_CAP)
def _sign_table(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Every sign row e in {1, -1}^s, the all-plus row first, and each row's
    parity prod_k e_k as an int8 column, which keeps any value's dtype."""
    signs = np.array(list(itertools.product((1, -1), repeat=s)))
    parities = signs.prod(axis=1, dtype=np.int8)[:, None]
    signs.flags.writeable = parities.flags.writeable = False
    return signs, parities


def _polarization_rows(fs: Sequence[LatticeVector], probe: LatticeVector, scales,
                       signs: np.ndarray) -> tuple[np.ndarray, list[type]]:
    """The arguments of polarization as one (rows, n) array, float or exact,
    and the class of vector each row is: the probe and the probe at each
    scale, then sum_k e_k f_k for each sign row e, the all-plus row first.
    The signed rows take the operations of summing ``f * e_k`` slot by slot
    (integer signs keep exact entries exact). The probe rows, and the
    all-plus row, are PositiveVectors when the probe is one; each other row,
    holding a negated f, is a LatticeVector."""
    X = np.stack([f.to_array() for f in fs])  # (s, n)
    signed = X[0] * signs[:, :1]
    for k in range(1, len(fs)):
        signed = signed + X[k] * signs[:, k:k + 1]
    cone = PositiveVector if isinstance(probe, PositiveVector) else LatticeVector
    if not scales:
        return signed, [cone] + [LatticeVector] * (len(signed) - 1)
    data = probe._data
    rows = np.vstack([data, *(data * lam for lam in scales), signed])
    return rows, [type(probe)] + [cone] * (len(scales) + 1) + [LatticeVector] * (len(signed) - 1)


def _additivity_sides(P: TermStack, f: np.ndarray, g: np.ndarray):
    """P(f + g) and P(f) + P(g) for each row of the stacked disjoint pairs f, g
    (T, n); both (T, d), object for exact coefficients."""
    return P(f + g), P(f) + P(g)


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

    Trials run in blocks of up to `BLOCK_TRIALS`, drawn with the generator
    calls of a loop over single trials and evaluated together on P's
    `TermStack`, so reports do not depend on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
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
        # every mask is drawn before any entry: skip past them here and
        # replay them block by block from a second generator
        replay = np.random.default_rng(seed)
        for start in range(0, total, BLOCK_TRIALS):
            rng.integers(0, 2, (min(BLOCK_TRIALS, total - start), n))

        def masks(start, stop):
            return replay.integers(0, 2, (stop - start, n)).astype(bool)

    low, high = np.log(1e-3), np.log(1e3)
    stack = TermStack.of(P)
    worst = 0.0
    counterexample = None
    for start in range(0, total, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, total)
        mask = masks(start, stop)
        entries = np.exp(rng.uniform(low, high, (stop - start, 2, n)))
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


def _json_int(value, field: str) -> int:
    """An integral JSON number; booleans, strings and fractional values are rejected."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return int(value)


def polynomial_from_json(payload: dict) -> HomogeneousPolynomial:
    """Parse the term-map format, or the shortcut {"s": ..., "diagonal": [[...], ...]}.

    Degrees, dimensions and key entries must be integral numbers, and each
    coefficient row a `json_row` (a bare number is a row of one); anything
    else raises ValueError naming the field, never a silent truncation.
    """
    if not isinstance(payload, dict):
        raise ValueError("polynomial payload must be a JSON object")
    if "s" not in payload:
        raise ValueError("polynomial payload is missing field 's'")
    s = _json_int(payload["s"], "s")
    if "diagonal" in payload:
        rows = payload["diagonal"]
        if not isinstance(rows, list) or not rows:
            raise ValueError("field 'diagonal' must be a nonempty array of coefficient rows")
        return HomogeneousPolynomial.diagonal([_coeff_row(r, "diagonal") for r in rows], s)
    try:
        n, d, raw_terms = payload["n"], payload["d"], payload["terms"]
    except KeyError as exc:
        raise ValueError(f"polynomial payload is missing field {exc.args[0]!r}") from exc
    n, d = _json_int(n, "n"), _json_int(d, "d")
    if not isinstance(raw_terms, list):
        raise ValueError(f"field 'terms' must be an array of terms, got {raw_terms!r}")
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for item in raw_terms:
        try:
            key, coeff = item["key"], item["coeff"]
        except (TypeError, KeyError):
            raise ValueError("each term needs fields 'key' and 'coeff'") from None
        if not isinstance(key, list):
            raise ValueError(f"field 'key' must be an array of integers, got {key!r}")
        # terms on one index multiset are summed in file order, whether their
        # key lists are identical or permuted
        key = tuple(sorted(_json_int(i, "key") for i in key))
        coeff = _coerce_coeff(_coeff_row(coeff, "coeff"), d)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return HomogeneousPolynomial(s, n, d, terms)


def _coeff_row(row, field: str) -> np.ndarray:
    return json_row(row if isinstance(row, list) else [row], f"field {field!r}")
