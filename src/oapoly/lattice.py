"""Coordinatewise vector lattice on R^n with float and exact-rational scalars.

Everything in this package lives on R^n ordered coordinatewise: suprema,
infima and absolute values act entry by entry, and a continuous positively
homogeneous function of k real arguments extends to positive vectors by
pointwise application (on R^n the point evaluations are exactly the lattice
homomorphisms, so nothing more abstract is needed).

Two scalar modes are supported, and a vector's array dtype is its only record:

* float64 entries (the default), used for all randomized checking;
* exact ``fractions.Fraction`` entries in an object array, used for small
  golden-value cross-checks where identities must hold with zero residual.

Vectors are immutable after construction and all operations are pure, so
values can be shared freely across threads. Each vector's entries are
checked once, when it is built: by the constructor, or by `_from_data` for
a vector built from an operation's data. So every float entry is finite,
and every PositiveVector entry >= 0, however the vector was built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "LatticeVector",
    "PositiveVector",
    "sup",
    "inf",
    "is_disjoint",
    "apply_homogeneous",
    "vector_to_json",
    "vector_from_json",
    "json_row",
    "EXACT_DIGITS",
]


class DimensionMismatchError(ValueError):
    """Two vectors of different lengths were combined."""


def _coerce(entries: Iterable, exact: bool) -> np.ndarray:
    if exact:
        data = np.array(
            [e if isinstance(e, Fraction) else Fraction(e) for e in entries],
            dtype=object,
        )
    elif type(entries) is np.ndarray and entries.dtype == np.float64 and entries.ndim == 1:
        data = entries  # already the float() of each entry; copied below
    else:
        data = np.array([float(e) for e in entries], dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("a lattice vector needs a nonempty, one-dimensional entry list")
    if not exact:
        if not np.isfinite(data).all():
            raise ValueError("lattice vector entries must be finite")
        data = data + 0.0  # a fresh array; normalizes -0.0 so reciprocals cannot produce -inf
    data.flags.writeable = False
    return data


class LatticeVector:
    """Immutable element of the coordinatewise lattice R^n."""

    __slots__ = ("_data",)

    def __init__(self, entries: Iterable, *, exact: bool = False):
        self._data = _coerce(entries, bool(exact))

    @classmethod
    def exact(cls, entries: Iterable):
        """Build a vector with exact rational entries.

        Accepts ints, ``Fraction`` instances and strings like ``"3/4"``.
        """
        return cls(entries, exact=True)

    @classmethod
    def _from_data(cls, data: np.ndarray):
        """The vector of ``data``, a fresh one-dimensional array that the
        caller hands over: an operation's result on vectors' data (computed
        without numpy warnings), or a mean's, exact when it holds objects.
        This is the one check of a vector built from data: each float entry
        is tested once to be finite, and a PositiveVector's to be >= 0, and
        a PositiveVector's -0.0 entries become +0.0 in place. A failed test
        raises the constructor's error. The array is frozen without a copy."""
        positive = issubclass(cls, PositiveVector)
        if data.dtype == object:
            ok = not positive or (data >= 0).all()
        else:
            low, high = np.minimum.reduce(data), np.maximum.reduce(data)
            # both comparisons are False at a NaN
            ok = (low >= 0 if positive else -math.inf < low) and high < math.inf
            if positive and low == 0:
                np.add(data, 0.0, out=data)  # -0.0 + 0.0 is +0.0
        if not ok:
            return cls(data, exact=data.dtype == object)  # raises the constructor's error
        return cls._wrap(data)

    @classmethod
    def _wrap(cls, data: np.ndarray):
        """The vector of ``data`` as it is (of its kind), frozen in place and
        unchecked; see `_from_data` for the checked way."""
        vec = object.__new__(cls)
        data.setflags(write=False)
        vec._data = data
        return vec

    # -- basic introspection -------------------------------------------------

    @property
    def dim(self) -> int:
        return self._data.size

    @property
    def is_exact(self) -> bool:
        return self._data.dtype == object

    @property
    def entries(self) -> tuple:
        """Entries as plain Python scalars (floats, or Fractions in exact mode)."""
        if self.is_exact:
            return tuple(self._data)
        return tuple(float(x) for x in self._data)

    def to_array(self) -> np.ndarray:
        """Entries as a fresh numpy array (float64, or object for exact mode)."""
        return self._data.copy()

    def __len__(self) -> int:
        return self._data.size

    def __getitem__(self, i: int):
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def __repr__(self) -> str:
        tag = "exact " if self.is_exact else ""
        return f"{type(self).__name__}({tag}{list(self._data)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeVector):
            return NotImplemented
        return (
            self.is_exact == other.is_exact
            and self.dim == other.dim
            and bool(np.all(self._data == other._data))
        )

    def __hash__(self) -> int:
        return hash((self.is_exact, self.entries))

    # -- vector space structure ----------------------------------------------

    # a float result beyond the range is refused by `_from_data`, so the
    # operations that can leave it compute without numpy's warnings

    def __add__(self, other):
        _check_vectors((self, other))
        with np.errstate(over="ignore"):
            data = self._data + other._data
        return _pair_class(self, other)._from_data(data)

    def __sub__(self, other):
        _check_vectors((self, other))
        with np.errstate(over="ignore"):
            data = self._data - other._data
        return LatticeVector._from_data(data)

    def __neg__(self):
        return LatticeVector._from_data(-self._data)

    def __mul__(self, scalar):
        if not self.is_exact:
            scalar = float(scalar)  # the data stays float64: a Fraction makes objects
        elif isinstance(scalar, float):
            raise ValueError("scaling an exact vector needs an int or Fraction scalar")
        nonneg = scalar >= 0 and isinstance(self, PositiveVector)
        cls = PositiveVector if nonneg else LatticeVector
        with np.errstate(over="ignore", invalid="ignore"):  # invalid: 0 * inf
            data = self._data * scalar
        return cls._from_data(data)

    __rmul__ = __mul__

    def __abs__(self):
        return PositiveVector._from_data(np.abs(self._data))


class PositiveVector(LatticeVector):
    """Lattice vector with all entries >= 0 (an element of the positive cone)."""

    __slots__ = ()

    def __init__(self, entries: Iterable, *, exact: bool = False):
        super().__init__(entries, exact=exact)
        if not (self._data >= 0).all():
            raise ValueError("positive vector entries must be >= 0")


def _check_vectors(fs: Sequence[LatticeVector], dim: int | None = None) -> None:
    """The one check of vector arguments fs (nonempty): each, in order, is a
    LatticeVector of the first's dimension and scalar mode (its array's
    dtype: object or float64), and that dimension is ``dim`` (a
    polynomial's domain) when given."""
    first = fs[0]
    for f in fs:
        if not isinstance(f, LatticeVector):
            raise TypeError(f"expected a LatticeVector, got {type(f).__name__}")
        if f.dim != first.dim:
            raise DimensionMismatchError(f"dimension mismatch: {first.dim} vs {f.dim}")
        if f._data.dtype != first._data.dtype:
            raise ValueError("cannot mix exact and float vectors")
    if dim is not None and first.dim != dim:
        raise DimensionMismatchError(f"vector dimension {first.dim} does not match domain {dim}")


def _pair_class(f: LatticeVector, g: LatticeVector) -> type:
    if isinstance(f, PositiveVector) and isinstance(g, PositiveVector):
        return PositiveVector
    return LatticeVector


def sup(f: LatticeVector, g: LatticeVector) -> LatticeVector:
    """Coordinatewise maximum (the lattice join)."""
    _check_vectors((f, g))
    return _pair_class(f, g)._from_data(np.maximum(f._data, g._data))


def inf(f: LatticeVector, g: LatticeVector) -> LatticeVector:
    """Coordinatewise minimum (the lattice meet)."""
    _check_vectors((f, g))
    return _pair_class(f, g)._from_data(np.minimum(f._data, g._data))


def is_disjoint(f: LatticeVector, g: LatticeVector) -> bool:
    """True iff |f| and |g| have no common support, i.e. min(|f_i|, |g_i|) == 0
    exactly for every coordinate.

    The test is deliberately exact rather than tolerance based; callers that
    need disjoint inputs must construct them with exactly-zero entries.
    """
    _check_vectors((f, g))
    return bool(np.all(np.minimum(np.abs(f._data), np.abs(g._data)) == 0))


def apply_homogeneous(phi: Callable, fs: Sequence[PositiveVector]) -> PositiveVector:
    """Apply a continuous positively homogeneous scalar function coordinatewise.

    ``phi`` takes k real arguments and must map nonnegative inputs to a
    nonnegative value; ``fs`` supplies k positive vectors of equal dimension.
    On R^n this pointwise evaluation is the whole functional calculus, and it
    commutes with positive scaling exactly because ``phi`` does.
    """
    if not fs:
        raise ValueError("apply_homogeneous needs at least one vector")
    _check_vectors(fs)
    values = [phi(*(f._data[i] for f in fs)) for i in range(fs[0].dim)]
    exact = fs[0].is_exact and all(isinstance(v, (Fraction, int)) for v in values)
    return PositiveVector(values, exact=exact)


# -- JSON wire format ---------------------------------------------------------


def vector_to_json(f: LatticeVector) -> list:
    """A vector as a JSON-ready list: numbers, or "p/q" strings in exact mode."""
    if f.is_exact:
        return [str(e) for e in f.entries]
    return [float(e) for e in f.entries]


EXACT_DIGITS = 1000
"""The most digits an exact JSON entry may have: an integer entry of an exact
row, or a string of more characters or with a larger decimal exponent, is
rejected before it is read, since its value would cost time and memory
without bound (``"1e3000000"`` builds a three-million-digit integer)."""


def json_row(row, field: str) -> np.ndarray:
    """A nonempty JSON array of numbers as an array: objects holding exact
    Fractions when any entry is a string (``"3/4"``, ``"2"``), else float64;
    see `json_entries` for what raises."""
    entries = json_entries(row, field)
    return np.array(entries, dtype=object if isinstance(entries[0], Fraction) else float)


def json_entries(row, field: str) -> list:
    """A nonempty JSON array of numbers as a list: all Fractions when any
    entry is a string (``"3/4"``, ``"2"``), else all floats.

    Anything else raises ValueError naming ``field``: a row that is not a
    nonempty array; an entry that is a boolean, null, an array or an object;
    a string that is not a rational; a zero denominator; an exact entry
    beyond `EXACT_DIGITS`; an integer beyond the float range in a float row,
    and a non-finite float in an exact one.
    """
    if not isinstance(row, (list, tuple)) or not row:
        raise ValueError(f"{field} must be a nonempty array of numbers, got {row!r}")
    exact = any(isinstance(v, str) for v in row)
    return [_json_number(v, exact, field) for v in row]


def _json_number(v, exact: bool, field: str):
    """One entry of a `json_entries` row: a Fraction in an exact row, else a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ValueError(f'{field} must hold numbers or "p/q" strings, got {v!r}')
    if exact and _beyond_exact_digits(v):
        text = "an integer" if isinstance(v, int) else f"{v[:20]!r}{'...' * (len(v) > 20)}"
        raise ValueError(f"{field} holds {text}, which has more than {EXACT_DIGITS} digits")
    try:
        return Fraction(v) if exact else float(v)
    except ZeroDivisionError:
        problem = f"{v!r}, whose denominator is zero"
    except (OverflowError, ValueError):
        if isinstance(v, int):
            problem = "an integer beyond the float range"
        elif isinstance(v, str):
            problem = f"{v!r}, which is not a rational number"
        else:  # inf or nan beside a string entry
            problem = f"{v!r}, which is not finite"
    raise ValueError(f"{field} holds {problem}")


def _beyond_exact_digits(v) -> bool:
    """Whether Fraction(v) may have more than `EXACT_DIGITS` digits, decided
    without building it: an integer with more, or a string with more
    characters, or whose characters and decimal exponent add up to more. A
    float's Fraction is dyadic, of at most 1075 bits."""
    if isinstance(v, int):
        return abs(v) >= 10**EXACT_DIGITS
    if not isinstance(v, str):
        return False
    if len(v) > EXACT_DIGITS:
        return True
    exponent = v.lower().partition("e")[2].strip().replace("_", "")
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    # a malformed exponent is left to Fraction to reject
    return digits.isdecimal() and len(v) + int(digits) > EXACT_DIGITS


def vector_from_json(payload: Sequence, *, positive: bool = False) -> LatticeVector:
    """Parse a vector from its JSON list form, a `json_row`: any string entry
    (e.g. ``"3/4"``) switches the whole vector to exact mode."""
    data = json_row(payload, "the vector")
    cls = PositiveVector if positive else LatticeVector
    return cls(data, exact=data.dtype == object)
