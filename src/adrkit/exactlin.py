"""Exact linear algebra over a prime field F_p or the rationals.

Every rank / kernel / reduction computation in the package goes through this
module.  A :class:`Matrix` stores the nonzero entries of each row as a
``{column: entry}`` dict: Python ints in [0, p) over F_p, and
``fractions.Fraction`` over Q (which normalise themselves to lowest terms
with positive denominator).  No floating point anywhere, and no dense array:
the module, like the package, runs on the standard library alone.

There is one elimination, :class:`_SparseEchelon`: a forward loop on rows
given as ``{column: coefficient}`` dicts, with Python ints mod p or, over Q,
integer rows cleared of their denominators on reading (:func:`_cleared`).
:func:`_sparse_rank` reads its pivot columns, which give the rank of the
rows on every column prefix, and the Hom kernel of ``repmod`` reads them
after each level of equations it streams in, leaving out the columns the
loop records as settled; :func:`_tag_order_basis` (the tagged reduction
behind the filtrations of ``repmod``) reads its pivot rows and the rows
that made them; :func:`rref` and the path-basis builder of ``presentation``
back-substitute its pivot rows into an RREF (``rref_rows``), and the builder
asks ``add`` whether a unit row lies in their span.  Over Q an RREF row is
divided by its lead before it leaves, so results stay Fractions.

:class:`FieldSpec` is the only place that knows how the two kinds of field
differ: code asks it for ``one``, and for ``coerce`` and ``inv`` on scalars.
Code outside it never branches on the field kind, except the hot scalar
loops of :class:`_SparseEchelon` (the one-entry shortcut of ``extend``;
reading, reducing and normalising a row in ``_reduced``; back-substitution
in ``rref_rows``), which read ``field.p`` (None over Q).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimension."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Base field: ``kind`` is "prime" (with 2 <= p < 2**31) or "rational"."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "prime":
            if self.p is None or not (2 <= self.p < 2**31):
                raise ValueError(f"prime field needs 2 <= p < 2**31, got {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"p={self.p} is not prime")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no p")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls("prime", p)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls("rational")

    @property
    def one(self) -> int | Fraction:
        return 1 if self.kind == "prime" else Fraction(1)

    def coerce(self, x) -> int | Fraction:
        """Canonical representative of ``x`` in this field.

        Accepts exact rationals only (``numbers.Rational``: ints, Fractions,
        numpy integers), read by their ``numerator`` and ``denominator`` as
        Python ints; anything else, a float of any width, a Decimal or a
        complex, is a TypeError.  Over F_p a fraction a/b becomes
        a * b^{-1} mod p; a non-invertible denominator is an error.
        """
        p = self.p
        if type(x) is int:
            return x % p if p else Fraction(x)
        if type(x) is not Fraction:
            if not isinstance(x, Rational):
                raise TypeError(f"exact rational entry needed, got {x!r} of type {type(x).__name__}")
            x = Fraction(int(x.numerator), int(x.denominator))
        if not p:
            return x
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
        return (x.numerator % p) * pow(den, p - 2, p) % p

    def inv(self, x) -> int | Fraction:
        if self.kind == "prime":
            a = int(x) % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / Fraction(x)

    def describe(self) -> str:
        return f"F_{self.p}" if self.kind == "prime" else "Q"


RATIONAL = FieldSpec.rational()


class Matrix:
    """Immutable matrix over a :class:`FieldSpec`, stored as sparse rows.

    Row r holds the nonzero canonical entries of row r as ``{column:
    entry}`` (:meth:`sparse_rows`, read-only by convention): Python ints in
    [0, p) over F_p, Fractions over Q.  Equality and hashing read the rows
    alone.  ``Matrix(field, data)`` reads a 2-dimensional sequence of rows,
    at least one (nested lists, or an array that iterates as rows of
    entries), each entry by :meth:`FieldSpec.coerce`: ragged or
    non-2-dimensional data is a ValueError, an inexact entry a TypeError.
    :meth:`from_sparse` takes rows as they are.
    """

    __slots__ = ("field", "_rows", "_shape")

    def __init__(self, field: FieldSpec, data: Sequence[Sequence]):
        try:
            rows = [list(row) for row in data]
        except TypeError:
            raise ValueError(f"matrix data must be 2-dimensional, got {data!r}") from None
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix data needs rows, at least one, all of one width (ragged rows)")
        try:
            sparse = tuple({c: v for c, x in enumerate(row) if (v := field.coerce(x))} for row in rows)
        except TypeError:
            if any(isinstance(x, Iterable) for row in rows for x in row):
                raise ValueError("matrix data must be 2-dimensional, got an entry that is a sequence") from None
            raise
        self._store(field, sparse, (len(rows), len(rows[0])))

    def _store(self, field: FieldSpec, rows: tuple[dict, ...], shape: tuple[int, int]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_shape", shape)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_sparse(cls, field: FieldSpec, rows: Sequence[dict], cols: int) -> "Matrix":
        """The matrix whose row r is ``rows[r]``, nonzero canonical entries as ``{column: entry}``, kept as they are."""
        m = object.__new__(cls)
        m._store(field, tuple(rows), (len(rows), cols))
        return m

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        """``Matrix(field, rows)``; with no rows, the 0 x ``cols`` matrix."""
        rows = list(rows)
        if rows:
            return cls(field, rows)
        if cols is None:
            raise ValueError("empty row list needs an explicit column count")
        return cls.zeros(field, 0, cols)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls.from_sparse(field, [{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls.from_sparse(field, [{r: field.one} for r in range(n)], n)

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def entries(self) -> tuple:
        """All entries, row-major."""
        return tuple(x for r in range(self.rows) for x in self.row(r))

    def sparse_rows(self) -> tuple[dict, ...]:
        """The rows, each ``{column: entry}`` of its nonzero entries; do not modify them."""
        return self._rows

    def row(self, r: int) -> tuple:
        row, zero = self._rows[r], self.field.coerce(0)
        return tuple(row.get(c, zero) for c in range(self.cols))

    def __getitem__(self, rc) -> int | Fraction:
        r, c = rc
        return self._rows[r].get(range(self.cols)[c], self.field.coerce(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self._shape == other._shape and self._rows == other._rows

    def __hash__(self):
        return hash((self.field, self._shape, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix({self.field.describe()}, {[list(self.row(r)) for r in range(self.rows)]!r})"

    def is_zero(self) -> bool:
        return not any(self._rows)

    def transpose(self) -> "Matrix":
        return Matrix.from_sparse(self.field, _sparse_transpose(self._rows, self.cols), self.rows)

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical stack; widths must agree."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.cols:
            raise DimensionMismatchError(
                f"ambient widths differ: {self.cols} vs {other.cols}"
            )
        return Matrix.from_sparse(self.field, self._rows + other._rows, self.cols)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"inner dimensions differ: {self.cols} vs {other.rows}"
            )
        coerce, right = self.field.coerce, other._rows
        out = []
        for row in self._rows:
            acc: dict = {}
            for k, x in row.items():
                for c, y in right[k].items():
                    acc[c] = acc.get(c, 0) + x * y
            out.append({c: v for c, x in acc.items() if (v := coerce(x))})
        return Matrix.from_sparse(self.field, out, other.cols)


def _sparse_transpose(rows: Sequence[Mapping], cols: int) -> list[dict]:
    """The ``{row: entry}`` columns of ``cols`` columns given as ``{column: entry}`` rows: the rows of the transpose."""
    out: list[dict] = [{} for _ in range(cols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _cleared(values: Collection) -> list[int]:
    """Rationals times the lcm of their denominators, as Python ints: an integer multiple of the same row.

    An entry is read by its ``numerator`` and ``denominator``, which
    Fractions, ints and numpy integers have; any other entry, a float
    included, is a TypeError that names it.
    """
    try:
        den = lcm(*[x.denominator for x in values])
        if den == 1:
            return [int(x.numerator) for x in values]
        return [int(x.numerator) * (den // int(x.denominator)) for x in values]
    except AttributeError:
        _require_exact(values)
        raise


def _require_exact(values: Iterable) -> None:
    """Raise a TypeError naming the first entry without ``numerator`` and ``denominator``."""
    for x in values:
        if not (hasattr(x, "numerator") and hasattr(x, "denominator")):
            raise TypeError(f"exact rational entry needed, got {x!r} of type {type(x).__name__}") from None


_NO_ENTRIES: dict[int, int] = {}


class _SparseEchelon:
    """Pivot rows of a sparse forward elimination, grown one ``{column: coefficient}`` row at a time.

    Each row is reduced against the pivot rows in the order they were made; a
    heap of creation indices picks up the pivot columns that a subtraction
    brings in.  Pivot row k was itself reduced against pivot rows 0..k-1, so
    it holds no lead column of an earlier one: indices leave the heap in
    increasing order and each pivot row is subtracted at most once.  A row
    that stays nonzero becomes a pivot row at its least column: over F_p it
    is normalised there to 1, over Q the row is an integer row (its
    denominators cleared on reading) and is made primitive with a positive
    lead value d; reducing by it scales the row by d / gcd(d, x) first.
    Coefficients need not be canonical, and zero coefficients are allowed.
    The leads are distinct and each is its row's least column, so the pivot
    rows sorted by lead are an echelon basis of the rows read, and the leads
    are the pivot columns of their RREF.  ``made_by[k]`` is the number of
    rows read before the one that made pivot row k.

    ``settled`` holds the columns c whose unit row e_c lies in the span: those
    of the nonzero one-entry rows read, and the leads of the pivot rows with
    no other entry.  A caller may leave them out of the rows it builds next,
    which changes no span.  A row with one nonzero entry x at column c is
    read without a copy or a heap: it lies in the span if c is settled, and
    with no pivot row at c it becomes the pivot row {c: 1}.  Only a pivot row
    at c with more entries sends it through the reduction.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.lead_of: dict[int, int] = {}
        self.leads: list[int] = []
        self.lead_values: list[int] = []
        # a pivot row omits its lead entry: reducing a row pops the row's own
        # entry at the lead instead of subtracting it.  Pivot rows are never
        # written after they are made, so every one with no other entry is
        # the one _NO_ENTRIES
        self.pivot_rows: list[dict] = []
        self.made_by: list[int] = []
        self.settled: set[int] = set()
        self.read = 0

    def extend(self, rows: Iterable[Mapping[int, int | Fraction]]) -> None:
        """Reduce ``rows`` in order, each nonzero remainder becoming a pivot row; ``read`` counts them all."""
        p, lead_of, leads, pivot_rows, settled = (
            self.field.p, self.lead_of, self.leads, self.pivot_rows, self.settled
        )
        read = self.read
        for row in rows:
            read += 1
            if len(row) != 1:
                made = self._reduced(row)
            else:
                ((lead, x),) = row.items()
                if lead in settled or not (x % p if p else x):
                    continue
                settled.add(lead)
                made = self._reduced(row) if lead in lead_of else (lead, 1, _NO_ENTRIES)
            if made is None:
                continue
            lead, d, pivot = made
            if not pivot:
                settled.add(lead)
                pivot = _NO_ENTRIES
            lead_of[lead] = len(leads)
            leads.append(lead)
            self.lead_values.append(d)
            pivot_rows.append(pivot)
            self.made_by.append(read - 1)
        self.read = read

    def _reduced(self, row: Mapping[int, int | Fraction]) -> tuple[int, int, dict] | None:
        """(lead, d, pivot) for the pivot row {lead: d, **pivot} that ``row`` makes, or None if it lies in the span."""
        p, lead_of, leads, lead_values, pivot_rows = (
            self.field.p, self.lead_of, self.leads, self.lead_values, self.pivot_rows
        )
        if p:
            r = {c: v for c, x in row.items() if (v := x % p)}
        else:
            r = {c: x for c, x in zip(row, _cleared(row.values())) if x}
        heap = [lead_of[c] for c in r if c in lead_of]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            x = r.pop(leads[k], None)
            if x is None:
                continue
            if not p:
                d = lead_values[k]
                g = gcd(x, d)
                if g != d:
                    r = {c: v * (d // g) for c, v in r.items()}
                x //= g
            for c, y in pivot_rows[k].items():
                v = r.get(c)
                if v is None:
                    if c in lead_of:
                        heapq.heappush(heap, lead_of[c])
                    r[c] = (-x * y) % p if p else -x * y
                    continue
                v = (v - x * y) % p if p else v - x * y
                if v:
                    r[c] = v
                else:
                    del r[c]
        if not r:
            return None
        lead = min(r)
        if p:
            inv = self.field.inv(r.pop(lead))
            return lead, 1, {c: v * inv % p for c, v in r.items()}
        g = gcd(*r.values()) if r[lead] > 0 else -gcd(*r.values())
        d = r.pop(lead) // g
        return lead, d, {c: v // g for c, v in r.items()}

    def add(self, row: Mapping[int, int | Fraction]) -> bool:
        """Read one row; True iff it is outside the span of the rows read before, and so became a pivot row."""
        rank = len(self.leads)
        self.extend((row,))
        return len(self.leads) > rank

    def rows(self) -> list[dict]:
        """The pivot rows with their lead entries, in the order they were made."""
        return [
            {lead: d, **pivot} for lead, d, pivot in zip(self.leads, self.lead_values, self.pivot_rows)
        ]

    def rref_rows(self) -> dict[int, dict]:
        """The RREF of the rows read, as ``{lead: {column: entry}}`` with each row's lead entry 1 omitted.

        Back-substitution in decreasing lead order: the rows of the later
        leads are already cleared of every lead, so clearing the leads a row
        holds brings in no new one.  Entries are canonical field elements.
        """
        p = self.field.p
        out: dict[int, dict] = {}
        for k in sorted(range(len(self.leads)), key=self.leads.__getitem__, reverse=True):
            if p:
                row = dict(self.pivot_rows[k])
            else:
                d = self.lead_values[k]
                row = {c: Fraction(v, d) for c, v in self.pivot_rows[k].items()}
            for lead in [c for c in row if c in out]:
                x = row.pop(lead)
                for c, y in out[lead].items():
                    v = row.get(c, 0) - x * y
                    v = v % p if p else v
                    if v:
                        row[c] = v
                    else:
                        del row[c]
            out[self.leads[k]] = row
        return out


def _sparse_rank(rows: Iterable[Mapping[int, int | Fraction]], field: FieldSpec) -> list[int]:
    """The pivot columns, ascending, of the ``{column: coefficient}`` rows, read in order into one :class:`_SparseEchelon`.

    Their number is the rank of the rows, and the rank of the rows on the
    first c columns alone is the number of them below c: the rank profile
    of the matrix (Dumas, Pernet and Sultan, "Fast computation of the rank
    profile matrix and the generalized Bruhat decomposition", 2017).
    """
    echelon = _SparseEchelon(field)
    echelon.extend(rows)
    return sorted(echelon.leads)


def _tag_order_basis(
    rows: Sequence[Mapping[int, int | Fraction]], tags: Sequence[int], field: FieldSpec
) -> tuple[list[dict], tuple[int, ...]]:
    """A basis of the ``{column: coefficient}`` rows, taken in stable tag order, with the tag of each basis row.

    The rows are read in tag order into one :class:`_SparseEchelon`; a row
    outside the span of the rows before it makes a pivot row, which keeps
    its tag.  So for every l the pivot rows of tag <= l are a basis of the
    span of the input rows of tag <= l: the tagged reduction of persistent
    homology (Zomorodian and Carlsson, "Computing persistent homology",
    2005).  The pivot rows come with their lead entries, in tag order.
    """
    order = sorted(range(len(tags)), key=tags.__getitem__)
    echelon = _SparseEchelon(field)
    echelon.extend(rows[k] for k in order)
    return echelon.rows(), tuple(tags[order[k]] for k in echelon.made_by)


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns, by back-substitution in :class:`_SparseEchelon`."""
    field = m.field
    echelon = _SparseEchelon(field)
    echelon.extend(m.sparse_rows())
    reduced = echelon.rref_rows()
    pivots = sorted(reduced)
    rows = [{lead: field.one, **reduced[lead]} for lead in pivots]
    rows += [{} for _ in range(m.rows - len(pivots))]
    return RrefResult(Matrix.from_sparse(field, rows, m.cols), len(pivots), tuple(pivots))


def rank(m: Matrix) -> int:
    """Rank of ``m``, by :func:`_sparse_rank` on its nonzero entries (no RREF is built)."""
    return len(_sparse_rank(m.sparse_rows(), m.field))


def row_space_basis(m: Matrix) -> RrefResult:
    """RREF of ``m`` with zero rows dropped: the canonical basis of its row space."""
    red, rk, pivots = rref(m)
    return RrefResult(Matrix.from_sparse(m.field, red.sparse_rows()[:rk], m.cols), rk, pivots)


def kernel_basis(m: Matrix) -> Matrix:
    """Rows spanning the right kernel {v : m v^T = 0}."""
    red, _, pivots = rref(m)
    field = m.field
    pivot_set = set(pivots)
    out = []
    for c in range(m.cols):
        if c in pivot_set:
            continue
        row = {c: field.one}
        for pc, red_row in zip(pivots, red.sparse_rows()):
            if c in red_row:
                row[pc] = field.coerce(-red_row[c])
        out.append(row)
    return Matrix.from_sparse(field, out, m.cols)

