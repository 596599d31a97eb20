"""Exact dense linear algebra over a prime field F_p or the rationals.

Every rank / kernel / reduction computation in the package goes through this
module.  Prime-field matrices are stored as int64 numpy arrays with entries in
[0, p); rational matrices are object arrays of ``fractions.Fraction`` (which
normalise themselves to lowest terms with positive denominator).  No floating
point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np


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
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    def coerce(self, x) -> int | Fraction:
        """Canonical representative of ``x`` in this field.

        Accepts ints and Fractions.  Over F_p a fraction a/b becomes
        a * b^{-1} mod p; a non-invertible denominator is an error.
        """
        if self.kind == "prime":
            p = self.p
            if isinstance(x, Fraction):
                den = x.denominator % p
                if den == 0:
                    raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
                return (x.numerator % p) * pow(den, p - 2, p) % p
            return int(x) % p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

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
    """Immutable dense matrix over a :class:`FieldSpec`.

    Entries are canonical representatives, stored row-major.
    """

    __slots__ = ("field", "_a")

    def __init__(self, field: FieldSpec, data: np.ndarray):
        a = np.asarray(data)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        if field.is_prime_field:
            a = np.asarray(a, dtype=np.int64) % field.p
        else:
            if a.dtype != object:
                b = np.empty(a.shape, dtype=object)
                for r in range(a.shape[0]):
                    for c in range(a.shape[1]):
                        b[r, c] = Fraction(a[r, c])
                a = b
        a.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            if cols is None:
                raise ValueError("empty row list needs an explicit column count")
            return cls.zeros(field, 0, cols)
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if field.is_prime_field:
            a = np.array([[field.coerce(x) for x in r] for r in rows], dtype=np.int64)
        else:
            a = np.empty((len(rows), width), dtype=object)
            for i, r in enumerate(rows):
                for j, x in enumerate(r):
                    a[i, j] = field.coerce(x)
        return cls(field, a)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        if field.is_prime_field:
            return cls(field, np.zeros((rows, cols), dtype=np.int64))
        a = np.empty((rows, cols), dtype=object)
        a[...] = Fraction(0)
        return cls(field, a)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        a = m._a.copy()
        a.setflags(write=True)
        one = 1 if field.is_prime_field else Fraction(1)
        for i in range(n):
            a[i, i] = one
        return cls(field, a)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def entries(self) -> tuple:
        """All entries, row-major."""
        return tuple(self._a.reshape(-1).tolist())

    def array(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._a

    def row(self, r: int) -> tuple:
        return tuple(self._a[r].tolist())

    def __getitem__(self, rc) -> int | Fraction:
        r, c = rc
        return self._a[r, c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.field.describe()}, {self._a.tolist()!r})"

    def is_zero(self) -> bool:
        if self.field.is_prime_field:
            return not self._a.any()
        return all(x == 0 for x in self._a.reshape(-1))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self._a.T.copy())

    def stack(self, other: "Matrix") -> "Matrix":
        """Vertical stack; widths must agree."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.cols:
            raise DimensionMismatchError(
                f"ambient widths differ: {self.cols} vs {other.cols}"
            )
        return Matrix(self.field, np.vstack([self._a, other._a]))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"inner dimensions differ: {self.cols} vs {other.rows}"
            )
        if not self.field.is_prime_field:
            return Matrix(self.field, self._a @ other._a)
        p = self.field.p
        k = self.cols
        if k == 0:
            return Matrix.zeros(self.field, self.rows, other.cols)
        # int64 products are < 2^62; chunk the accumulation so sums never overflow
        chunk = max(1, (2**62) // ((p - 1) ** 2 or 1))
        if k <= chunk:
            return Matrix(self.field, (self._a @ other._a) % p)
        acc = np.zeros((self.rows, other.cols), dtype=np.int64)
        for start in range(0, k, chunk):
            acc = (acc + self._a[:, start : start + chunk] @ other._a[start : start + chunk, :]) % p
        return Matrix(self.field, acc)


class RrefResult(NamedTuple):
    reduced: Matrix
    rank: int
    pivot_cols: tuple[int, ...]


def _rref_array(a: np.ndarray, field: FieldSpec) -> tuple[np.ndarray, list[int]]:
    a = a.copy()
    a.setflags(write=True)
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.flatnonzero(a[r:, c] != 0)
        if not hits.size:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if field.is_prime_field:
            p = field.p
            inv = pow(int(a[r, c]), p - 2, p)
            a[r] = (a[r] * inv) % p
            col = a[:, c].copy()
            col[r] = 0
            nz = np.nonzero(col)[0]
            if nz.size:
                a[nz] = (a[nz] - col[nz, None] * a[r][None, :]) % p
        else:
            a[r] = a[r] * (Fraction(1) / a[r, c])
            col = a[:, c].copy()
            col[r] = Fraction(0)
            nz = np.flatnonzero(col != 0)
            if nz.size:
                a[nz] = a[nz] - col[nz, None] * a[r][None, :]
        pivots.append(c)
        r += 1
    return a, pivots


def _rank_array(a: np.ndarray, field: FieldSpec) -> int:
    """Rank of a canonical array by forward elimination only.

    Pivots are found as in :func:`_rref_array`, but only the rows below a
    pivot that are nonzero in its column are cleared, and only from the pivot
    column rightwards; the pivot row is never normalised and nothing above it
    is touched.
    """
    a = a.copy()
    a.setflags(write=True)
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = a[r:, c].nonzero()[0]
        if not hits.size:
            continue
        if hits[0]:
            pr = r + int(hits[0])
            a[[r, pr], c:] = a[[pr, r], c:]
        # rows r..pr-1 were zero in column c, so after the swap the rows to
        # clear are exactly the later hits; columns left of c are zero below r
        below = r + hits[1:]
        if below.size:
            if field.is_prime_field:
                p = field.p
                factor = a[below, c] * pow(int(a[r, c]), p - 2, p) % p
                a[below, c:] = (a[below, c:] - factor[:, None] * a[r, c:]) % p
            else:
                factor = a[below, c] / a[r, c]
                a[below, c:] = a[below, c:] - factor[:, None] * a[r, c:]
        r += 1
    return r


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns."""
    a, pivots = _rref_array(m._a, m.field)
    return RrefResult(Matrix(m.field, a), len(pivots), tuple(pivots))


def rank(m: Matrix) -> int:
    """Rank of ``m``, by forward elimination (no RREF is built)."""
    return _rank_array(m._a, m.field)


def row_space_basis(m: Matrix) -> RrefResult:
    """RREF of ``m`` with zero rows dropped: the canonical basis of its row space."""
    red, rk, pivots = rref(m)
    return RrefResult(Matrix(m.field, red._a[:rk]), rk, pivots)


def kernel_basis(m: Matrix) -> Matrix:
    """Rows spanning the right kernel {v : m v^T = 0}."""
    red, rk, pivots = rref(m)
    field = m.field
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if field.is_prime_field:
        out = np.zeros((len(free), m.cols), dtype=np.int64)
    else:
        out = np.empty((len(free), m.cols), dtype=object)
        out[...] = Fraction(0)
    pivot_list = list(pivots)
    for k, c in enumerate(free):
        out[k, c] = 1 if field.is_prime_field else Fraction(1)
        out[k, pivot_list] = -red._a[:rk, c]
    return Matrix(field, out)


def reduce_mod_row_space(basis: RrefResult, v: np.ndarray) -> np.ndarray:
    """Residual of row vector ``v`` after elimination against an RREF basis."""
    a = basis.reduced._a
    field = basis.reduced.field
    v = v.copy()
    v.setflags(write=True)
    for r, pc in enumerate(basis.pivot_cols):
        coeff = v[pc]
        if coeff != 0:
            if field.is_prime_field:
                v = (v - coeff * a[r]) % field.p
            else:
                v = v - coeff * a[r]
    return v


def in_row_space(basis: RrefResult, v: np.ndarray) -> bool:
    res = reduce_mod_row_space(basis, v)
    if basis.reduced.field.is_prime_field:
        return not res.any()
    return all(x == 0 for x in res)


def coordinates_in_row_space(basis: RrefResult, v: np.ndarray) -> np.ndarray:
    """Coordinates of a member vector w.r.t. the RREF basis rows.

    For an RREF basis the coordinate of row r is just v[pivot_cols[r]];
    membership is the caller's responsibility (assert with in_row_space).
    """
    return v[list(basis.pivot_cols)]


def intersect_and_quotient_dims(u: Matrix, v: Matrix) -> tuple[int, int]:
    """(dim U∩V, dim U+V) for the row spaces of ``u`` and ``v``."""
    if u.cols != v.cols:
        raise DimensionMismatchError(
            f"ambient widths differ: {u.cols} vs {v.cols}"
        )
    ru = rank(u)
    rv = rank(v)
    rsum = rank(u.stack(v))
    return ru + rv - rsum, rsum
