import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrkit.exactlin import (
    RATIONAL,
    DimensionMismatchError,
    FieldSpec,
    Matrix,
    in_row_space,
    intersect_and_quotient_dims,
    kernel_basis,
    rank,
    rref,
)

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)


def test_field_spec_validation():
    assert FieldSpec.prime(2).p == 2
    assert RATIONAL.kind == "rational"
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**31 + 11)
    with pytest.raises(ValueError):
        FieldSpec("prime")
    with pytest.raises(ValueError):
        FieldSpec("rational", p=3)


def test_coerce_canonical():
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert RATIONAL.coerce(2) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        F5.coerce(Fraction(1, 5))


def test_rref_identity_f5():
    reduced, rk, pivots = rref(Matrix.identity(F5, 2))
    assert rk == 2
    assert pivots == (0, 1)
    assert reduced == Matrix.identity(F5, 2)


def test_rref_zero_matrix():
    reduced, rk, pivots = rref(Matrix.zeros(RATIONAL, 3, 4))
    assert rk == 0
    assert pivots == ()
    assert reduced.is_zero()


def test_rref_dependent_rows_rational():
    m = Matrix.from_rows(RATIONAL, [[1, 2], [2, 4]])
    reduced, rk, pivots = rref(m)
    assert rk == 1
    assert pivots == (0,)
    assert reduced.row(0) == (Fraction(1), Fraction(2))
    assert reduced.row(1) == (Fraction(0), Fraction(0))


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(F5, 2)).rows == 0


def test_kernel_zero_matrix_full():
    k = kernel_basis(Matrix.zeros(RATIONAL, 2, 3))
    assert k.rows == 3
    assert rank(k) == 3


def test_kernel_by_membership_not_literal():
    # any nonzero scalar multiple of (1, -1) is a valid basis of ker [1 1]
    m = Matrix.from_rows(F5, [[1, 1]])
    k = kernel_basis(m)
    assert k.rows == 1
    assert not m.matmul(k.transpose()).array().any()
    expected = rref(Matrix.from_rows(F5, [[1, 4]]))
    assert in_row_space(expected, np.array(k.row(0), dtype=np.int64))


def test_intersect_and_quotient_dims():
    e1 = Matrix.from_rows(RATIONAL, [[1, 0]])
    e2 = Matrix.from_rows(RATIONAL, [[0, 1]])
    assert intersect_and_quotient_dims(e1, e1) == (1, 1)
    assert intersect_and_quotient_dims(e1, e2) == (0, 2)
    diag = Matrix.from_rows(F3, [[1, 1]])
    assert intersect_and_quotient_dims(diag, Matrix.from_rows(F3, [[1, 0]])) == (0, 2)


def test_intersect_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersect_and_quotient_dims(
            Matrix.from_rows(RATIONAL, [[1, 0]]), Matrix.from_rows(RATIONAL, [[1, 0, 0]])
        )


def _random_matrix(rng: random.Random, field: FieldSpec) -> Matrix:
    rows = rng.randint(0, 6)
    cols = rng.randint(1, 6)
    if field.is_prime_field:
        data = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    else:
        data = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
    return Matrix.from_rows(field, data, cols=cols)


@pytest.mark.parametrize("field", [F5, RATIONAL], ids=["F5", "Q"])
def test_rank_equals_rank_of_transpose_200_random(field):
    rng = random.Random(7)
    for _ in range(200):
        m = _random_matrix(rng, field)
        assert rank(m) == rank(m.transpose())


@pytest.mark.parametrize("field", [F3, RATIONAL], ids=["F3", "Q"])
def test_rref_idempotent_random(field):
    rng = random.Random(11)
    for _ in range(100):
        m = _random_matrix(rng, field)
        reduced = rref(m).reduced
        again = rref(reduced)
        assert again.reduced == reduced


@given(
    rows=st.integers(0, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 10**6),
    prime=st.sampled_from([2, 3, 5, 7, 13]),
)
@settings(max_examples=120, deadline=None)
def test_kernel_dim_plus_rank_is_cols(rows, cols, seed, prime):
    rng = random.Random(seed)
    field = FieldSpec.prime(prime)
    m = Matrix.from_rows(
        field,
        [[rng.randrange(prime) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )
    result = rref(m)
    ker = kernel_basis(m)
    assert ker.rows + result.rank == cols
    if ker.rows:
        assert not m.matmul(ker.transpose()).array().any()
        assert rank(ker) == ker.rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_arithmetic_round_trips_exhaustive(p):
    field = FieldSpec.prime(p)
    for a in range(p):
        for b in range(p):
            assert (a + b - b) % p == a
            if b:
                assert (a * b % p) * field.inv(b) % p == a


def test_matmul_large_prime_no_overflow():
    p = 2147483647  # largest prime below 2^31
    field = FieldSpec.prime(p)
    row = Matrix.from_rows(field, [[p - 1] * 64])
    col = Matrix.from_rows(field, [[p - 1]] * 64)
    assert row.matmul(col).entries == (64,)  # 64 * (p-1)^2 = 64 mod p


def test_entries_row_major_and_immutable():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert m.entries == (1, 2, 3, 4)
    with pytest.raises(AttributeError):
        m.field = RATIONAL
    with pytest.raises(ValueError):
        m.array()[0, 0] = 0


def _naive_rref(rows: list[list], cols: int, field: FieldSpec):
    """Textbook Gauss-Jordan on Python lists: (reduced rows, pivot columns)."""
    p = field.p if field.is_prime_field else None

    def norm(x):
        return x % p if p else Fraction(x)

    a = [[norm(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p) if p else 1 / a[r][c]
        a[r] = [norm(x * inv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [norm(x - f * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


_SPARSE_ENTRY = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
_RATIONAL_ENTRY = st.one_of(
    st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


def _check_against_naive(field: FieldSpec, grid: list[list], cols: int):
    m = Matrix.from_rows(field, grid, cols=cols)
    result = rref(m)
    expected, pivots = _naive_rref(grid, cols, field)
    assert result.pivot_cols == tuple(pivots)
    # rank runs its own forward elimination, never rref
    assert rank(m) == result.rank == len(pivots)
    assert [list(result.reduced.row(r)) for r in range(len(grid))] == expected


def _cases(field: FieldSpec, entry):
    """(field, cols, rows): up to 6 x 6, tall up to 12 x 3 or wide up to 3 x 12."""
    shapes = st.one_of(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 12), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 12)),
    )
    return shapes.flatmap(
        lambda rc: st.tuples(
            st.just(field),
            st.just(rc[1]),
            st.lists(
                st.lists(entry, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
            ),
        )
    )


@given(case=st.one_of(_cases(F7, _SPARSE_ENTRY), _cases(RATIONAL, _RATIONAL_ENTRY)))
@example(case=(F7, 4, []))
@example(case=(RATIONAL, 4, []))
@example(case=(F7, 0, [[], [], []]))
@example(case=(RATIONAL, 0, [[], [], []]))
@example(case=(F7, 2, [[0, 0]] * 9 + [[3, 1], [6, 2]]))
@example(case=(RATIONAL, 10, [[0] * 9 + [Fraction(1, 3)], [0] * 10]))
@settings(max_examples=300, deadline=None)
def test_rref_matches_naive_reference(case):
    field, cols, grid = case
    _check_against_naive(field, grid, cols)


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_rref_pivot_below_zero_rows_and_zero_columns(field):
    # column 0 is zero throughout; the pivot of column 1 sits in row 3, below
    # three rows that are zero there, and that of column 2 ends up in row 4
    grid = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 3, 1, 0],
        [0, 6, 5, 0],
    ]
    _check_against_naive(field, grid, 4)
    result = rref(Matrix.from_rows(field, grid, cols=4))
    assert result.pivot_cols == (1, 2, 3)
