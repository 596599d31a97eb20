import random
import re
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrkit import exactlin
from adrkit.exactlin import (
    RATIONAL,
    FieldSpec,
    Matrix,
    kernel_basis,
    rank,
    rref,
)
from chain_oracle import dense, dense_echelon, dense_rref, dense_tag_order_basis, in_row_space

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
F7 = FieldSpec.prime(7)
F_MERSENNE = FieldSpec.prime(2**31 - 1)


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


@pytest.mark.parametrize("field", [F2, F7, F_MERSENNE, RATIONAL], ids=lambda f: f.describe())
def test_field_interface(field):
    zero_type = type(field.coerce(0))
    assert type(field.one) is zero_type and field.one == field.coerce(1)

    for x in (1, -1, 3, 2**40 + 1, Fraction(-3, 5)):
        y = field.coerce(x)
        product = field.coerce(y * field.inv(y))
        assert product == field.one and type(product) is zero_type
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_coerce_canonical():
    assert F5.coerce(-1) == 4
    assert F5.coerce(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert RATIONAL.coerce(2) == Fraction(2)
    with pytest.raises(ZeroDivisionError):
        F5.coerce(Fraction(1, 5))


@pytest.mark.parametrize("field", [F7, F_MERSENNE, RATIONAL], ids=lambda f: f.describe())
def test_coerce_reads_exact_rationals_only(field):
    # only a numbers.Rational is exact: a Decimal went through int() over
    # F_p (Decimal("1.5") read as 1), and so did a numpy complex, with only a
    # ComplexWarning (np.complex128(1+2j) read as 1)
    for bad in (Decimal("1.5"), Decimal(2), 1 + 0j, np.complex128(1 + 2j), np.float16(1), np.float32(2), np.longdouble(3)):
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r} of type {type(bad).__name__}")):
            field.coerce(bad)
        with pytest.raises(TypeError):
            Matrix.from_rows(field, [[1, bad]])
    # numpy integers of any width are read by numerator and denominator as
    # Python ints: over Q an int64 numerator was kept, and overflowed later
    for x in (np.int8(-3), np.uint64(2**63 + 5), np.int64(2**40), True, Fraction(-7, 3)):
        y = field.coerce(x)
        assert y == field.coerce(Fraction(int(x.numerator), int(x.denominator)))
        assert type(y) is type(field.one) and (field.p or type(y.numerator) is int)


def test_rational_matmul_of_numpy_integer_entries_is_exact():
    # the int64 numerators were kept, and overflowed in the product: (0, 0) read 1
    big = np.int64(2**40)
    m = Matrix.from_rows(RATIONAL, [[big, 1], [1, big]])
    assert m.matmul(m) == Matrix.from_rows(RATIONAL, [[2**80 + 1, 2**41], [2**41, 2**80 + 1]])


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
    assert not dense(m.matmul(k.transpose())).any()
    expected = rref(Matrix.from_rows(F5, [[1, 4]]))
    assert in_row_space(expected, np.array(k.row(0), dtype=np.int64))


def _random_matrix(rng: random.Random, field: FieldSpec) -> Matrix:
    rows = rng.randint(0, 6)
    cols = rng.randint(1, 6)
    if field.p:
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
        assert not dense(m.matmul(ker.transpose())).any()
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


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_floats_are_refused_not_truncated(field):
    # over F_7, 2.5 would become 2 and 2.7 would be stored as 2; over Q a
    # float would become its binary fraction
    for x in (2.5, np.float64(2.5), 3.0):
        with pytest.raises(TypeError):
            field.coerce(x)
    for a in (np.array([[2.7]]), np.array([[1.0, 2.0]], dtype=np.float32), np.array([[1 + 0j]])):
        with pytest.raises(TypeError):
            Matrix(field, a)
    with pytest.raises(TypeError):
        Matrix.from_rows(field, [[1, 2.5]])
    assert field.coerce(np.int64(9)) == field.coerce(9)
    assert Matrix(field, np.array([[9]])) == Matrix.from_rows(field, [[9]])


def test_entries_row_major_and_immutable():
    m = Matrix.from_rows(F5, [[1, 2], [3, 4]])
    assert m.entries == (1, 2, 3, 4)
    with pytest.raises(AttributeError):
        m.field = RATIONAL


def _naive_rref(rows: list[list], cols: int, field: FieldSpec):
    """Textbook Gauss-Jordan on Python lists: (reduced rows, pivot columns)."""
    p = field.p

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
# numerators up to 2**70 and denominators up to 10**6: far past int64
_BIG_RATIONAL_ENTRY = st.one_of(
    st.just(0), st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=10**6)
)


def _check_against_naive(field: FieldSpec, grid: list[list], cols: int, m: Matrix | None = None):
    if m is None:
        m = Matrix.from_rows(field, grid, cols=cols)
    result = rref(m)
    expected, pivots = _naive_rref(grid, cols, field)
    assert result.pivot_cols == tuple(pivots)
    # the oracle's dense pivot loop finds the same pivots in forward mode and
    # the same RREF in reduced mode
    assert dense_echelon(dense(m), field, False)[1] == pivots
    assert dense_rref(m) == result
    # rank runs its own forward elimination, never rref
    assert rank(m) == result.rank == len(pivots)
    assert [list(result.reduced.row(r)) for r in range(len(grid))] == expected
    if not field.p:
        # over Q the eliminations run on integers, but the RREF leaves as Fractions
        assert all(type(x) is Fraction for x in result.reduced.entries)


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


def _prime_entry(p: int):
    """Entries drawn from [0, p), often near p - 1, where the int64 products are largest."""
    return st.one_of(st.just(0), st.integers(max(0, p - 3), p - 1), st.integers(0, p - 1))


@given(
    case=st.one_of(
        _cases(F7, _SPARSE_ENTRY),
        _cases(F2, _prime_entry(2)),
        _cases(F_MERSENNE, _prime_entry(2**31 - 1)),
        _cases(RATIONAL, _RATIONAL_ENTRY),
        _cases(RATIONAL, _BIG_RATIONAL_ENTRY),
    )
)
@example(case=(F7, 4, []))
@example(case=(RATIONAL, 4, []))
@example(case=(F7, 0, [[], [], []]))
@example(case=(RATIONAL, 0, [[], [], []]))
@example(case=(F7, 2, [[0, 0]] * 9 + [[3, 1], [6, 2]]))
@example(case=(RATIONAL, 10, [[0] * 9 + [Fraction(1, 3)], [0] * 10]))
@example(case=(RATIONAL, 3, [[-3, 1, 2], [2, -5, 0], [-1, -1, -1]]))
@example(case=(RATIONAL, 2, [[Fraction(2**70 + 1, 999_983), -(2**70)], [Fraction(-1, 10**6), 3]]))
@example(case=(F2, 3, [[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]))
@example(case=(F_MERSENNE, 3, [[2**31 - 2] * 3, [2**31 - 3, 2**31 - 2, 1], [1, 2**31 - 2, 2**31 - 2]]))
@settings(max_examples=600, deadline=None)
def test_rref_matches_naive_reference(case):
    field, cols, grid = case
    _check_against_naive(field, grid, cols)


@pytest.mark.parametrize(
    "grid",
    [
        [[-3, 1, 2], [2, -5, 0], [-1, -1, -1]],
        [[0, -2, 4, 6], [-4, 0, 2, 0], [2, -2, 3, 6]],
        [[-(2**70), 2**69 + 1], [3, -(2**65)], [2**70, -(2**69) - 1]],
        [[0, 0], [0, -7]],
    ],
)
def test_rref_of_plain_int_object_arrays(grid):
    # a rational Matrix may hold Python ints in its object array: rref and
    # rank read them as the same rationals, with negative pivots too
    a = np.array(grid, dtype=object)
    assert all(type(x) is int for x in a.ravel().tolist())
    _check_against_naive(RATIONAL, grid, len(grid[0]), m=Matrix(RATIONAL, a))


def test_rational_object_arrays_read_numpy_integers_and_refuse_floats():
    # numpy integers in a rational object array are the rationals they name,
    # read as Python ints, so products past 2^63 stay exact; a float is not
    # read as its binary fraction but refused, naming the entry
    grid = [[2**62, 3, 0], [3, 2**62, -1], [2**62 + 3, 2**62 + 3, -1]]
    m = Matrix(RATIONAL, np.array([[np.int64(x) for x in row] for row in grid], dtype=object))
    plain = Matrix.from_rows(RATIONAL, grid)
    assert m == plain
    assert rank(m) == rank(plain) == 2
    assert rref(m) == rref(plain)
    assert all(type(x) is Fraction for x in rref(m).reduced.entries)
    assert kernel_basis(m) == kernel_basis(plain)
    for bad in (0.1, np.float64(0.5)):
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r} of type")):
            Matrix(RATIONAL, np.array([[bad, 1], [1, 1]], dtype=object))
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r} of type")):
            exactlin._cleared([1, bad])


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_object_arrays_are_read_exactly_or_refused_on_construction(field):
    # a float in an object array was kept as given: over Q the matrix of 0.1
    # and 0.25 ranked 2, and one with 0.2 in its first row only failed later,
    # inside the elimination; over F_7 the float was truncated to an integer,
    # and so was 1/2 (to 0, not 4), while 2^70 overflowed int64
    for grid in ([[0.1, 0], [0, 0.25]], [[0.1, 0.2], [0, 0.25]], [[1, 0], [0, 2.0]]):
        a = np.array(grid, dtype=object)
        bad = next(x for x in a.flat if isinstance(x, float))
        with pytest.raises(TypeError, match=re.escape(f"got {bad!r} of type float")):
            Matrix(field, a)
    exact = [[Fraction(1, 2), np.int64(3)], [2**70, -1]]
    assert Matrix(field, np.array(exact, dtype=object)) == Matrix.from_rows(field, exact)


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


def _pivots(rows: list[dict], field: FieldSpec) -> list[int]:
    """The pivot columns of all the rows: :func:`exactlin._sparse_rank`."""
    return exactlin._sparse_rank(rows, field)


def _sparse_case(field: FieldSpec, rows: int, cols: int, density: float, seed: int, big: bool = False):
    """(grid, sparse rows): the same matrix as lists and as shuffled ``{column: coefficient}`` dicts.

    The dicts list their keys in random order, carry non-canonical
    coefficients (ints outside [0, p), ints over Q) and some explicit zeros,
    and the rows themselves come in random order.  With ``big`` the nonzero
    entries have numerators up to 2**70 and, over Q, denominators up to 10**6.
    """
    rng = random.Random(seed)

    def entry():
        if rng.random() >= density:
            return 0
        if big:
            num = rng.randint(-(2**70), 2**70)
            return num if field.p else Fraction(num, rng.randint(1, 10**6))
        if field.p:
            return rng.randrange(-field.p, 2 * field.p)
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    sparse = []
    for row in grid:
        items = [(c, x) for c, x in enumerate(row) if x or rng.random() < 0.2]
        rng.shuffle(items)
        sparse.append(dict(items))
    rng.shuffle(sparse)
    return grid, sparse


@given(
    field=st.sampled_from([F2, F7, F_MERSENNE, RATIONAL]),
    shape=st.one_of(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        st.tuples(st.integers(0, 24), st.integers(17, 24)),
    ),
    density=st.sampled_from([0.1, 0.3, 1.0]),
    seed=st.integers(0, 10**6),
    big=st.booleans(),
)
@example(field=F7, shape=(0, 5), density=1.0, seed=0, big=False)
@example(field=RATIONAL, shape=(4, 0), density=1.0, seed=0, big=False)
@example(field=F7, shape=(24, 20), density=1.0, seed=1, big=False)
@example(field=F_MERSENNE, shape=(24, 20), density=1.0, seed=1, big=True)
@example(field=RATIONAL, shape=(24, 20), density=1.0, seed=1, big=True)
@example(field=F7, shape=(24, 20), density=0.1, seed=1, big=False)
@example(field=F_MERSENNE, shape=(24, 20), density=0.1, seed=1, big=True)
@example(field=RATIONAL, shape=(24, 20), density=0.1, seed=1, big=True)
@settings(max_examples=400, deadline=None)
def test_sparse_rank_matches_naive_reference(field, shape, density, seed, big):
    # the pivot columns, not just their number, of dense and sparse rows
    rows, cols = shape
    grid, sparse = _sparse_case(field, rows, cols, density, seed, big)
    _, pivots = _naive_rref(grid, cols, field)
    assert _pivots(sparse, field) == pivots
    assert rank(Matrix.from_rows(field, grid, cols=cols)) == len(pivots)


@given(
    field=st.sampled_from([F2, F7, F_MERSENNE, RATIONAL]),
    shape=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    density=st.sampled_from([0.1, 0.3, 1.0]),
    seed=st.integers(0, 10**6),
    big=st.booleans(),
)
@example(field=F7, shape=(0, 5), density=1.0, seed=0, big=False)
@example(field=RATIONAL, shape=(6, 6), density=1.0, seed=3, big=True)
@settings(max_examples=300, deadline=None)
def test_sparse_echelon_back_substitutes_into_the_rref(field, shape, density, seed, big):
    # the pivot rows of the forward loop, back-substituted, are the RREF rows
    # without their lead 1; a unit row becomes a pivot row iff it is outside the span
    rows, cols = shape
    grid, sparse = _sparse_case(field, rows, cols, density, seed, big)
    expected, pivots = _naive_rref(grid, cols, field)
    echelon = exactlin._SparseEchelon(field)
    echelon.extend(sparse)
    assert echelon.read == rows
    rref_rows = echelon.rref_rows()
    assert sorted(rref_rows) == pivots
    for lead, row in zip(pivots, expected):
        assert rref_rows[lead] == {c: x for c, x in enumerate(row) if x and c != lead}
        assert all(type(x) is (int if field.p else Fraction) for x in rref_rows[lead].values())
    for c in range(cols):
        in_span = _naive_rref(grid + [[int(c == k) for k in range(cols)]], cols, field)[1] == pivots
        echelon = exactlin._SparseEchelon(field)
        echelon.extend(sparse)
        assert echelon.add({c: 1}) != in_span


def _check_rank_profile(field: FieldSpec, sparse: list[dict], cols: int, marks: list[int]) -> list[list[int]]:
    """The pivots of each row prefix rows[:R], R in ``marks``, against the naive rank of rows[:R] on every column prefix."""
    grid = [[row.get(c, 0) for c in range(cols)] for row in sparse]
    profile = [exactlin._sparse_rank(sparse[:mark], field) for mark in marks]
    for mark, pivots in zip(marks, profile):
        assert pivots == sorted(set(pivots))
        for c in range(cols + 1):
            want = len(_naive_rref([row[:c] for row in grid[:mark]], c, field)[1])
            assert bisect_left(pivots, c) == want, (mark, c)
    return profile


@pytest.mark.parametrize("field", [F2, F7, F_MERSENNE, RATIONAL], ids=["F2", "F7", "F_2^31-1", "Q"])
@pytest.mark.parametrize("density", [1.0, 0.1], ids=["dense", "sparse"])
def test_sparse_rank_examples_reach_each_finish(field, density):
    # the 24 x 20 examples of the naive-reference tests, whose rows fill in
    # (dense) or stay short (sparse): every mark's pivots are those of the
    # RREF of its row prefix on every column prefix.  Column 0 is cleared,
    # so no pivot list counts rows instead of columns
    _, sparse = _sparse_case(field, 24, 20, density, 1, field not in (F2, F7))
    if field is F2 and density == 1.0:
        # half the entries of a dense case vanish mod 2: a full first row,
        # then rows that keep about 90% of their entries
        rng = random.Random(2)
        sparse = [dict.fromkeys(range(20), 1)]
        sparse += [{c: 1 for c in range(20) if rng.random() < 0.9} for _ in range(23)]
    sparse = [{c: x for c, x in row.items() if c} for row in sparse]
    marks = [0, 1, 2, 3, 9, 17, 24] if density == 1.0 else [0, 5, 11, 18, 24]
    profile = _check_rank_profile(field, sparse, 20, marks)
    assert profile[-1][0] > 0


@given(
    field=st.sampled_from([F2, F7, F_MERSENNE, RATIONAL]),
    shape=st.tuples(st.integers(0, 8), st.integers(0, 8)),
    density=st.sampled_from([0.1, 0.3, 1.0]),
    seed=st.integers(0, 10**6),
    marks=st.lists(st.integers(0, 24), max_size=5),
)
@example(field=F7, shape=(24, 20), density=1.0, seed=1, marks=[0, 1, 2, 3, 9, 17])
@example(field=F_MERSENNE, shape=(24, 20), density=1.0, seed=1, marks=[0, 1, 2, 3, 9])
@example(field=RATIONAL, shape=(24, 20), density=1.0, seed=1, marks=[0, 1, 2, 3, 9])
@example(field=F7, shape=(24, 20), density=0.1, seed=1, marks=[0, 5, 11, 18])
@example(field=F2, shape=(24, 20), density=0.1, seed=2, marks=[0, 5, 11, 18])
@example(field=F_MERSENNE, shape=(24, 20), density=0.1, seed=1, marks=[0, 5, 11, 18])
@example(field=RATIONAL, shape=(24, 20), density=0.1, seed=1, marks=[0, 5, 11, 18])
@settings(max_examples=150, deadline=None)
def test_sparse_rank_reads_the_rank_of_every_row_and_column_prefix(field, shape, density, seed, marks):
    # rank(rows[:R] on columns[:c]) is the number of pivots below c of mark
    # R, on rows that fill in (the dense 24 x 20 examples) or stay short
    rows, cols = shape
    _, sparse = _sparse_case(field, rows, cols, density, seed)
    marks = sorted(min(mark, rows) for mark in marks) + [rows]
    _check_rank_profile(field, sparse, cols, marks)


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_sparse_rank_follows_pivot_columns_a_subtraction_brings_in(field):
    # pivot row 0 (lead 0) holds column 2, which row 1 later makes a pivot
    # column, and pivot row 1 holds column 4, the lead of pivot row 2.
    # Reducing the last row by pivot row 0 alone leaves {2: -1, 5: 1}: only
    # by following column 2 (to {4: 1, 5: 1}) and then 4 does it reach zero
    rows = [{0: 1, 2: 1}, {2: 1, 4: 1}, {4: 1, 5: 1}, {5: 1, 0: 1}]
    assert _pivots(rows[:3], field) == [0, 2, 4]
    # row 0 - row 1 + row 2 = {0: 1, 5: 1}
    assert _pivots(rows, field) == [0, 2, 4]
    assert _pivots(rows[:3] + [{0: 1, 5: 2}], field) == [0, 2, 4, 5]


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_sparse_rank_with_negative_and_fractional_leads(field):
    # lead values -2, -3/2 and 4: over Q a pivot row keeps an integer lead,
    # made positive, and a reduced row is scaled by it before subtracting
    raw = [{0: -2, 1: 1}, {1: Fraction(-3, 2), 2: 5}, {0: 4, 2: -1}]
    # -2 * row 0 + (2/3) * row 1 is dependent on them
    raw.append({0: 4, 1: -3, 2: Fraction(10, 3)})
    rows = [{c: field.coerce(x) for c, x in row.items()} for row in raw]
    grid = [[row.get(c, 0) for c in range(3)] for row in rows]
    _, pivots = _naive_rref(grid[:3], 3, field)
    assert _pivots(rows[:3], field) == pivots == [0, 1, 2]
    assert _pivots(rows[:2] + rows[3:], field) == [0, 1]
    # (p + q) / 2 for p = {0: 2, 1: 1} (lead 2) and q = {1: 1, 2: 2}: its lead
    # 1 is no multiple of 2, so over Q it is doubled before p is subtracted
    p, q = {0: 2, 1: 1}, {1: 1, 2: 2}
    assert _pivots([p, q, {0: 1, 1: 1, 2: 1}], field) == [0, 1]


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=["F7", "Q"])
def test_sparse_rank_keeps_sparse_rows_sparse(field):
    # x_i - x_{i+1} around a 200-cycle, plus the path's chords x_i - x_{i+7}:
    # rank 199, and no pivot row ever grows past its two entries
    rows = [{i: 1, (i + 1) % 200: -1} for i in range(200)]
    rows += [{i: 1, (i + 7) % 200: -1} for i in range(0, 200, 3)]
    assert len(_pivots(rows, field)) == 199
    echelon = exactlin._SparseEchelon(field)
    echelon.extend(rows)
    assert max(map(len, echelon.rows())) == 2


def _tagged_case(field: FieldSpec, rng: random.Random):
    """(grid, cols, tags): rows drawn from a low-rank span, some zero, tags with repeats."""
    rows, cols = rng.randint(0, 12), rng.randint(0, 8)
    hi = field.p - 1 if field.p else 3
    base = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
    grid = []
    for _ in range(rows):
        weights = [0] * len(base) if rng.random() < 0.2 else [rng.randint(-2, 2) for _ in base]
        row = [sum(w * b[c] for w, b in zip(weights, base)) for c in range(cols)]
        grid.append([Fraction(x, rng.randint(1, 3)) for x in row] if not field.p else row)
    return grid, cols, [rng.randint(1, 4) for _ in range(rows)]


def _check_tag_order_basis(field: FieldSpec, grid: list[list], cols: int, tags: list[int], rng: random.Random):
    """The sparse tagged reduction of ``grid``, given as shuffled non-canonical ``{column: coefficient}`` rows.

    It keeps the tags the dense oracle keeps, and for every l its rows of
    tag <= l are a basis of the span of the input rows of tag <= l.
    """
    sparse = []
    for row in grid:
        items = [(c, x + field.p * rng.randint(-2, 2) if field.p else x) for c, x in enumerate(row) if x or rng.random() < 0.2]
        rng.shuffle(items)
        sparse.append(dict(items))
    kept, kept_tags = exactlin._tag_order_basis(sparse, tags, field)
    arr = dense(Matrix.from_rows(field, grid, cols=cols))
    assert kept_tags == dense_tag_order_basis(arr, tags, field)[1], (grid, tags)
    assert list(kept_tags) == sorted(kept_tags) and len(kept) == len(kept_tags)
    kept_grid = [[row.get(c, 0) for c in range(cols)] for row in kept]
    for l in range(6):
        below = sum(t <= l for t in kept_tags)
        prefix = [row for row, t in zip(grid, tags) if t <= l]
        assert below == len(_naive_rref(prefix, cols, field)[1]), (grid, tags, l)
        assert below == len(_naive_rref(kept_grid[:below], cols, field)[1])
        assert below == len(_naive_rref(prefix + kept_grid[:below], cols, field)[1])


@pytest.mark.parametrize("field", [F7, F_MERSENNE, RATIONAL], ids=["F7", "F_2^31-1", "Q"])
def test_tag_order_basis_keeps_a_basis_of_every_tag_prefix(field):
    # for every l the kept rows of tag <= l must number the rank of the input
    # rows of tag <= l, lie in their span and be independent: a basis of it
    rng = random.Random(29)
    cases = [_tagged_case(field, rng) for _ in range(150)]
    cases += [
        ([], 3, []),
        ([[0, 0, 0]] * 3, 3, [2, 1, 2]),
        ([[1, 2, 0], [2, 4, 0], [0, 0, 1], [1, 2, 1]], 3, [3, 3, 3, 3]),
        ([[1, 2, 0], [0, 0, 0], [2, 4, 0], [1, 0, 0]], 3, [4, 3, 2, 1]),
    ]
    for grid, cols, tags in cases:
        _check_tag_order_basis(field, grid, cols, tags, rng)


@given(field=st.sampled_from([F2, F7, F_MERSENNE, RATIONAL]), seed=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_sparse_tag_order_basis_keeps_the_dense_oracles_tags(field, seed):
    rng = random.Random(seed)
    grid, cols, tags = _tagged_case(field, rng)
    _check_tag_order_basis(field, grid, cols, tags, rng)


@pytest.mark.parametrize("field", [F2, F7, RATIONAL], ids=["F2", "F7", "Q"])
def test_one_entry_rows_are_settled_by_the_pivot_row_at_their_column(field):
    # a one-entry row at a column with no pivot row is a new pivot row, unless
    # it is zero; at a column whose pivot row has no other entry it lies in
    # the span; at a column whose pivot row has more entries it is reduced
    zero = field.p or Fraction(0)  # p is zero in F_p
    echelon = exactlin._SparseEchelon(field)
    echelon.extend([{0: zero}, {0: 1, 1: 1}, {0: 3}, {2: 1}, {2: 2}, {3: zero}])
    assert echelon.read == 6
    assert echelon.leads == [0, 1, 2] and echelon.made_by == [1, 2, 3]
    # {0: 3} minus 3 (e_0 + e_1) leaves -3 e_1, normalised to the pivot row e_1
    assert echelon.rows() == [{0: 1, 1: 1}, {1: 1}, {2: 1}]
    # e_0, e_1 and e_2 now lie in the span: their columns are settled
    assert echelon.settled == {0, 1, 2}


@given(field=st.sampled_from([F2, F7, F_MERSENNE, RATIONAL]), seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_rows_read_without_settled_columns_keep_the_pivot_columns(field, seed):
    # e_c lies in the span for every settled column c, so leaving the
    # settled columns out of each row as it is read changes no pivot column
    rng = random.Random(seed)
    _, sparse = _sparse_case(field, rng.randint(0, 12), 8, rng.choice([0.2, 0.5]), seed)
    units = [{rng.randrange(8): rng.choice([1, -1])} for _ in range(rng.randint(0, 6))]
    whole, pruned = exactlin._SparseEchelon(field), exactlin._SparseEchelon(field)
    half = len(sparse) // 2
    for echelon in (whole, pruned):
        echelon.extend(units + sparse[:half])
    whole.extend(sparse[half:])
    pruned.extend({c: x for c, x in row.items() if c not in pruned.settled} for row in sparse[half:])
    assert sorted(pruned.leads) == sorted(whole.leads)
    assert {next(iter(unit)) for unit in units} <= pruned.settled
    for c in pruned.settled:
        assert not _copy(pruned).add({c: 1}), c


def _copy(echelon):
    """A fresh echelon that has read ``echelon``'s pivot rows."""
    out = exactlin._SparseEchelon(echelon.field)
    out.extend(echelon.rows())
    return out
