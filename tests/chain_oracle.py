"""General filtration code for modules without a grading: the tests' oracle.

``adrkit.repmod`` reads every filtration a report needs off a grading of the
module, and its ``truncate``, ``socle_sub``, ``socle_series`` and
``is_rigid`` refuse a module without the grading they read.  The functions
here take any module.  They go through the general chains
(``repmod.radical_chain``, and ``repmod.socle_chain`` with its quotient
modules), so a read-off can be compared with an independent computation on
the same module with its grading dropped (:func:`ungraded`).

``validate_representation`` checks that a module satisfies the relations of
its algebra; ``in_row_space`` and ``coordinates_in_row_space`` read a vector
against an RREF basis (``reduce_mod_row_space``).

``exactlin.Matrix`` holds sparse rows only, and the package builds no array.
The dense arrays of the oracles come from here: ``zeros`` (canonical zeros:
int64 over F_p, Fractions in an object array over Q), ``canonical`` (entries
reduced into the field), ``dense`` (a ``Matrix`` as such an array) and
``matrix`` (an array as a ``Matrix``, with no rows too).

``radical_pass`` is the tagged radical chain of a socle-graded module on
its own maps transposed; ``repmod`` runs no such pass, since a socle-graded
module reads the functional pass of its dual.

``dense_echelon`` is a dense pivot loop on numpy arrays, independent of the
sparse elimination ``exactlin._SparseEchelon`` that every computation of the
package runs on.  ``dense_rref`` is its reduced mode, the RREF of the dense
builder oracle (``builder_oracle``); ``dense_tag_order_basis`` is the tagged
reduction on a dense array, by its forward mode.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

from adrkit.exactlin import FieldSpec, Matrix, RrefResult, _sparse_transpose, _tag_order_basis
from adrkit.presentation import _canonical_relations
from adrkit.repmod import (
    Representation,
    SeriesProfile,
    Subspaces,
    _chain_dims,
    loewy_length,
    quotient_representation,
    radical_chain,
    socle_chain,
)


def zeros(field: FieldSpec, shape) -> np.ndarray:
    """A writable array of canonical zeros: int64 over F_p, Fractions in an object array over Q."""
    if field.p:
        return np.zeros(shape, dtype=np.int64)
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    return a


def canonical(field: FieldSpec, a) -> np.ndarray:
    """``a`` with canonical entries, as :func:`zeros` holds them: reduced into [0, p) over F_p, Fractions over Q.

    An object array is read entry by entry through ``FieldSpec.coerce``, and
    so is any array over Q; a float or complex array is refused.
    """
    a = np.asarray(a)
    if a.dtype.kind in "fc":
        raise TypeError(f"exact entries needed, got a {a.dtype} array")
    if field.p and a.dtype != object:
        return np.asarray(a, dtype=np.int64) % field.p
    out = zeros(field, a.shape)
    out.flat[:] = [field.coerce(x) for x in a.flat]
    return out


def dense(m: Matrix) -> np.ndarray:
    """The entries of ``m`` as a writable canonical array (:func:`zeros`)."""
    a = zeros(m.field, m.shape)
    for r, row in enumerate(m.sparse_rows()):
        for c, x in row.items():
            a[r, c] = x
    return a


def matrix(field: FieldSpec, a: np.ndarray) -> Matrix:
    """The ``Matrix`` of a 2-dimensional array; ``Matrix(field, a)`` needs a row to read the width off."""
    return Matrix.from_rows(field, a.tolist(), a.shape[1])


def reduce_mod_row_space(basis: RrefResult, v: np.ndarray) -> np.ndarray:
    """Residual of row vector ``v`` after elimination against an RREF basis."""
    a = dense(basis.reduced)
    field = basis.reduced.field
    v = v.copy()
    for r, pc in enumerate(basis.pivot_cols):
        coeff = v[pc]
        if coeff != 0:
            v = canonical(field, v - coeff * a[r])
    return v


def in_row_space(basis: RrefResult, v: np.ndarray) -> bool:
    return not reduce_mod_row_space(basis, v).any()


def coordinates_in_row_space(basis: RrefResult, v: np.ndarray) -> np.ndarray:
    """Coordinates of a member vector w.r.t. the RREF basis rows.

    For an RREF basis the coordinate of row r is just v[pivot_cols[r]];
    membership is the caller's responsibility (assert with in_row_space).
    """
    return v[list(basis.pivot_cols)]


def _cleared(values: Iterable) -> list[int]:
    """Fractions or ints times the lcm of their denominators: an integer multiple of the same row."""
    ratios = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return [n for n, _ in ratios]
    return [n * (den // d) for n, d in ratios]


def _primitive_rows(a: np.ndarray) -> np.ndarray:
    """Divide each row of an integer object array by the gcd of its entries, in place."""
    for i, row in enumerate(a.tolist()):
        g = gcd(*row)
        if g > 1:
            a[i] //= g
    return a


def _integer_rows(a: np.ndarray) -> np.ndarray:
    """A writable object array of primitive integer rows, each a multiple of the row of ``a``.

    Only the nonzero entries are cleared of denominators; the rest stay int 0.
    """
    out = np.zeros(a.shape, dtype=object)
    for i, row in enumerate(a.tolist()):
        cols = [c for c, x in enumerate(row) if x]
        if cols:
            out[i, cols] = _cleared([row[c] for c in cols])
    return _primitive_rows(out)


def _elimination_copy(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """A writable copy of canonical ``a`` to eliminate on: int64, or primitive integer rows over Q."""
    if field.p:
        return np.array(a, dtype=np.int64, order="C")
    return _integer_rows(a)


def _row_update(field: FieldSpec, rows: np.ndarray, pivot_row: np.ndarray, x: np.ndarray, d) -> np.ndarray:
    """(d/g) * rows - (x/g) * pivot_row, for g = gcd(d, x), on elimination rows.

    ``x`` holds the entries of ``rows`` in the column where ``pivot_row``
    has ``d``, so the result is zero there.  Over F_p every product is
    below (p-1)^2 < 2^62 and the result is reduced mod p; over Q each
    result row is divided by the gcd of its entries.
    """
    g = np.gcd(x, d)
    out = (d // g)[:, None] * rows - (x // g)[:, None] * pivot_row
    if field.p:
        return out % field.p
    return _primitive_rows(out)


def _divide_pivot_rows(field: FieldSpec, a: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
    """The RREF of a reduced :func:`dense_echelon` result: row k divided by its entry in column ``pivots[k]``."""
    if field.p:
        for k, c in enumerate(pivots):
            a[k] = a[k] * field.inv(a[k, c]) % field.p
        return a
    out = zeros(field, a.shape)
    for k, c in enumerate(pivots):
        row, d = a[k].tolist(), a[k, c]
        quotient = {v: Fraction(v, d) for v in set(row)}  # one Fraction per distinct entry
        out[k] = [quotient[v] for v in row]
    return out


def dense_echelon(a: np.ndarray, field: FieldSpec, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """Echelon form of a canonical array, as elimination rows, with its pivot columns.

    The leftmost pivot is taken in each column, so the pivot columns are
    those of the RREF.  A row with entry x in the pivot column of a pivot row
    with pivot d becomes (d/g) * row - (x/g) * pivot_row for g = gcd(d, x),
    fraction-free as in Bareiss (1968); over Q the rows are Python-int rows,
    scaled by the lcm of their denominators on entry and divided by the gcd
    of their entries after every update.  Only the later rows nonzero in the
    pivot column are cleared, from the pivot column rightwards: the rows
    between were zero there, and every row at or below the pivot is zero
    left of it.  With ``reduced`` the nonzero rows above the pivot are
    cleared too, across the full width, since the rescaling touches their
    left part; each pivot row then differs from its RREF row by the factor
    that :func:`dense_rref` divides out.  Pivot rows are never normalised
    here.
    """
    a = _elimination_copy(field, a)
    rows, cols = a.shape
    pivots: list[int] = []
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
        clear, start = r + hits[1:], c
        if reduced:
            clear, start = np.concatenate([a[:r, c].nonzero()[0], clear]), 0
        if clear.size:
            a[clear, start:] = _row_update(field, a[clear, start:], a[r, start:], a[clear, c], a[r, c])
        pivots.append(c)
        r += 1
    return a, pivots


def dense_rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form, with rank and pivot columns, by the dense pivot loop."""
    a, pivots = dense_echelon(dense(m), m.field, True)
    return RrefResult(matrix(m.field, _divide_pivot_rows(m.field, a, pivots)), len(pivots), tuple(pivots))


def dense_tag_order_basis(rows: np.ndarray, tags: Sequence[int], field: FieldSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """The rows of a canonical array, taken in stable tag order, that are independent of the rows before them, with their tags.

    A row is kept where its transpose is a pivot column of the forward
    elimination, which takes the leftmost pivot in each column.
    """
    order = sorted(range(len(tags)), key=tags.__getitem__)
    ordered = rows[order]
    kept = dense_echelon(ordered.T, field, False)[1]
    return ordered[kept], tuple(tags[order[k]] for k in kept)


def ungraded(m: Representation) -> Representation:
    """The same module with no grading."""
    return Representation(m.algebra, m.dims, m.arrow_maps)


def sub_representation(m: Representation, spaces: Subspaces) -> Representation:
    """Submodule on the given invariant subspaces, in their echelon bases."""
    alg = m.algebra
    dims = tuple(s.rank for s in spaces)
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        src, tgt = spaces[u - 1], spaces[v - 1]
        arr = zeros(m.field, (dims[v - 1], dims[u - 1]))
        if src.rank and m.dims[v - 1]:
            image = dense(src.reduced.matmul(m.arrow_maps[a.name].transpose()))
            for r in range(src.rank):
                vec = image[r]
                if not in_row_space(tgt, vec):
                    raise ValueError("subspaces are not arrow-invariant")
                arr[:, r] = coordinates_in_row_space(tgt, vec)
        maps[a.name] = matrix(m.field, arr)
    return Representation(alg, dims, maps)


def socle_series(m: Representation) -> SeriesProfile:
    """Socle layers soc_j/soc_{j-1}, bottom-up, from the general socle chain."""
    return SeriesProfile(_chain_dims(socle_chain(m)))


def is_rigid(m: Representation) -> bool:
    """rad^j M = soc_{L-j} M for every j, comparing the two general chains."""
    rc, sc = radical_chain(m), socle_chain(m)
    ll = len(rc) - 1
    if len(sc) - 1 != ll:
        return False
    for j in range(ll + 1):
        for v, (rad, soc) in enumerate(zip(rc[j], sc[ll - j])):
            if rad.rank != soc.rank:
                return False
            # equal dimensions: containment is equality, and RREFs are unique
            if rad != soc:
                raise RuntimeError(f"rad^{j} not contained in soc_{ll - j} at vertex {v + 1}")
    return True


def radical_pass(m: Representation) -> tuple:
    """rad^0 m, rad m, ..., rad^L m = 0 for a socle-graded m, each basis row tagged, on m's own maps.

    rad^0 m at v holds the coordinate vectors e_r of M_v, e_r tagged by its
    socle degree + 1.  rad^t m at v is the tag-order basis
    (``exactlin._tag_order_basis``) of the images M_a x, for x in
    rad^{t-1} m at u over the arrows a: u -> v, each tagged as its x, so the
    rows of tag <= j span rad^t(soc_j m).  Rows are ``{coordinate:
    coefficient}`` dicts, and a step has the shape of a step of
    ``repmod._functional_pass``.
    """
    incoming: list[list] = [[] for _ in m.dims]
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        mat = m.arrow_maps[a.name]
        if m.dims[v - 1]:
            incoming[v - 1].append((u - 1, _sparse_transpose(mat.sparse_rows(), mat.cols)))
    spaces = tuple(([{r: 1} for r in range(len(ds))], tuple(d + 1 for d in ds)) for ds in m.socle_degrees)
    chain = [spaces]
    while any(tags for _, tags in spaces):
        nxt = []
        for arrows in incoming:
            rows, tags = [], []
            for u, columns in arrows:
                for row, tag in zip(*spaces[u]):
                    image: dict = {}
                    for k, x in row.items():
                        for c, y in columns[k].items():
                            image[c] = image.get(c, 0) + x * y
                    if image:
                        rows.append(image)
                        tags.append(tag)
            nxt.append(_tag_order_basis(rows, tags, m.field) if rows else ([], ()))
        if sum(len(tags) for _, tags in nxt) >= sum(len(tags) for _, tags in spaces):
            raise RuntimeError("radical did not shrink; representation is invalid")
        spaces = tuple(nxt)
        chain.append(spaces)
    return tuple(chain)


def truncate(m: Representation, j: int) -> Representation:
    """M / rad^j M, at the non-pivot columns of rad^j M; M itself when j >= LL(M)."""
    if j >= loewy_length(m):
        return m
    return quotient_representation(m, radical_chain(m)[j])


def socle_sub(m: Representation, j: int) -> Representation:
    """soc_j M in the echelon basis of the socle chain; M itself when j >= LL(M)."""
    sc = socle_chain(m)
    return sub_representation(m, sc[j]) if j < len(sc) - 1 else m


def validate_representation(m: Representation) -> None:
    """Assert that every relation annihilates m and that m is annihilated by the paths of length cap."""
    alg = m.algebra
    fld = m.field

    def path_matrix(names: tuple[str, ...], src: int) -> Matrix:
        acc = Matrix.identity(fld, m.dims[src - 1])
        for name in names:
            acc = m.arrow_maps[name].matmul(acc)
        return acc

    for terms in _canonical_relations(alg.presentation):
        src = terms[0][1].source
        tgt = terms[0][1].target
        acc = zeros(fld, (m.dims[tgt - 1], m.dims[src - 1]))
        for coeff, path in terms:
            # each term is below p^2 < 2^62; reduce before the next one is added
            acc = canonical(fld, acc + coeff * dense(path_matrix(path.arrows, src)))
        if acc.any():
            raise AssertionError(f"relation {terms} does not annihilate the module")
    if loewy_length(m) > alg.presentation.cap:
        raise AssertionError("module is not annihilated by paths of length cap")
