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
against an RREF basis.  ``dense_tag_order_basis`` is the tagged reduction on
a dense array, by the dense forward elimination.
"""

from typing import Sequence

import numpy as np

from adrkit.exactlin import FieldSpec, Matrix, RrefResult, _echelon, reduce_mod_row_space
from adrkit.presentation import _canonical_relations
from adrkit.repmod import (
    Representation,
    SeriesProfile,
    Subspaces,
    _chain_dims,
    _quotient_layers,
    loewy_length,
    quotient_representation,
    radical_chain,
    socle_chain,
)


def in_row_space(basis: RrefResult, v: np.ndarray) -> bool:
    return not reduce_mod_row_space(basis, v).any()


def coordinates_in_row_space(basis: RrefResult, v: np.ndarray) -> np.ndarray:
    """Coordinates of a member vector w.r.t. the RREF basis rows.

    For an RREF basis the coordinate of row r is just v[pivot_cols[r]];
    membership is the caller's responsibility (assert with in_row_space).
    """
    return v[list(basis.pivot_cols)]


def dense_tag_order_basis(rows: np.ndarray, tags: Sequence[int], field: FieldSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """The rows of a canonical array, taken in stable tag order, that are independent of the rows before them, with their tags.

    A row is kept where its transpose is a pivot column of the forward
    elimination, which takes the leftmost pivot in each column.
    """
    order = sorted(range(len(tags)), key=tags.__getitem__)
    ordered = rows[order]
    kept = _echelon(ordered.T, field, False)[1]
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
        arr = m.field.zeros((dims[v - 1], dims[u - 1]))
        if src.rank and m.dims[v - 1]:
            image = src.reduced.matmul(m.arrow_maps[a.name].transpose())
            for r in range(src.rank):
                vec = image.array()[r]
                if not in_row_space(tgt, vec):
                    raise ValueError("subspaces are not arrow-invariant")
                arr[:, r] = coordinates_in_row_space(tgt, vec)
        maps[a.name] = Matrix(m.field, arr)
    return Representation(alg, dims, maps)


def socle_series(m: Representation) -> SeriesProfile:
    """Socle layers soc_j/soc_{j-1}, bottom-up, from the general socle chain."""
    dims = _chain_dims(socle_chain(m))
    return _quotient_layers(zip(dims[1:], dims))


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
        acc = fld.zeros((m.dims[tgt - 1], m.dims[src - 1]))
        for coeff, path in terms:
            # each term is below p^2 < 2^62; reduce before the next one is added
            acc = fld.canonical(acc + coeff * path_matrix(path.arrows, src).array())
        if acc.any():
            raise AssertionError(f"relation {terms} does not annihilate the module")
    if loewy_length(m) > alg.presentation.cap:
        raise AssertionError("module is not annihilated by paths of length cap")
