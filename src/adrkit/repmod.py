"""Finite-dimensional left modules as quiver representations.

A representation assigns a vector space to each vertex and a matrix to each
arrow (shape dims[target] x dims[source], acting on column vectors).  All
submodule and quotient constructions pick echelonized coordinate bases, so
repeated runs are bit-identical.

Gradings.  ``projective`` grades P_i by the length of its basis paths.  A
reduction in the relation ideal only lands on basis paths of equal or higher
degree, and an arrow raises the degree, so rad^l P_i is spanned by the
coordinates of degree >= l.  ``injective`` builds Q_i as the transpose of the
opposite P_i, socle-graded by it, so soc_j Q_i is spanned by the coordinates
of degree < j.  The coordinates of degree < l at each vertex form the leading
block of level l: P_i/rad^l P_i or soc_l Q_i.  ``truncate`` and
``socle_sub`` build it as a module that keeps the grading.

Tagged passes.  A graded module has one tagged pass, memoized on it, on
``{coordinate: coefficient}`` rows.  Step 0 is the unit rows, each tagged
with the least level whose leading block holds it.  Step j is the products
of step j-1's rows with sparse arrow maps, each tagged as the row it came
from, reduced in tag order to the pivot rows of the rows independent of the
rows before them (``exactlin._tag_order_basis``, the tagged reduction of
persistent homology: Zomorodian and Carlsson, "Computing persistent
homology", 2005).  The rows of tag <= l at a step span that step for the
leading block of level l, so one pass serves every level.

- Under a radical grading the pass is the functional pass
  (:func:`_functional_pass`).  F_j spans the functionals phi(p x), p of
  length j, whose common kernel is soc_j.
- Under a socle grading it is the radical chain (:func:`_radical_pass`).
- The first multiplies functionals by the rows of the maps of outgoing
  arrows, the second vectors by the rows of the transposed maps of incoming
  arrows.  Both read these sparse maps from a memo of their own
  (:func:`_pass_arrows`), not from the Hom route's, and share only
  ``exactlin``.
- A module made from another one runs no pass of its own: it reads its
  ``source``'s (:func:`_tagged_pass`).  Q_i = D(P^op_i) reads the functional
  pass of P^op_i, which is its radical pass step for step, since Q_i's maps
  transposed are P^op_i's maps.  A module of a component of A is A's module
  at the component's vertices (``AlgebraData.component_of``) and reads A's
  pass there.  So the passes of the P_k of A and of the P_i of A^op serve
  both algebras and every component.

A ``SeriesProfile`` holds running totals: the dimensions of the first y
layers.  ``series_by_level`` writes the coordinates of degree < l minus the
rows of tag <= l at each step: the socle series of every P_k/rad^l P_k, or
the radical series of every soc_j Q_i.  ``socle_series`` and
``radical_series`` of a graded module read its grading or its top level,
and ``is_rigid`` checks its pass against its grading.

What each function takes.  ``truncate`` needs a radical grading,
``socle_sub`` a socle grading, and ``socle_series`` and ``is_rigid`` either;
each raises ``ValueError`` without it.  ``simple`` is radically graded, with
degree 0 at its vertex.  ``series_by_level`` and ``hom_dims_between_levels``
also refuse a grading whose leading blocks are not arrow-invariant
(:func:`_check_invariant`, memoized per module).  ``radical_series``,
``loewy_length`` and ``hom_dim`` take any module; without a grading the
first two use the general radical chain (``radical_chain``).  The general
socle chain (``socle_chain``, with ``quotient_representation``) is the
reference the tests compare the read-offs against.

Memos.  For j >= LL(M), M/rad^j M = M and soc_j M = M, so ``truncate`` and
``socle_sub`` return the module itself there.  They and ``socle_series``
are memoized on their module, and so are the tagged pass, the level series
and the invariance check, which a module with a ``source`` reads off its
source.  No Hom code reads a ``source``.  The Hom route memoizes on each
module its support, its coordinates in degree order, the widths of its
levels and the sparse columns and negated sparse rows of its arrow maps.
No Hom system or its pivots is memoized.

Hom tables.  ``hom_dims_between_levels`` reads a whole block of levels off
one intertwiner system per pair of graded modules.  For radically graded m
and n, number the unknowns f_v[r, k] by the degree of k in m and sort the
equations (r, c) by the degree of r in n.  Deleting the unknowns of source
degree >= j gives m/rad^j m.  Since rad^l n is a submodule, the equations
with deg r < l meet only unknowns with deg r < l and form the system of
Hom(-, n/rad^l n).  So dim Hom(m/rad^j m, n/rad^l n) is c_{j,l}, the
unknowns of both degrees below j and l, minus the rank of the first R_l
equations on the first c_j unknowns: the pivots below c_j of that row
prefix, all read off one ``exactlin._sparse_rank``.  Under socle gradings
the equations sort by the degree of c in m (the row prefix is soc_j m) and
the unknowns by the degree of r in n (the column prefix is soc_l n).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import gt, mul, sub

import numpy as np

from .exactlin import (
    FieldSpec,
    Matrix,
    RrefResult,
    _sparse_rank,
    _sparse_rows,
    _tag_order_basis,
    kernel_basis,
    reduce_mod_row_space,
    row_space_basis,
)
from .memo import memoized
from .presentation import AlgebraData


class AlgebraMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CompositionVector:
    """Multiplicity of each simple L_i (1-based vertex order)."""

    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(x < 0 for x in self.mult):
            raise ValueError(f"negative multiplicity in {self.mult}")

    def total(self) -> int:
        return sum(self.mult)


@dataclass(frozen=True)
class SeriesProfile:
    """Running totals of a radical or socle filtration, from zero to the whole module.

    ``totals[y]`` is the per-vertex dimension of the first y layers.
    """

    totals: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.totals or any(self.totals[0]):
            raise ValueError(f"a series starts from zero: {self.totals}")
        for lo, hi in zip(self.totals, self.totals[1:]):
            if any(map(gt, lo, hi)):
                raise ValueError(f"total {hi} below the one before it, {lo}")

    @cached_property
    def layers(self) -> tuple[CompositionVector, ...]:
        pairs = zip(self.totals, self.totals[1:])
        return tuple(CompositionVector(tuple(map(sub, hi, lo))) for lo, hi in pairs)

    def total(self) -> CompositionVector:
        return CompositionVector(self.totals[-1])

    def __len__(self) -> int:
        return len(self.totals) - 1


Grading = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Representation:
    """A module, with an optional grading of its coordinates.

    A grading gives the degree of every coordinate, per vertex, in
    nondecreasing order.  With ``radical_degrees`` rad^l M is spanned by the
    coordinates of degree >= l; with ``socle_degrees`` soc_j M is spanned by
    those of degree < j.  At most one of the two is set.  ``truncate`` needs
    the first, ``socle_sub`` the second, ``socle_series`` and ``is_rigid``
    either; a module with neither supports only the radical chain, Loewy
    length and Hom.

    The arrow maps must be keyed by exactly the quiver's arrows, each over
    the algebra's field and of shape dims[target] x dims[source], and a
    grading must give every vertex one nondecreasing tuple of non-negative
    degrees, one per coordinate; anything else raises ``ValueError``.

    ``source`` is set on a module made from another one: ``(module,
    vertices)`` means that this module's tagged pass is ``module``'s, read at
    ``vertices`` (1-based, one per vertex of this module's algebra).
    ``injective`` and the modules of a component set it.
    """

    algebra: AlgebraData
    dims: tuple[int, ...]
    arrow_maps: dict[str, Matrix]
    radical_degrees: Grading | None = field(default=None, repr=False, compare=False)
    socle_degrees: Grading | None = field(default=None, repr=False, compare=False)
    source: tuple[Representation, tuple[int, ...]] | None = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radical_degrees is not None and self.socle_degrees is not None:
            raise ValueError("a module takes a radical or a socle grading, not both")
        q, fld = self.algebra.quiver, self.algebra.field
        if len(self.dims) != q.n or len(self.arrow_maps) != len(q.arrows):
            names = [a.name for a in q.arrows]
            raise ValueError(f"a module needs {q.n} dimensions and a map per arrow of {names}")
        for a in q.arrows:
            u, v = q.arrow_endpoints(a.name)
            mat = self.arrow_maps.get(a.name)
            shape = (self.dims[v - 1], self.dims[u - 1])
            if mat is None or (mat.field is not fld and mat.field != fld) or mat.shape != shape:
                raise ValueError(f"arrow {a.name!r} needs a {shape} map over {fld.describe()}")
        for degrees in (self.radical_degrees, self.socle_degrees):
            if degrees is not None and (
                list(map(len, degrees)) != list(self.dims)
                or any(d and (d[0] < 0 or list(d) != sorted(d)) for d in degrees)
            ):
                raise ValueError(f"a grading needs sorted degrees >= 0 per coordinate: {degrees}")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0


@lru_cache(maxsize=256)
def _full_space(field: FieldSpec, dim: int) -> RrefResult:
    return RrefResult(Matrix.identity(field, dim), dim, tuple(range(dim)))


@lru_cache(maxsize=256)
def _zero_space(field: FieldSpec, dim: int) -> RrefResult:
    return RrefResult(Matrix.zeros(field, 0, dim), 0, ())


Subspaces = tuple[RrefResult, ...]


def simple(alg: AlgebraData, i: int) -> Representation:
    """The simple L_i, radically graded with degree 0 at vertex i."""
    dims = tuple(1 if v == i else 0 for v in range(1, alg.n + 1))
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        maps[a.name] = Matrix.zeros(alg.field, dims[v - 1], dims[u - 1])
    return Representation(alg, dims, maps, radical_degrees=tuple((0,) * d for d in dims))


def _check_vertex(alg: AlgebraData, i: int) -> None:
    if not 1 <= i <= alg.n:
        raise ValueError(f"vertex index {i} out of range 1..{alg.n}")


def _cut(m: Representation, alg: AlgebraData) -> Representation:
    """m, a module of the algebra that ``alg`` is a component of, at the component's vertices.

    m is zero off the component, so it keeps its maps and grading there, and
    its tagged pass is m's (``source``).
    """
    _, at = alg.component_of

    def pick(degrees):
        return None if degrees is None else tuple(degrees[v - 1] for v in at)

    maps = {a.name: m.arrow_maps[a.name] for a in alg.quiver.arrows}
    dims = tuple(m.dims[v - 1] for v in at)
    return Representation(alg, dims, maps, pick(m.radical_degrees), pick(m.socle_degrees), source=(m, at))


@memoized
def projective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable projective P_i: residues of basis paths with source i, graded by length.

    On a component of A it is A's P_i cut to the component (:func:`_cut`).
    """
    _check_vertex(alg, i)
    if alg.component_of is not None:
        whole, at = alg.component_of
        return _cut(projective(whole, at[i - 1]), alg)
    idxs = alg.basis_indices_with_source(i)
    by_vertex: list[list[int]] = [[] for _ in range(alg.n)]
    for k in idxs:
        by_vertex[alg.basis[k].target - 1].append(k)
    pos = {
        k: (alg.basis[k].target, slot)
        for v in range(alg.n)
        for slot, k in enumerate(by_vertex[v])
    }
    dims = tuple(len(by_vertex[v]) for v in range(alg.n))
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        arr = alg.field.zeros((dims[v - 1], dims[u - 1]))
        for col, k in enumerate(by_vertex[u - 1]):
            for idx, coeff in alg.act[a.name].get(k, ()):
                _, row = pos[idx]
                arr[row, col] = coeff
        maps[a.name] = Matrix(alg.field, arr)
    degrees = tuple(tuple(alg.basis[k].length for k in ks) for ks in by_vertex)
    return Representation(alg, dims, maps, radical_degrees=degrees)


@memoized
def injective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable injective Q_i: transpose-dual of the opposite projective, socle-graded by it.

    Its tagged pass is the opposite projective's (``source``).  On a
    component of A it is A's Q_i cut to the component (:func:`_cut`).
    """
    _check_vertex(alg, i)
    if alg.component_of is not None:
        whole, at = alg.component_of
        return _cut(injective(whole, at[i - 1]), alg)
    p_op = projective(alg.opposite(), i)
    maps = {a.name: p_op.arrow_maps[a.name].transpose() for a in alg.quiver.arrows}
    everywhere = tuple(range(1, alg.n + 1))
    return Representation(alg, p_op.dims, maps, socle_degrees=p_op.radical_degrees, source=(p_op, everywhere))


def _below(degrees: Grading, l: int) -> tuple[int, ...]:
    """Number of coordinates of degree < l at each vertex."""
    return tuple(bisect_left(d, l) for d in degrees)


def _grading_length(degrees: Grading) -> int:
    """Number of degrees in use: the Loewy length of a graded module."""
    return max((d[-1] + 1 for d in degrees if d), default=0)


@memoized
def _check_invariant(m: Representation) -> None:
    """Raise ``ValueError`` unless every leading block of m's grading is arrow-invariant.

    Under a radical grading the coordinates of degree >= l must span a
    submodule for every l, so an arrow map entry M_a[r, k] may be nonzero
    only where deg r >= deg k; under a socle grading those of degree < l
    must, so only where deg r <= deg k.  A module with a ``source`` is
    checked by its source: transposing swaps the two conditions.
    """
    if m.source is not None:
        return _check_invariant(m.source[0])
    radical = m.radical_degrees is not None
    degrees = m.radical_degrees if radical else m.socle_degrees
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        r, k = m.arrow_maps[a.name].array().nonzero()
        rise = np.asarray(degrees[v - 1], dtype=np.int64)[r] - np.asarray(degrees[u - 1], dtype=np.int64)[k]
        if (rise < 0 if radical else rise > 0).any():
            raise ValueError("subspaces are not arrow-invariant")


def _leading_block(m: Representation, l: int) -> Representation:
    """The coordinates of degree < l: m/rad^l m under a radical grading, soc_l m under a socle one.

    The grading is checked by :func:`_check_invariant`, and the block keeps it.
    """
    _check_invariant(m)
    radical = m.radical_degrees is not None
    degrees = m.radical_degrees if radical else m.socle_degrees
    keep = _below(degrees, l)
    maps = {}
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        maps[a.name] = Matrix(m.field, m.arrow_maps[a.name].array()[: keep[v - 1], : keep[u - 1]])
    kept = tuple(d[:c] for d, c in zip(degrees, keep))
    if radical:
        return Representation(m.algebra, keep, maps, radical_degrees=kept)
    return Representation(m.algebra, keep, maps, socle_degrees=kept)


def composition_vector(m: Representation) -> CompositionVector:
    """Class of m in the Grothendieck group; simples are one-dimensional."""
    return CompositionVector(m.dims)


def _socle_subspaces(m: Representation) -> Subspaces:
    """soc(M)_v = intersection of kernels of all arrow maps out of v."""
    out = []
    for v in range(1, m.algebra.n + 1):
        blocks = [
            m.arrow_maps[a.name]
            for a in m.algebra.quiver.arrows
            if m.algebra.quiver.arrow_endpoints(a.name)[0] == v
        ]
        d = m.dims[v - 1]
        if not blocks:
            out.append(_full_space(m.field, d))
            continue
        stacked = blocks[0]
        for b in blocks[1:]:
            stacked = stacked.stack(b)
        out.append(row_space_basis(kernel_basis(stacked)))
    return tuple(out)


def _radical_step(m: Representation, spaces: Subspaces) -> Subspaces:
    """rad(S) for a submodule S: sums of arrow images of S."""
    alg = m.algebra
    rows_per_vertex: list[list[np.ndarray]] = [[] for _ in range(alg.n)]
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        src = spaces[u - 1]
        if src.rank == 0:
            continue
        image = src.reduced.matmul(m.arrow_maps[a.name].transpose())
        rows_per_vertex[v - 1].append(image.array())
    out = []
    for v in range(alg.n):
        d = m.dims[v]
        if not rows_per_vertex[v]:
            out.append(_zero_space(m.field, d))
            continue
        stacked = np.vstack(rows_per_vertex[v])
        out.append(row_space_basis(Matrix(m.field, stacked)))
    return tuple(out)


@memoized
def radical_chain(m: Representation) -> tuple[Subspaces, ...]:
    """(rad^0 M = M, rad M, ..., rad^L M = 0) as echelonized subspaces."""
    chain = [tuple(_full_space(m.field, d) for d in m.dims)]
    while sum(s.rank for s in chain[-1]) > 0:
        nxt = _radical_step(m, chain[-1])
        if sum(s.rank for s in nxt) >= sum(s.rank for s in chain[-1]):
            raise RuntimeError("radical did not shrink; representation is invalid")
        chain.append(nxt)
    return tuple(chain)


def _nonpivot_cols(space: RrefResult, dim: int) -> list[int]:
    piv = set(space.pivot_cols)
    return [c for c in range(dim) if c not in piv]


def quotient_representation(m: Representation, spaces: Subspaces) -> Representation:
    """Quotient by an invariant subspace, coordinates at non-pivot columns."""
    alg = m.algebra
    npcols = [_nonpivot_cols(spaces[v], m.dims[v]) for v in range(alg.n)]
    dims = tuple(len(cols) for cols in npcols)
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        arr = m.field.zeros((dims[v - 1], dims[u - 1]))
        m_a = m.arrow_maps[a.name].array()
        for s, c in enumerate(npcols[u - 1]):
            if m.dims[v - 1] == 0:
                continue
            image = m_a[:, c]
            residual = reduce_mod_row_space(spaces[v - 1], image.copy())
            arr[:, s] = residual[npcols[v - 1]]
        maps[a.name] = Matrix(m.field, arr)
    return Representation(alg, dims, maps)


@memoized
def socle_chain(m: Representation) -> tuple[Subspaces, ...]:
    """(0 = soc_0 M, soc_1 M, ..., soc_K M = M) as echelonized subspaces."""
    chain = [tuple(_zero_space(m.field, d) for d in m.dims)]
    total = m.total_dim()
    while sum(s.rank for s in chain[-1]) < total:
        cur = chain[-1]
        q = quotient_representation(m, cur)
        npcols = [_nonpivot_cols(cur[v], m.dims[v]) for v in range(m.algebra.n)]
        soc_q = _socle_subspaces(q)
        new_spaces = []
        for v in range(m.algebra.n):
            lifted = m.field.zeros((soc_q[v].rank, m.dims[v]))
            for r in range(soc_q[v].rank):
                for t, c in enumerate(npcols[v]):
                    lifted[r, c] = soc_q[v].reduced[r, t]
            joined = np.vstack([lifted, cur[v].reduced.array()])
            new_spaces.append(row_space_basis(Matrix(m.field, joined)))
        if sum(s.rank for s in new_spaces) <= sum(s.rank for s in cur):
            raise RuntimeError("socle did not grow; representation is invalid")
        chain.append(tuple(new_spaces))
    return tuple(chain)


def _chain_dims(chain) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(s.rank for s in spaces) for spaces in chain)


def _degree_profile(degrees: Grading) -> SeriesProfile:
    """Layer l holds the coordinates of degree l, so the first l layers hold those of degree < l."""
    return SeriesProfile(tuple(_below(degrees, l) for l in range(_grading_length(degrees) + 1)))


TaggedStep = tuple[tuple[list[dict], tuple[int, ...]], ...]


@memoized
def _pass_arrows(m: Representation) -> list[list[tuple[int, list[dict]]]]:
    """Per vertex v, the pairs (t, maps) that a step of m's tagged pass multiplies by; t is 0-based.

    Under a radical grading these are the arrows a: v -> t, with the sparse
    rows of M_a, so a functional phi on M_t gives phi M_a.  Under a socle
    grading they are the arrows a: t -> v, with the sparse rows of M_a^T, so
    a vector x of M_t gives M_a x.  A vertex with no coordinates gets none.
    """
    radical = m.radical_degrees is not None
    out: list[list[tuple[int, list[dict]]]] = [[] for _ in m.dims]
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        arr = m.arrow_maps[a.name].array()
        t, v, arr = (v, u, arr) if radical else (u, v, arr.T)
        if m.dims[v - 1]:
            out[v - 1].append((t - 1, _sparse_rows(arr)))
    return out


def _unit_step(degrees: Grading) -> TaggedStep:
    """Step 0 of a tagged pass: the unit rows {r: 1} at each vertex, row r tagged by the degree of r plus one."""
    return tuple(([{r: 1} for r in range(len(ds))], tuple(d + 1 for d in ds)) for ds in degrees)


def _next_step(m: Representation, step: TaggedStep) -> TaggedStep:
    """The step after ``step`` in m's tagged pass, by the products of its rows with :func:`_pass_arrows`.

    At each vertex v, the tag-order basis of the products of the rows of
    ``step`` at t with the maps of each (t, maps) in ``_pass_arrows(m)[v]``;
    each product row keeps the tag of the row it came from.  A product of a
    row phi with sparse rows M is sum_k phi[k] M[k], left unreduced:
    ``exactlin._tag_order_basis`` reads non-canonical coefficients.  An
    empty product is no basis row, so it is left out.
    """
    out = []
    for arrows in _pass_arrows(m):
        rows: list[dict] = []
        tags: list[int] = []
        for t, maps in arrows:
            for row, tag in zip(*step[t]):
                acc: dict = {}
                for k, x in row.items():
                    for c, y in maps[k].items():
                        acc[c] = acc.get(c, 0) + x * y
                if acc:
                    rows.append(acc)
                    tags.append(tag)
        out.append(_tag_order_basis(rows, tags, m.field) if rows else ([], ()))
    return tuple(out)


@memoized
def _functional_pass(m: Representation) -> tuple[TaggedStep, ...]:
    """F_0, F_1, ..., F_J for a radically graded root m, each row tagged.

    F_0(v) holds the coordinate functionals e_r^* on M_v, e_r^* tagged
    deg(r) + 1.  F_j(v) is the tag-order basis
    (:func:`exactlin._tag_order_basis`) of the functionals phi M_a, for phi
    in F_{j-1}(t) over the arrows a: v -> t, each tagged as its phi.  So the
    rows of F_j(v) of tag <= l span the functionals phi(p x) for the paths p
    of length j out of v and the phi that vanish in degree >= l.  These
    vanish off m/rad^l m, and their common kernel there is
    (soc_j(m/rad^l m))_v.  F_J is the first that vanishes everywhere;
    J <= LL(m).  Rows are ``{coordinate: coefficient}`` dicts.
    """
    ll = loewy_length(m)
    funcs = _unit_step(m.radical_degrees)
    chain = [funcs]
    while any(tags for _, tags in funcs):
        if len(chain) > ll:
            raise RuntimeError("socle did not grow; representation is invalid")
        funcs = _next_step(m, funcs)
        chain.append(funcs)
    return tuple(chain)


@memoized
def _radical_pass(m: Representation) -> tuple[TaggedStep, ...]:
    """rad^0 m, rad m, ..., rad^L m = 0 for a socle-graded root m, each basis row tagged.

    rad^0 m at v holds the coordinate vectors e_r of M_v, e_r tagged by its
    socle degree + 1.  rad^t m at v is the tag-order basis
    (:func:`exactlin._tag_order_basis`) of the images M_a x, for x in
    rad^{t-1} m at u over the arrows a: u -> v, each tagged as its x.  So
    the rows of tag <= j span rad^t(soc_j m) at v.  Rows are
    ``{coordinate: coefficient}`` dicts.
    """
    spaces = _unit_step(m.socle_degrees)
    chain = [spaces]
    while any(tags for _, tags in spaces):
        nxt = _next_step(m, spaces)
        if sum(len(tags) for _, tags in nxt) >= sum(len(tags) for _, tags in spaces):
            raise RuntimeError("radical did not shrink; representation is invalid")
        spaces = nxt
        chain.append(spaces)
    return tuple(chain)


def _everywhere(src: Representation, at: tuple[int, ...]) -> bool:
    """True iff ``at`` is every vertex of ``src``, in order: then a read at ``at`` is src's own."""
    return at == tuple(range(1, len(src.dims) + 1))


@memoized
def _tagged_pass(m: Representation) -> tuple[TaggedStep, ...]:
    """m's tagged pass: the functional pass under a radical grading, the radical pass under a socle one.

    A module with a ``source`` runs none: it reads its source's pass, each
    step at its vertices.  For Q_i = D(P^op_i) the radical pass of Q_i is the
    functional pass of P^op_i step for step, since a step multiplies by the
    rows of Q_i's maps transposed, which are P^op_i's maps.
    """
    if m.source is not None:
        src, at = m.source
        run = _tagged_pass(src)
        return run if _everywhere(src, at) else tuple(tuple(step[v - 1] for v in at) for step in run)
    return _functional_pass(m) if m.radical_degrees is not None else _radical_pass(m)


@memoized
def _level_series(root: Representation) -> tuple[SeriesProfile | None, ...]:
    """Entry l: the socle series of root/rad^l root, or the radical series of soc_l root, l = 0..LL.

    Read off the root's tagged pass as running totals: total t of level l is
    c_v minus the rows of tag <= l of step t at vertex v, for c_v the
    coordinates of degree < l, which step 0 holds exactly.  Under a radical
    grading those rows are functionals with common kernel
    soc_t(root/rad^l root); under a socle grading they span rad^t(soc_l root).
    Each count is a ``bisect_right`` on a step's sorted tags, and a level's
    series ends once it reaches c.  The leading block of level l is a module
    only if the grading is arrow-invariant (:func:`_check_invariant`).  Its
    functionals must vanish within its own Loewy length; where they do not,
    the grading misreads the block and its entry is None.  A root with a
    ``source`` reads the source's totals at its vertices: the socle series of
    P^op_i/rad^l P^op_i and the radical series of soc_l Q_i, its dual, have
    the same running totals.
    """
    if root.source is not None:
        src, at = root.source
        levels = _level_series(src)
        if _everywhere(src, at):
            return levels
        return tuple(
            None if s is None else SeriesProfile(tuple(tuple(t[v - 1] for v in at) for t in s.totals))
            for s in levels
        )
    _check_invariant(root)
    radical = root.radical_degrees is not None
    degrees = root.radical_degrees if radical else root.socle_degrees
    run = _tagged_pass(root)
    out = []
    for l in range(_grading_length(degrees) + 1):
        block = _below(degrees, l)
        totals = []
        for step in run:
            totals.append(tuple(c - bisect_right(tags, l) for c, (_, tags) in zip(block, step)))
            if totals[-1] == block:
                break
        top = _grading_length(tuple(d[:c] for d, c in zip(degrees, block)))
        out.append(None if radical and len(totals) > top + 1 else SeriesProfile(tuple(totals)))
    return tuple(out)


def series_by_level(root: Representation) -> tuple[SeriesProfile, ...]:
    """Entry l: the socle series of root/rad^l root under a radical grading, or the radical series of soc_l root under a socle one.

    l runs over 0..LL(root), so entry LL(root) is the root's own series.
    One tagged pass of the root gives every level (:func:`_level_series`).
    """
    levels = _level_series(root)
    if any(series is None for series in levels):
        raise RuntimeError("socle did not grow; representation is invalid")
    return levels


@memoized
def socle_series(m: Representation) -> SeriesProfile:
    """Socle layers soc_j/soc_{j-1}, bottom-up; m must be graded."""
    if m.socle_degrees is not None:
        return _degree_profile(m.socle_degrees)
    if m.radical_degrees is None:
        raise ValueError("socle_series needs a graded module")
    return _level_series(m)[-1]


def radical_series(m: Representation) -> SeriesProfile:
    """Radical layers M/rad M, rad M/rad^2 M, ..., top-down."""
    if m.radical_degrees is not None:
        return _degree_profile(m.radical_degrees)
    if m.socle_degrees is not None:
        return _level_series(m)[-1]
    dims = _chain_dims(radical_chain(m))
    return SeriesProfile(tuple(tuple(map(sub, dims[0], d)) for d in dims))


def loewy_length(m: Representation) -> int:
    """Length of the radical (equally, the socle) series."""
    for degrees in (m.radical_degrees, m.socle_degrees):
        if degrees is not None:
            return _grading_length(degrees)
    return len(radical_chain(m)) - 1


def is_uniserial(m: Representation) -> bool:
    """True iff every radical layer is a single simple."""
    return all(layer.total() == 1 for layer in radical_series(m).layers)


def is_rigid(m: Representation) -> bool:
    """True iff rad^j M = soc_{L-j} M for every j; m must be graded.

    m's memoized tagged pass (:func:`_tagged_pass`) is checked against the
    grading: under a radical grading the functionals F_j, with common kernel
    soc_j M, under a socle grading the radical chain rad^j M.  The c_v
    coordinates of degree < L-j span the other side at vertex v, so step j
    must have c_v rows (equal dimensions) and no entry from column c_v on
    (containment, which holds in every module: its failure is a bug).
    """
    radical = m.radical_degrees is not None
    degrees = m.radical_degrees if radical else m.socle_degrees
    if degrees is None:
        raise ValueError("is_rigid needs a graded module")
    chain = _tagged_pass(m)
    ll = _grading_length(degrees)
    if len(chain) - 1 != ll:
        return False
    for j, step in enumerate(chain):
        for v, ((rows, _), c) in enumerate(zip(step, _below(degrees, ll - j))):
            if len(rows) != c:
                return False
            if any(max(row) >= c for row in rows):
                rad, soc = (ll - j, j) if radical else (j, ll - j)
                raise RuntimeError(f"rad^{rad} not contained in soc_{soc} at vertex {v + 1}")
    return True


@memoized
def truncate(m: Representation, j: int) -> Representation:
    """M / rad^j M, its leading coordinates; M itself when j >= LL(M).  m must be radically graded."""
    if j < 1:
        raise ValueError("truncation index must be >= 1")
    if m.radical_degrees is None:
        raise ValueError("truncate needs a radically graded module")
    return _leading_block(m, j) if j < loewy_length(m) else m


@memoized
def socle_sub(m: Representation, j: int) -> Representation:
    """soc_j M, its leading coordinates; M itself when j >= LL(M).  m must be socle-graded."""
    if j < 1:
        raise ValueError("socle index must be >= 1")
    if m.socle_degrees is None:
        raise ValueError("socle_sub needs a socle-graded module")
    return _leading_block(m, j) if j < loewy_length(m) else m


@memoized
def _support(m: Representation) -> frozenset[int]:
    """The vertices where m is nonzero."""
    return frozenset(v for v, d in enumerate(m.dims) if d)


@memoized
def _sparse_columns(m: Representation, arrow: str) -> list[dict]:
    """The nonzero entries of each column of M_a, as ``{row: entry}``."""
    return _sparse_rows(m.arrow_maps[arrow].array().T)


@memoized
def _negated_sparse_rows(m: Representation, arrow: str) -> list[dict]:
    """The nonzero entries of each row of -M_a, canonical, as ``{column: entry}``."""
    return _sparse_rows(m.field.canonical(-m.arrow_maps[arrow].array()))


@memoized
def _degree_order(m: Representation) -> list[tuple[int, int]]:
    """The coordinates (v, g) of a graded module, sorted by (degree, vertex, index)."""
    degrees = m.radical_degrees if m.radical_degrees is not None else m.socle_degrees
    return [(v, g) for _, v, g in sorted((d, v, g) for v, ds in enumerate(degrees) for g, d in enumerate(ds))]


def _slots(order: list[tuple[int, int]], dims, widths) -> list[list[int]]:
    """First unknown of each coordinate's slot, the coordinates (v, g) taken in ``order``.

    Coordinate g at vertex v owns ``widths[v]`` consecutive unknowns, so in
    :func:`_degree_order` the unknowns of coordinates of degree < j come
    first, for every j at once.
    """
    starts = [[0] * d for d in dims]
    pos = 0
    for v, g in order:
        starts[v][g] = pos
        pos += widths[v]
    return starts


def _numbering(m: Representation, n: Representation, by: str | None):
    """(row_at, col_at): unknown f_v[r, k] is numbered row_at[v][r] + col_at[v][k].

    With ``by`` None the unknowns run row-major, vertex by vertex; with
    "radical" they are sorted by the radical degree of coordinate k of m,
    with "socle" by the socle degree of coordinate r of n.
    """
    if by == "radical":
        return [list(range(d)) for d in n.dims], _slots(_degree_order(m), m.dims, n.dims)
    order = _degree_order(n) if by == "socle" else [(v, r) for v, d in enumerate(n.dims) for r in range(d)]
    return _slots(order, n.dims, m.dims), [list(range(d)) for d in m.dims]


def _hom_constraints(m: Representation, n: Representation, by: str | None = None) -> tuple[list[dict], int, list[int]]:
    """Sparse rows of the intertwiner system, the number of unknowns, and the level marks.

    Unknowns are the entries of f_v: M_v -> N_v, numbered by
    :func:`_numbering` (row-major and concatenated over vertices unless
    ``by`` sorts them by degree); each arrow a: u -> v contributes the block
    of equations f_v M_a - N_a f_u = 0, equation (r, c) on row
    r * dim M_u + c.  Each equation is a ``{unknown: coefficient}`` dict of
    nonzero canonical coefficients, read off the nonzero entries alone:
    f_v[r, k] meets M_a[k, c] for the nonzeros of column c of M_a, and
    f_u[k, c] meets -N_a[r, k] for the nonzeros of row r of N_a.  A loop
    (u = v) adds both parts into the same key, and a key whose sum is zero
    is dropped.  An equation with no entry left is not emitted.

    The equations come in arrow order, and, stably, by level: with ``by``
    "radical" the radical degree of coordinate r of n, with "socle" the
    socle degree of coordinate c of m, and with None all are of level 0.
    ``marks[l - 1]`` counts the emitted equations of level < l.
    """
    q = m.algebra.quiver
    p = m.field.p
    row_at, col_at = _numbering(m, n, by)
    row_level = n.radical_degrees if by == "radical" else tuple((0,) * d for d in n.dims)
    col_level = m.socle_degrees if by == "socle" else tuple((0,) * d for d in m.dims)
    levels: list[list[dict]] = [[] for _ in range(max(_grading_length(row_level), _grading_length(col_level), 1))]
    for a in q.arrows:
        u, v = q.arrow_endpoints(a.name)
        if not n.dims[v - 1] * m.dims[u - 1]:
            continue
        col_v, row_u = col_at[v - 1], row_at[u - 1]
        columns = [
            (shift, [(col_v[k], x) for k, x in col.items()], c_level)
            for shift, col, c_level in zip(col_at[u - 1], _sparse_columns(m, a.name), col_level[u - 1])
        ]
        nonzero_columns = [column for column in columns if column[1]]
        loop = u == v
        for left, r_level, n_row in zip(row_at[v - 1], row_level[v - 1], _negated_sparse_rows(n, a.name)):
            if not n_row:  # row r of N_a is zero: equation (r, c) is f_v M_a's part alone
                for _, col, c_level in nonzero_columns:
                    levels[r_level + c_level].append({left + k: x for k, x in col})
                continue
            right = [(row_u[k], x) for k, x in n_row.items()]
            for shift, col, c_level in columns:
                eq = {left + k: x for k, x in col}
                for start, x in right:
                    key = start + shift
                    if loop and key in eq:
                        x = (eq[key] + x) % p if p else eq[key] + x
                        if not x:
                            del eq[key]
                            continue
                    eq[key] = x
                if eq:
                    levels[r_level + c_level].append(eq)
    rows = [eq for level in levels for eq in level]
    return rows, sum(nd * md for nd, md in zip(n.dims, m.dims)), list(accumulate(map(len, levels)))


def _same_algebra(m: Representation, n: Representation) -> None:
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise AlgebraMismatchError("modules live over different algebras")


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of Hom_A(m, n): unknowns minus the rank of the intertwiner system."""
    _same_algebra(m, n)
    if _support(m).isdisjoint(_support(n)):
        return 0
    rows, unknowns, marks = _hom_constraints(m, n)
    return unknowns - len(_sparse_rank(rows, m.field, marks)[-1])


@memoized
def _level_widths(m: Representation) -> tuple[tuple[int, ...], ...]:
    """Entry j - 1: the number of coordinates of degree < j at each vertex, j = 1..LL(m), for m's grading."""
    degrees = m.radical_degrees if m.radical_degrees is not None else m.socle_degrees
    return tuple(_below(degrees, j) for j in range(1, _grading_length(degrees) + 1))


def hom_dims_between_levels(m: Representation, n: Representation) -> tuple[tuple[int, ...], ...]:
    """Entry [j - 1][l - 1]: dim Hom(m/rad^j m, n/rad^l n), or dim Hom(soc_j m, soc_l n), by one elimination.

    j runs over 1..LL(m) and l over 1..LL(n).  Both modules must be
    radically graded (the first family) or both socle-graded (the second),
    with arrow-invariant gradings (:func:`_check_invariant`).

    Under radical gradings the unknowns f_v[r, k] are numbered by the degree
    of k in m and the equations (r, c) come sorted by the degree of r in n
    (:func:`_hom_constraints`).  Since rad^l n is a submodule, an equation
    with deg r < l meets only unknowns with deg r < l; those equations,
    restricted to the unknowns with deg k < j, are the system of
    Hom(m/rad^j m, n/rad^l n).  So its dimension is c_{j,l}, the unknowns
    with deg k < j and deg r < l, minus the pivot columns below c_j of the
    equations of level < l, c_j the unknowns with deg k < j.  Under socle
    gradings the roles swap: the equations sorted by the degree of c in m
    give soc_j m, and the unknowns numbered by the degree of r in n give
    soc_l n.
    """
    _same_algebra(m, n)
    if m.radical_degrees is not None and n.radical_degrees is not None:
        by = "radical"
    elif m.socle_degrees is not None and n.socle_degrees is not None:
        by = "socle"
    else:
        raise ValueError("hom_dims_between_levels needs two radically graded or two socle-graded modules")
    _check_invariant(m)
    _check_invariant(n)
    below_m, below_n = _level_widths(m), _level_widths(n)
    both = [[sum(map(mul, bm, bn)) for bn in below_n] for bm in below_m]
    if _support(m).isdisjoint(_support(n)):
        return tuple((0,) * len(below_n) for _ in below_m)
    rows, unknowns, marks = _hom_constraints(m, n, by)
    profile = _sparse_rank(rows, m.field, marks)
    # one mark per level of the side that sorts the equations; the other
    # side's level j (or l) is the column prefix c_j (or c_l)
    if by == "radical":
        prefixes = [sum(map(mul, bm, n.dims)) for bm in below_m]
        ranks = zip(*([bisect_left(pivots, c) for c in prefixes] for pivots in profile))
    else:
        prefixes = [sum(map(mul, m.dims, bn)) for bn in below_n]
        ranks = ([bisect_left(pivots, c) for c in prefixes] for pivots in profile)
    return tuple(tuple(map(sub, row, rank)) for row, rank in zip(both, ranks))


def _socle_vertex(m: Representation) -> int | None:
    """Vertex of the socle if it is simple, else None."""
    layers = socle_series(m).layers
    if not layers or layers[0].total() != 1:
        return None
    return layers[0].mult.index(1) + 1


@memoized
def is_nakayama(alg: AlgebraData) -> bool:
    """True iff all indecomposable projectives and injectives are uniserial."""
    return all(
        is_uniserial(projective(alg, i)) and is_uniserial(injective(alg, i))
        for i in range(1, alg.n + 1)
    )


@memoized
def selfinjective_matching(alg: AlgebraData) -> dict[int, int] | None:
    """Permutation sigma with P_i isomorphic to Q_sigma(i), or None.

    sigma(i) is forced to be the socle vertex s of P_i.  A module with simple
    socle S_s embeds in the injective envelope Q_s of S_s, so P_i is
    isomorphic to Q_s exactly when their dimension vectors agree
    (Assem-Simson-Skowronski, Elements of the Representation Theory of
    Associative Algebras, Vol. 1).
    """
    sigma: dict[int, int] = {}
    for i in range(1, alg.n + 1):
        p = projective(alg, i)
        s = _socle_vertex(p)
        if s is None or p.dims != injective(alg, s).dims:
            return None
        sigma[i] = s
    return sigma


def is_selfinjective(alg: AlgebraData) -> bool:
    return selfinjective_matching(alg) is not None

