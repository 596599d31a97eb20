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

Roots and tagged passes.  Every graded module is read through its root
(:func:`_root`), a radically graded module with no ``source``: a radically
graded module without one is its own root, and a socle-graded one has its
dual D(m) = Hom_K(m, K) over A^op as its root, its maps transposed and
radically graded by its socle degrees, since soc_j m = D(Dm/rad^j Dm)
(Assem-Simson-Skowronski, Vol. 1).  A module made from another one reads
its ``source``'s root at its own vertices: Q_i = D(P^op_i) reads P^op_i,
and a module of a component of A (``AlgebraData.component_of``) reads A's
module at the component's vertices.  So the passes of the P_k of A and of
the P_i of A^op serve both algebras and every component.

A root has one tagged pass, its functional pass (:func:`_functional_pass`),
memoized on it, on ``{coordinate: coefficient}`` rows.  Step 0 is the unit
rows, each tagged with the least level whose leading block holds it.  Step
j is the products of step j-1's rows with the sparse rows of the maps of
outgoing arrows (:func:`_pass_arrows`, a memo of the pass's own, not the
Hom route's), each tagged as the row it came from, reduced in tag order to
the pivot rows of the rows independent of the rows before them
(``exactlin._tag_order_basis``, the tagged reduction of persistent
homology: Zomorodian and Carlsson, "Computing persistent homology", 2005).
F_j spans the functionals phi(p x), p of length j, whose common kernel is
soc_j, and its rows of tag <= l span that step for the leading block of
level l, so one pass serves every level.  Arrow maps are stored as sparse
rows (``Matrix.sparse_rows``), and no reader builds a dense array.
``projective`` writes its rows straight from ``act``, which holds no zero
coefficient, and ``injective`` transposes them; the Hom route derives its
sparse columns and negated rows from the same rows, in memos of its own.

A ``SeriesProfile`` holds running totals: the dimensions of the first y
layers.  ``series_by_level`` writes the coordinates of degree < l minus the
rows of tag <= l at each step: the socle series of every P_k/rad^l P_k, or
the radical series of every soc_j Q_i.  ``socle_series`` and
``radical_series`` of a graded module read its grading or its top level,
and ``is_rigid`` checks its root's pass against the root's grading.

What each function takes.  ``truncate`` needs a radical grading,
``socle_sub`` a socle grading, and ``socle_series`` and ``is_rigid`` either;
each raises ``ValueError`` without it.  ``simple`` is radically graded, with
degree 0 at its vertex.  ``series_by_level`` and ``hom_dims_between_levels``
also refuse a grading whose leading blocks are not arrow-invariant
(:func:`_check_invariant`, memoized per module).  ``radical_series``,
``loewy_length`` and ``hom_dim`` take any module; without a grading the
first two use the general radical chain (``radical_chain``).  The general
socle chain (``socle_chain``, with ``quotient_representation``) is the
reference the tests compare the read-offs against.  The general chains run
on the RREF rows of ``exactlin`` and sparse products, like everything else.

Memos.  For j >= LL(M), M/rad^j M = M and soc_j M = M, so ``truncate`` and
``socle_sub`` return the module itself there.  They and ``socle_series``
are memoized on their module, and so are the root, the tagged pass, the
level series, the invariance check and the rigidity verdict.  A module that
is not its own root reads the last three off its root, at its own vertices.
The Hom route memoizes on each module its support, its coordinates in
degree order, the sparse columns and negated sparse rows of its arrow maps
and those rows grouped by level, and on each algebra its regular module.
It reads modules, roots included, and no pass or series.  No Hom system or
its pivots is memoized.

Hom tables.  ``hom_dims_between_levels`` reads a whole block of levels off
one intertwiner system per pair of radically graded modules.  Number the
unknowns f_v[r, k] by the degree of k in m and group the equations (r, c)
by the degree of r in n.  Deleting the unknowns of source degree >= j gives
m/rad^j m.  Since rad^l n is a submodule, the equations with deg r < l meet
only unknowns with deg r < l and form the system of Hom(-, n/rad^l n).  So
dim Hom(m/rad^j m, n/rad^l n) is c_{j,l}, the unknowns of both degrees
below j and l, minus the rank of the equations of level < l on the first
c_j unknowns: their pivots below c_j.  One kernel serves the tables and
``hom_dim``, :func:`_hom_profile`: it builds the equations level by level,
the levels n's radical degrees (one level if n has no radical grading), and
streams them into one ``exactlin._SparseEchelon``, each level's one-entry
equations first.  Those force their unknowns to zero; the echelon records
them as settled, and every equation built or read after that leaves them
out, which changes no span.  So the pivots made by the end of each level
are those of the whole system up to it, and no equation that restates a
forced zero reaches the elimination; ``hom_dim`` counts the pivots after
the last level.  For socle-graded m and n, D turns Hom(soc_j m, soc_l
n) into Hom_{A^op}(Dn/rad^l Dn, Dm/rad^j Dm): the transposed table of their
roots.

The Hom routes solve one system each.  Hom is additive, and the regular
module A (:func:`regular_module`, built from ``act`` like the P_i) is the
sum of the P_i, a coordinate's summand the source of its path.  So the
system of Hom_A(A, A) holds that of every pair (P_i, P_k) as a block, and
``regular_hom_table`` reads the table of every pair off its one
elimination (:func:`_level_tables`): :func:`_block_layout` numbers each
block as one range, degree by degree, so each entry is c_{j,l} minus the
pivots in a range, two ``bisect`` calls.  ``hom_dims_between_levels`` is
the case of one summand each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, gt, mul, sub
from typing import Collection, Iterable, Iterator, Sequence

from .exactlin import (
    FieldSpec,
    Matrix,
    RrefResult,
    _SparseEchelon,
    _sparse_transpose,
    _tag_order_basis,
    kernel_basis,
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
    vertices)`` means that this module is read through ``module``'s root
    (:func:`_root`), at ``vertices`` (1-based, one per vertex of this
    module's algebra).  ``injective`` and the modules of a component set it.
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
    its root is m's (``source``).
    """
    _, at = alg.component_of

    def pick(degrees):
        return None if degrees is None else tuple(degrees[v - 1] for v in at)

    maps = {a.name: m.arrow_maps[a.name] for a in alg.quiver.arrows}
    dims = tuple(m.dims[v - 1] for v in at)
    return Representation(alg, dims, maps, pick(m.radical_degrees), pick(m.socle_degrees), source=(m, at))


def _path_module(alg: AlgebraData, idxs: Iterable[int]) -> Representation:
    """The module on the residues of the basis paths ``idxs``, a set closed under ``act``, graded by length."""
    by_vertex: list[list[int]] = [[] for _ in range(alg.n)]
    for k in idxs:
        by_vertex[alg.basis[k].target - 1].append(k)
    pos = {k: slot for ks in by_vertex for slot, k in enumerate(ks)}
    dims = tuple(map(len, by_vertex))
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        rows: list[dict] = [{} for _ in range(dims[v - 1])]
        for col, k in enumerate(by_vertex[u - 1]):
            for idx, coeff in alg.act[a.name].get(k, ()):
                rows[pos[idx]][col] = coeff
        # act holds no zero coefficient, and a stored zero would break _check_invariant
        assert all(all(row.values()) for row in rows), f"a zero coefficient in act[{a.name!r}]"
        maps[a.name] = Matrix.from_sparse(alg.field, rows, dims[u - 1])
    degrees = tuple(tuple(alg.basis[k].length for k in ks) for ks in by_vertex)
    return Representation(alg, dims, maps, radical_degrees=degrees)


@memoized
def projective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable projective P_i: residues of basis paths with source i, graded by length.

    On a component of A it is A's P_i cut to the component (:func:`_cut`).
    """
    _check_vertex(alg, i)
    if alg.component_of is not None:
        whole, at = alg.component_of
        return _cut(projective(whole, at[i - 1]), alg)
    return _path_module(alg, alg.basis_indices_with_source(i))


@memoized
def regular_module(alg: AlgebraData) -> Representation:
    """A as a left module over itself, the sum of the P_i: residues of all basis paths, graded by length.

    On a component of A it is A's regular module cut to the component
    (:func:`_cut`): the paths that end in a component start in it.  With
    one vertex it is P_1, and the memoized P_1 serves.
    """
    if alg.component_of is not None:
        return _cut(regular_module(alg.component_of[0]), alg)
    if alg.n == 1:
        return projective(alg, 1)
    return _path_module(alg, range(alg.dim))


def _summands(alg: AlgebraData) -> Grading:
    """Per vertex, i - 1 for each coordinate of :func:`regular_module`, whose path lies in P_i: its source."""
    if alg.component_of is not None:
        whole, at = alg.component_of
        new = {w: v for v, w in enumerate(at)}
        outer = _summands(whole)
        return tuple(tuple(new[s + 1] for s in outer[w - 1]) for w in at)
    out: list[list[int]] = [[] for _ in range(alg.n)]
    for path in alg.basis:
        out[path.target - 1].append(path.source - 1)
    return tuple(map(tuple, out))


@memoized
def injective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable injective Q_i: transpose-dual of the opposite projective, socle-graded by it.

    Its root is the opposite projective (``source``).  On a
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

    m is checked by its root (:func:`_root`), which is radically graded:
    the coordinates of degree >= l must span a submodule for every l, so an
    arrow map entry M_a[r, k] may be nonzero only where deg r >= deg k.
    Under D a socle grading's condition, soc_l spanned by the coordinates of
    degree < l, is that one on the transposed maps.
    """
    root, _ = _root(m)
    if root is not m:
        return _check_invariant(root)
    degrees = m.radical_degrees
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        source_degrees = degrees[u - 1]
        for d, row in zip(degrees[v - 1], m.arrow_maps[a.name].sparse_rows()):
            if any(d < source_degrees[k] for k in row):
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
        width = keep[u - 1]
        rows = [{k: x for k, x in row.items() if k < width} for row in m.arrow_maps[a.name].sparse_rows()[: keep[v - 1]]]
        maps[a.name] = Matrix.from_sparse(m.field, rows, width)
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
    images: list[Matrix | None] = [None] * alg.n
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        src = spaces[u - 1]
        if src.rank == 0:
            continue
        image = src.reduced.matmul(m.arrow_maps[a.name].transpose())
        images[v - 1] = image if images[v - 1] is None else images[v - 1].stack(image)
    return tuple(
        _zero_space(m.field, d) if image is None else row_space_basis(image)
        for d, image in zip(m.dims, images)
    )


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


def _residual(space: RrefResult, vec: dict) -> dict:
    """The ``{coordinate: entry}`` vector ``vec`` minus vec[pivot_r] times RREF row r of ``space`` for every r.

    Row r is 1 at its own pivot column and 0 at the others, so the residual
    is zero at every pivot column.
    """
    acc = dict(vec)
    for pc, row in zip(space.pivot_cols, space.reduced.sparse_rows()):
        x = vec.get(pc)
        if x:
            for c, y in row.items():
                acc[c] = acc.get(c, 0) - x * y
    coerce = space.reduced.field.coerce
    return {c: v for c, x in acc.items() if (v := coerce(x))}


def quotient_representation(m: Representation, spaces: Subspaces) -> Representation:
    """Quotient by an invariant subspace, coordinates at non-pivot columns: the residuals of the maps' columns there."""
    alg = m.algebra
    npcols = [_nonpivot_cols(spaces[v], m.dims[v]) for v in range(alg.n)]
    dims = tuple(len(cols) for cols in npcols)
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        mat = m.arrow_maps[a.name]
        columns = _sparse_transpose(mat.sparse_rows(), mat.cols)
        slot = {c: t for t, c in enumerate(npcols[v - 1])}
        rows: list[dict] = [{} for _ in npcols[v - 1]]
        for s, c in enumerate(npcols[u - 1]):
            for t, x in _residual(spaces[v - 1], columns[c]).items():
                rows[slot[t]][s] = x
        maps[a.name] = Matrix.from_sparse(m.field, rows, dims[u - 1])
    return Representation(alg, dims, maps)


@memoized
def socle_chain(m: Representation) -> tuple[Subspaces, ...]:
    """(0 = soc_0 M, soc_1 M, ..., soc_K M = M) as echelonized subspaces.

    soc_{j+1} M is soc_j M plus the socle rows of M/soc_j M, lifted from its
    coordinates to the non-pivot columns of soc_j M.
    """
    chain = [tuple(_zero_space(m.field, d) for d in m.dims)]
    total = m.total_dim()
    while sum(s.rank for s in chain[-1]) < total:
        cur = chain[-1]
        soc_q = _socle_subspaces(quotient_representation(m, cur))
        new_spaces = []
        for v in range(m.algebra.n):
            npcols = _nonpivot_cols(cur[v], m.dims[v])
            socle_rows = soc_q[v].reduced.sparse_rows()[: soc_q[v].rank]
            lifted = [{npcols[t]: x for t, x in row.items()} for row in socle_rows]
            joined = Matrix.from_sparse(m.field, lifted, m.dims[v]).stack(cur[v].reduced)
            new_spaces.append(row_space_basis(joined))
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
def _pass_arrows(m: Representation) -> list[list[tuple[int, Sequence[dict]]]]:
    """Per vertex v, the pairs (t, maps) that a step of m's functional pass multiplies by; t is 0-based.

    These are the arrows a: v -> t, with the sparse rows of M_a, so a
    functional phi on M_t gives phi M_a.  A vertex with no coordinates gets
    none.
    """
    out: list[list[tuple[int, Sequence[dict]]]] = [[] for _ in m.dims]
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        if m.dims[u - 1]:
            out[u - 1].append((v - 1, m.arrow_maps[a.name].sparse_rows()))
    return out


@memoized
def _functional_pass(m: Representation) -> tuple[TaggedStep, ...]:
    """F_0, F_1, ..., F_J for a radically graded root m, each row tagged.

    F_0(v) holds the coordinate functionals e_r^* on M_v, e_r^* tagged
    deg(r) + 1.  F_j(v) is the tag-order basis
    (:func:`exactlin._tag_order_basis`) of the functionals phi M_a, for phi
    in F_{j-1}(t) over the arrows a: v -> t (:func:`_pass_arrows`), each
    tagged as its phi.  So the rows of F_j(v) of tag <= l span the
    functionals phi(p x) for the paths p of length j out of v and the phi
    that vanish in degree >= l.  These vanish off m/rad^l m, and their
    common kernel there is (soc_j(m/rad^l m))_v.  F_J is the first that
    vanishes everywhere; J <= LL(m).  Rows are ``{coordinate: coefficient}``
    dicts.  A product phi M is sum_k phi[k] M[k], left unreduced
    (``exactlin._tag_order_basis`` reads non-canonical coefficients), and an
    empty product is no basis row, so it is left out.
    """
    ll = loewy_length(m)
    funcs = tuple(([{r: 1} for r in range(len(ds))], tuple(d + 1 for d in ds)) for ds in m.radical_degrees)
    chain = [funcs]
    while any(tags for _, tags in funcs):
        if len(chain) > ll:
            raise RuntimeError("socle did not grow; representation is invalid")
        step = []
        for arrows in _pass_arrows(m):
            rows: list[dict] = []
            tags: list[int] = []
            for t, maps in arrows:
                for row, tag in zip(*funcs[t]):
                    acc: dict = {}
                    for k, x in row.items():
                        for c, y in maps[k].items():
                            acc[c] = acc.get(c, 0) + x * y
                    if acc:
                        rows.append(acc)
                        tags.append(tag)
            step.append(_tag_order_basis(rows, tags, m.field) if rows else ([], ()))
        funcs = tuple(step)
        chain.append(funcs)
    return tuple(chain)


def _dual(m: Representation) -> Representation:
    """D(m) = Hom_K(m, K) over A^op for a socle-graded m: its maps transposed, radically graded by its socle degrees.

    soc_j m = D(D(m)/rad^j D(m)), so the leading blocks of the two gradings
    correspond.
    """
    op = m.algebra.opposite()
    maps = {a.name: m.arrow_maps[a.name].transpose() for a in op.quiver.arrows}
    return Representation(op, m.dims, maps, radical_degrees=m.socle_degrees)


@memoized
def _root(m: Representation) -> tuple[Representation, tuple[int, ...]]:
    """(root, at): the radically graded module without a ``source`` whose functional pass m reads at vertices ``at``.

    A module with a ``source`` reads its source's root, at its own vertices
    composed through the source's.  A module without one is its own root,
    unless it is socle-graded: then its root is its dual :func:`_dual`, whose
    functional pass is m's radical pass step for step (a step multiplies by
    the rows of m's maps transposed).  So Q_i = D(P^op_i) reads P^op_i's
    pass, and a component's module A's pass at the component's vertices.
    """
    if m.source is not None:
        src, at = m.source
        root, inner = _root(src)
        return root, tuple(inner[v - 1] for v in at)
    everywhere = tuple(range(1, len(m.dims) + 1))
    return (m if m.socle_degrees is None else _dual(m)), everywhere


@memoized
def _level_series(m: Representation) -> tuple[SeriesProfile | None, ...]:
    """Entry l: the socle series of m/rad^l m, or the radical series of soc_l m, l = 0..LL.

    Read off the functional pass of m's root (:func:`_root`) as running
    totals: total t of level l is c_v minus the rows of tag <= l of step t
    at vertex v, for c_v the coordinates of degree < l, which step 0 holds
    exactly.  Those rows are functionals with common kernel
    soc_t(root/rad^l root).  Each count is a ``bisect_right`` on a step's
    sorted tags, and a level's series ends once it reaches c.  The leading
    block of level l is a module only if the grading is arrow-invariant
    (:func:`_check_invariant`).  Its functionals must vanish within its own
    Loewy length; where they do not, the grading misreads the block and its
    entry is None.  A module that is not its own root reads the root's
    totals at its vertices: the socle series of P^op_i/rad^l P^op_i and the
    radical series of soc_l Q_i, its dual, have the same running totals.
    """
    root, at = _root(m)
    if root is not m:
        return tuple(
            None if s is None else SeriesProfile(tuple(tuple(t[v - 1] for v in at) for t in s.totals))
            for s in _level_series(root)
        )
    _check_invariant(m)
    degrees = m.radical_degrees
    run = _functional_pass(m)
    out = []
    for l in range(_grading_length(degrees) + 1):
        block = _below(degrees, l)
        totals = []
        for step in run:
            totals.append(tuple(c - bisect_right(tags, l) for c, (_, tags) in zip(block, step)))
            if totals[-1] == block:
                break
        top = _grading_length(tuple(d[:c] for d, c in zip(degrees, block)))
        out.append(None if len(totals) > top + 1 else SeriesProfile(tuple(totals)))
    return tuple(out)


def series_by_level(m: Representation) -> tuple[SeriesProfile, ...]:
    """Entry l: the socle series of m/rad^l m under a radical grading, or the radical series of soc_l m under a socle one.

    l runs over 0..LL(m), so entry LL(m) is m's own series.  One tagged
    pass of m's root gives every level (:func:`_level_series`).
    """
    levels = _level_series(m)
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

    The functional pass of m's root (:func:`_root`) is checked against the
    root's grading (:func:`_rigidity`): its functionals F_j have common
    kernel soc_j, and the c_v coordinates of degree < L-j span rad^{L-j} at
    vertex v, so step j must have c_v rows (equal dimensions) and no entry
    from column c_v on (containment, which holds in every module: its
    failure is a bug, raised under m's own grading, which D turns around
    for a socle-graded m).
    """
    radical = m.radical_degrees is not None
    if not radical and m.socle_degrees is None:
        raise ValueError("is_rigid needs a graded module")
    verdict = _rigidity(m)
    if isinstance(verdict, bool):
        return verdict
    j, v = verdict
    ll = loewy_length(m)
    rad, soc = (ll - j, j) if radical else (j, ll - j)
    raise RuntimeError(f"rad^{rad} not contained in soc_{soc} at vertex {v}")


@memoized
def _rigidity(m: Representation) -> bool | tuple[int, int]:
    """:func:`is_rigid`'s verdict on a graded m, or (j, v) where step j of its pass leaves the block at vertex v.

    A module that is not its own root takes its root's verdict, with a
    failing vertex renumbered through the ``at`` vertices: it reads the
    root's pass there, the root is zero at every other vertex, and their
    degrees agree (the socle degrees of Q_i are the radical degrees of
    P^op_i, and a cut keeps its module's degrees).
    """
    root, at = _root(m)
    if root is not m:
        verdict = _rigidity(root)
        return verdict if isinstance(verdict, bool) else (verdict[0], at.index(verdict[1]) + 1)
    degrees = m.radical_degrees
    chain = _functional_pass(m)
    ll = _grading_length(degrees)
    if len(chain) - 1 != ll:
        return False
    for j, step in enumerate(chain):
        for v, ((rows, _), c) in enumerate(zip(step, _below(degrees, ll - j))):
            if len(rows) != c:
                return False
            if any(max(row) >= c for row in rows):
                return j, v + 1
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
def _sparse_columns(m: Representation, arrow: str) -> tuple[list[list[tuple]], list[int], list[list[tuple]]]:
    """(columns, singles, wide): the nonzero entries (row, entry) of each column of M_a.

    ``singles`` holds the row of each column with one entry and ``wide``
    the columns with more, in column order.
    """
    mat = m.arrow_maps[arrow]
    columns = [list(col.items()) for col in _sparse_transpose(mat.sparse_rows(), mat.cols)]
    return columns, [col[0][0] for col in columns if len(col) == 1], [col for col in columns if len(col) > 1]


@memoized
def _negated_sparse_rows(m: Representation, arrow: str) -> list[dict]:
    """The nonzero entries of each row of -M_a, canonical, as ``{column: entry}``."""
    p = m.field.p
    return [{c: -x % p if p else -x for c, x in row.items()} for row in m.arrow_maps[arrow].sparse_rows()]


@memoized
def _degree_order(m: Representation) -> list[tuple[int, int]]:
    """The coordinates (v, g) of a radically graded module, sorted by (degree, vertex, index)."""
    degrees = m.radical_degrees
    return [(v, g) for _, v, g in sorted((d, v, g) for v, ds in enumerate(degrees) for g, d in enumerate(ds))]


def _one_summand(m: Representation) -> Grading:
    return tuple((0,) * d for d in m.dims)


Summands = tuple[Grading, Grading]


def _block_layout(m: Representation, n: Representation, summands: Summands):
    """(row_at, col_at, width, stride): the unknowns f_v[r, k] numbered by degree, one range per block.

    ``summands`` gives, per vertex, the summand of each coordinate of m and
    of n (:func:`_level_tables`).  Coordinate k of summand b of m owns a
    slot of ``width[v]`` unknowns, the most coordinates one summand of n has
    at v, and the slots of b follow :func:`_degree_order`.  For r the t-th
    coordinate of summand c of n at v, f_v[r, k] is numbered (b * C + c) *
    stride + (start of k's slot) + t, for C summands of n and ``stride`` the
    slots of the largest summand of m.  So the unknowns of block (b, c) lie
    in one range, and those with deg k < j come first, for every j.  With
    one summand each a slot is dim N_v wide and there is no gap.
    """
    m_of, n_of = summands
    count = max((max(of) + 1 for of in n_of if of), default=1)
    row_at, width = [], []
    for of in n_of:
        seen = [0] * count
        at = []
        for c in of:
            at.append(seen[c])
            seen[c] += 1
        row_at.append(at)
        width.append(max(seen))
    col_at = [[0] * d for d in m.dims]
    fill = [0] * max((max(of) + 1 for of in m_of if of), default=1)
    for v, g in _degree_order(m):
        b = m_of[v][g]
        col_at[v][g] = fill[b]
        fill[b] += width[v]
    stride = max(fill)
    for at, of in zip(col_at, m_of):
        at[:] = [x + b * count * stride for x, b in zip(at, of)]
    for at, of in zip(row_at, n_of):
        at[:] = [x + c * stride for x, c in zip(at, of)]
    return row_at, col_at, width, stride


def _numbering(m: Representation, n: Representation):
    """(row_at, col_at): unknown f_v[r, k] is numbered row_at[v][r] + col_at[v][k], row-major, vertex by vertex."""
    row_at, pos = [], 0
    for d, w in zip(n.dims, m.dims):
        row_at.append([pos + r * w for r in range(d)])
        pos += d * w
    return row_at, [list(range(d)) for d in m.dims]


@memoized
def _level_rows(n: Representation) -> tuple[tuple[tuple[str, list[tuple[int, dict]]], ...], ...]:
    """Per level of n, the pairs (a, rows) over the arrows a: u -> v in order, where rows lists (r, row r of -N_a).

    The levels are n's radical degrees, and one level holds every row if n
    has no radical grading.  The rows listed have coordinate r of N_v at
    that degree, and an arrow with none is left out.
    """
    q, degrees = n.algebra.quiver, n.radical_degrees
    levels: list[list] = [[] for _ in range(max(_grading_length(degrees or ()), 1))]
    for a in q.arrows:
        rows = list(enumerate(_negated_sparse_rows(n, a.name)))
        at = degrees[q.arrow_endpoints(a.name)[1] - 1] if degrees else [0] * len(rows)
        for l, level in enumerate(levels):
            lo, hi = bisect_left(at, l), bisect_left(at, l + 1)
            if lo < hi:
                level.append((a.name, rows[lo:hi]))
    return tuple(map(tuple, levels))


def _intertwiner_levels(
    m: Representation,
    n: Representation,
    settled: Collection[int] = frozenset(),
    numbering: tuple[list[list[int]], list[list[int]]] | None = None,
) -> Iterator[tuple[list[int], list[dict]]]:
    """The intertwiner equations of Hom(m, n), one pair (units, equations) per level of n, built level by level.

    Unknowns are the entries of f_v: M_v -> N_v, numbered by
    ``numbering`` (row_at, col_at), by default row-major and concatenated
    over vertices (:func:`_numbering`); each arrow a: u -> v contributes the
    block of equations f_v M_a - N_a f_u = 0, equation (r, c) on row
    r * dim M_u + c.  An equation is read off the nonzero entries alone:
    f_v[r, k] meets M_a[k, c] for the nonzeros of column c of M_a, and
    f_u[k, c] meets -N_a[r, k] for the nonzeros of row r of N_a.  A loop
    (u = v) adds both parts into the same key, and a key whose sum is zero
    is dropped.  An equation left with one entry forces its unknown to zero,
    whatever the coefficient, and ``units`` lists that unknown; every other
    one is a ``{unknown: coefficient}`` dict of nonzero canonical
    coefficients in ``equations``, and one with no entry is not emitted.

    Level l holds the equations (r, c) whose coordinate r of n has radical
    degree l (:func:`_level_rows`); if n has no radical grading one level
    holds them all.  Within a level both lists keep arrow order, then r,
    then c.  A level is built once the one before it has been consumed, and
    the unknowns then in ``settled`` are left out of it.  Only the -N_a f_u
    part can meet one: N_a[r, k] is nonzero only where deg k <= deg r, while
    f_v[r, k] appears in no level below that of r.
    """
    q = m.algebra.quiver
    p = m.field.p
    row_at, col_at = numbering or _numbering(m, n)
    blocks = {}
    for a in q.arrows:
        u, v = q.arrow_endpoints(a.name)
        if n.dims[v - 1] * m.dims[u - 1]:
            at = (row_at[v - 1], row_at[u - 1], col_at[v - 1], col_at[u - 1], u == v)
            blocks[a.name] = (*at, *_sparse_columns(m, a.name))
    for level_rows in _level_rows(n):
        units: list[int] = []
        level: list[dict] = []
        for arrow, rows in level_rows:
            block = blocks.get(arrow)
            if block is None:
                continue
            row_v, row_u, col_v, col_u, loop, columns, singles, wide = block
            for r, n_row in rows:
                left = row_v[r]
                if not n_row:  # row r of N_a is zero: equation (r, c) is f_v M_a's part alone
                    units += [left + col_v[k] for k in singles]
                    level += [{left + col_v[k]: x for k, x in col} for col in wide]
                    continue
                right = [(row_u[k], x) for k, x in n_row.items()]
                for shift, col in zip(col_u, columns):
                    if not col and len(right) == 1:
                        units.append(right[0][0] + shift)
                        continue
                    eq = {left + col_v[k]: x for k, x in col}
                    for start, x in right:
                        key = start + shift
                        if key in settled:
                            continue
                        if loop and key in eq:
                            x = (eq[key] + x) % p if p else eq[key] + x
                            if not x:
                                del eq[key]
                                continue
                        eq[key] = x
                    if len(eq) > 1:
                        level.append(eq)
                    elif eq:  # a loop sum or the settled unknowns left one entry
                        units += eq
        yield units, level


def _hom_profile(
    m: Representation,
    n: Representation,
    numbering: tuple[list[list[int]], list[list[int]]] | None = None,
) -> tuple[list[int], list[int]]:
    """(leads, ends): the pivot columns of the intertwiner equations in the order they were made, and how many were made by the end of each level of n.

    The one kernel of the Hom route.  The levels of
    :func:`_intertwiner_levels` stream into one ``exactlin._SparseEchelon``,
    each level's one-entry equations first, as unit rows.  The echelon
    records the unknowns they settle, whose unit rows lie in the span, and
    every equation built or read after that leaves them out
    (:func:`_unsettled`), so no one-entry row restates a forced zero.  That
    changes no span, and the pivot columns of a span do not depend on the
    order of its rows, so ``leads[:ends[l]]`` are the pivot columns of the
    unpruned equations of level <= l.  The rank of those equations on the
    first c unknowns alone is the number of them below c: the rank profile
    (Dumas, Pernet and Sultan, "Fast computation of the rank profile matrix
    and the generalized Bruhat decomposition", 2017).
    """
    echelon = _SparseEchelon(m.field)
    settled = echelon.settled
    ends = []
    for units, equations in _intertwiner_levels(m, n, settled, numbering):
        echelon.extend(_unsettled(units, equations, settled))
        ends.append(len(echelon.leads))
    return echelon.leads, ends


def _unsettled(units: list[int], rows: list[dict], settled: set[int]) -> Iterator[dict]:
    """The unit rows of ``units``, then ``rows``, without the columns in ``settled`` as each row is reached.

    A row left empty is skipped.
    """
    for c in units:
        if c not in settled:
            yield {c: 1}
    for row in rows:
        if not settled.isdisjoint(row):
            row = {c: x for c, x in row.items() if c not in settled}
            if not row:
                continue
        yield row


def _same_algebra(m: Representation, n: Representation) -> None:
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise AlgebraMismatchError("modules live over different algebras")


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of Hom_A(m, n): unknowns minus the rank of the intertwiner system."""
    _same_algebra(m, n)
    if _support(m).isdisjoint(_support(n)):
        return 0
    unknowns = sum(map(mul, n.dims, m.dims))
    return unknowns - len(_hom_profile(m, n)[0])


def _summand_widths(degrees: Grading, summands: Grading) -> list[list[tuple[int, ...]]]:
    """Entry [b][j - 1]: the coordinates of summand b of degree < j at each vertex, j = 1..LL of summand b."""
    split: dict[int, list[list[int]]] = {}
    for v, (ds, of) in enumerate(zip(degrees, summands)):
        for d, b in zip(ds, of):
            split.setdefault(b, [[] for _ in degrees])[v].append(d)
    return [[_below(sub, j) for j in range(1, _grading_length(sub) + 1)] for _, sub in sorted(split.items())]


def _level_tables(m: Representation, n: Representation, summands: Summands) -> tuple[tuple[int, ...], ...]:
    """Row (b, j), column (c, l): dim Hom(m_b/rad^j m_b, n_c/rad^l n_c), for radically graded m and n, by one elimination.

    The summands m_b of m and n_c of n are direct summands spanned by
    coordinates: ``summands`` gives, per vertex, the summand of each
    coordinate of m and of n, numbered 0, 1, ... with every number in use,
    and each summand keeps its grading.  Hom is additive, so the intertwiner system of Hom(m, n) is
    the direct sum of those of the Hom(m_b, n_c): f_v[r, k] lies in the
    block of the summands of k and r.  Rows run over b and then j =
    1..LL(m_b), columns over c and then l = 1..LL(n_c); with one summand
    each this is the table of :func:`hom_dims_between_levels`.

    :func:`_block_layout` numbers each block as one range, the unknowns with
    deg k < j first.  The equations of level < l of a block, restricted to
    its unknowns with deg k < j, are the system of Hom(m_b/rad^j m_b,
    n_c/rad^l n_c).  So the entry is c_{j,l}, the unknowns of the block
    with deg k < j and deg r < l, minus the pivots made by the end of level
    l - 1 in the block's first such range (:func:`_hom_profile`).
    """
    m_of, n_of = summands
    widths_m = _summand_widths(m.radical_degrees, m_of)
    widths_n = widths_m if n is m and n_of is m_of else _summand_widths(n.radical_degrees, n_of)
    row_at, col_at, width, stride = _block_layout(m, n, summands)
    leads, ends = _hom_profile(m, n, (row_at, col_at))
    profile, ascending = [], []
    for lo, hi in zip([0, *ends], ends):
        # a sorted run and the new leads: sort merges the run in linear time
        ascending = ascending + leads[lo:hi]
        ascending.sort()
        profile.append(ascending)
    # per column (c, l): the pivots of the equations of level < l, the first
    # unknown of block (0, c), and at each vertex the width of n_c/rad^l n_c
    pivots = [profile[l] for wn in widths_n for l in range(len(wn))]
    firsts = [c * stride for c, wn in enumerate(widths_n) for _ in wn]
    at_vertex = list(zip(*(w for wn in widths_n for w in wn)))
    table = []
    for b, ws in enumerate(widths_m):
        starts = [x + b * len(widths_n) * stride for x in firsts]
        # base: c_{j,l} plus the pivots below the block; the entry is base
        # minus the pivots below the block's unknowns with deg k >= j
        base = list(map(bisect_left, pivots, starts))
        before = (0,) * len(width)
        for wm in ws:
            # from j - 1 to j, c_{j,l} gains the coordinates of m_b of degree j - 1
            for grown, column in zip(map(sub, wm, before), at_vertex):
                if grown:
                    base = list(map(add, base, map(mul, column, repeat(grown))))
            before = wm
            span = sum(map(mul, wm, width))
            table.append(tuple(map(sub, base, map(bisect_left, pivots, [x + span for x in starts]))))
    return tuple(table)


def hom_dims_between_levels(m: Representation, n: Representation) -> tuple[tuple[int, ...], ...]:
    """Entry [j - 1][l - 1]: dim Hom(m/rad^j m, n/rad^l n), or dim Hom(soc_j m, soc_l n), by one elimination.

    j runs over 1..LL(m) and l over 1..LL(n).  Both modules must be
    radically graded (the first family) or both socle-graded (the second),
    with arrow-invariant gradings (:func:`_check_invariant`).

    Under radical gradings the unknowns f_v[r, k] are numbered by the degree
    of k in m and the equations (r, c) come level by level, the level the
    degree of r in n (:func:`_hom_profile`).  Since rad^l n is a submodule,
    an equation with deg r < l meets only unknowns with deg r < l; those
    equations, restricted to the unknowns with deg k < j, are the system of
    Hom(m/rad^j m, n/rad^l n).  So its dimension is c_{j,l}, the unknowns
    with deg k < j and deg r < l, minus the pivots with deg k < j of the
    equations of level < l: the one-summand case of :func:`_level_tables`.

    Under socle gradings D = Hom_K(-, K) gives Hom(soc_j m, soc_l n) =
    Hom_{A^op}(Dn/rad^l Dn, Dm/rad^j Dm), so the table is the transpose of
    the one between the roots (:func:`_root`) of n and m.  A component's
    module has A's root; against a module with a root of its own over the
    component's opposite, both read their duals (:func:`_dual`) instead.
    """
    _same_algebra(m, n)
    if m.socle_degrees is not None and n.socle_degrees is not None:
        _check_invariant(m)
        _check_invariant(n)
        dm, dn = _root(m)[0], _root(n)[0]
        if dm.algebra is not dn.algebra:
            dm, dn = _dual(m), _dual(n)
        table = hom_dims_between_levels(dn, dm)
        return tuple(tuple(row[j] for row in table) for j in range(loewy_length(m)))
    if m.radical_degrees is None or n.radical_degrees is None:
        raise ValueError("hom_dims_between_levels needs two radically graded or two socle-graded modules")
    _check_invariant(m)
    _check_invariant(n)
    if _support(m).isdisjoint(_support(n)):
        return tuple((0,) * loewy_length(n) for _ in range(loewy_length(m)))
    return _level_tables(m, n, (_one_summand(m), _one_summand(n)))


def regular_hom_table(alg: AlgebraData) -> tuple[tuple[int, ...], ...]:
    """Row (i, j), column (k, l): dim Hom_A(P_i/rad^j P_i, P_k/rad^l P_k), every entry read off one system.

    i and k run over the vertices, j over 1..LL(P_i) and l over 1..LL(P_k).
    A = sum of the P_i (:func:`regular_module`), a coordinate's summand the
    source of its path (:func:`_summands`), so the intertwiner system of
    Hom_A(A, A) holds that of every pair (P_i, P_k) as a block, and
    :func:`_level_tables` reads every block off its one elimination.
    """
    a = regular_module(alg)
    _check_invariant(a)
    summands = _summands(alg)
    return _level_tables(a, a, (summands, summands))


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

