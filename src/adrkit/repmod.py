"""Finite-dimensional left modules as quiver representations.

A representation assigns a vector space to each vertex and a matrix to each
arrow (shape dims[target] x dims[source], acting on column vectors).  All
submodule / quotient constructions pick echelonized coordinate bases, so
repeated runs are bit-identical.

The projectives and injectives come with a grading of their coordinates by
the path basis, and their radical and socle filtrations are read off it.  A
reduction in the relation ideal only ever lands on basis paths of equal or
higher degree, and an arrow raises the degree, so rad^l P_i is spanned by the
coordinates of P_i of degree >= l.  Q_i is the transpose of the opposite
P_i, so soc_j Q_i is spanned by its coordinates whose opposite degree is < j.
The truncations P_i/rad^l P_i and the socle submodules soc_j Q_i are then the
leading coordinates of each vertex, and keep the grading.  The socle series
of a radically graded module, P_i or a truncation, comes from one functional
pass over its own arrow maps (:func:`_socle_functionals`), with no quotient
module.  The same pass, or the general radical chain under a socle grading,
is the elimination chain that ``is_rigid`` checks against the grading.

The library functions read the grading they need and raise ``ValueError``
without it: ``truncate`` needs a radical grading, ``socle_sub`` a socle
grading, and ``socle_series`` and ``is_rigid`` a grading of either kind.
``simple`` is radically graded, with degree 0 at its vertex.
``radical_chain``, ``radical_series``, ``loewy_length`` and ``hom_dim`` take
any module: the radical series of Q_i and of soc_j Q_i go through the
general radical chain.  The general socle chain (``socle_chain``, with
``quotient_representation``) serves as the reference the tests compare the
read-offs against; no report calls it.

For j >= LL(M), M/rad^j M = M and soc_j M = M, so truncating at or beyond the
Loewy length, or taking the socle submodule there, returns the module itself.
``truncate``, ``socle_sub`` and ``socle_series`` are memoized on their module,
so every derived module is built once and its chains are computed once.  The
Hom route memoizes on each module its support and the sparse columns and
negated sparse rows of its arrow maps, so a module's arrow data is read once
however many Hom systems it enters; ``hom_dim`` itself is not memoized.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .exactlin import (
    FieldSpec,
    Matrix,
    RrefResult,
    _matmul_array,
    _rref_array,
    _sparse_rank,
    _sparse_rows,
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

    def __add__(self, other: "CompositionVector") -> "CompositionVector":
        return CompositionVector(tuple(a + b for a, b in zip(self.mult, other.mult)))

    def total(self) -> int:
        return sum(self.mult)


@dataclass(frozen=True)
class SeriesProfile:
    """Layer-by-layer composition vectors of a radical or socle filtration."""

    layers: tuple[CompositionVector, ...]

    def total(self) -> CompositionVector:
        n = len(self.layers[0].mult) if self.layers else 0
        acc = tuple(sum(layer.mult[i] for layer in self.layers) for i in range(n))
        return CompositionVector(acc)

    def __len__(self) -> int:
        return len(self.layers)


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
    """

    algebra: AlgebraData
    dims: tuple[int, ...]
    arrow_maps: dict[str, Matrix]
    radical_degrees: Grading | None = field(default=None, repr=False, compare=False)
    socle_degrees: Grading | None = field(default=None, repr=False, compare=False)
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


@memoized
def projective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable projective P_i: residues of basis paths with source i, graded by length."""
    if not 1 <= i <= alg.n:
        raise ValueError(f"vertex index {i} out of range 1..{alg.n}")
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
    """Indecomposable injective Q_i: transpose-dual of the opposite projective, socle-graded by it."""
    p_op = projective(alg.opposite(), i)
    maps = {a.name: p_op.arrow_maps[a.name].transpose() for a in alg.quiver.arrows}
    return Representation(alg, p_op.dims, maps, socle_degrees=p_op.radical_degrees)


def _below(degrees: Grading, l: int) -> tuple[int, ...]:
    """Number of coordinates of degree < l at each vertex."""
    return tuple(bisect_left(d, l) for d in degrees)


def _grading_length(degrees: Grading) -> int:
    """Number of degrees in use: the Loewy length of a graded module."""
    return max((d[-1] + 1 for d in degrees if d), default=0)


def _leading_block(m: Representation, l: int) -> Representation:
    """The coordinates of degree < l: m/rad^l m under a radical grading, soc_l m under a socle one.

    The dropped coordinates must span a submodule (radical grading), or the
    kept ones must (socle grading); the block of each arrow map that would
    break this is checked to be zero.
    """
    radical = m.radical_degrees is not None
    degrees = m.radical_degrees if radical else m.socle_degrees
    keep = _below(degrees, l)
    maps = {}
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        arr = m.arrow_maps[a.name].array()
        cu, cv = keep[u - 1], keep[v - 1]
        if (arr[:cv, cu:] if radical else arr[cv:, :cu]).any():
            raise ValueError("subspaces are not arrow-invariant")
        maps[a.name] = Matrix(m.field, arr[:cv, :cu])
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


def _quotient_layers(pairs) -> SeriesProfile:
    """Composition vectors big - small for each (big, small) pair of per-vertex dimensions."""
    return SeriesProfile(
        tuple(
            CompositionVector(tuple(b - s for b, s in zip(big, small)))
            for big, small in pairs
        )
    )


def _chain_dims(chain) -> list[tuple[int, ...]]:
    return [tuple(s.rank for s in spaces) for spaces in chain]


def _degree_profile(degrees: Grading) -> SeriesProfile:
    """Layer l holds the coordinates of degree l."""
    dims = [_below(degrees, l) for l in range(_grading_length(degrees) + 1)]
    return _quotient_layers(zip(dims[1:], dims))


@memoized
def _socle_functionals(m: Representation) -> tuple[tuple[np.ndarray, ...], ...]:
    """F_0, F_1, ..., F_J for a radically graded m.

    F_0(v) holds every functional on M_v, and F_j(v) is an echelon basis of
    the row space of F_{j-1}(t) M_a, stacked over the arrows a: v -> t.  So
    F_j(v) spans the functionals phi(p x) for the paths p of length j out of
    v, whose common kernel is (soc_j m)_v, of dimension dim M_v - rank F_j(v).
    F_J is the first that vanishes everywhere; J <= LL(m).
    """
    fld = m.field
    ll = loewy_length(m)
    outgoing: list[list[tuple[int, np.ndarray]]] = [[] for _ in m.dims]
    for a in m.algebra.quiver.arrows:
        u, t = m.algebra.quiver.arrow_endpoints(a.name)
        outgoing[u - 1].append((t - 1, m.arrow_maps[a.name].array()))
    funcs = tuple(_full_space(fld, d).reduced.array() for d in m.dims)
    chain = [funcs]
    while any(len(f) for f in funcs):
        if len(chain) > ll:
            raise RuntimeError("socle did not grow; representation is invalid")
        nxt = []
        for v, c in enumerate(m.dims):
            blocks = [
                _matmul_array(funcs[t], arr, fld)
                for t, arr in outgoing[v]
                if len(funcs[t]) and c
            ]
            if blocks:
                red, pivots = _rref_array(np.vstack(blocks), fld)
                nxt.append(red[: len(pivots)])
            else:
                nxt.append(fld.zeros((0, c)))
        funcs = tuple(nxt)
        chain.append(funcs)
    return tuple(chain)


def _functional_profile(chain) -> SeriesProfile:
    """Socle series from F_0..F_J: soc_j has dimension c_v - rank F_j(v) at v."""
    keep = [len(f) for f in chain[0]]
    socs = [tuple(c - len(f) for c, f in zip(keep, funcs)) for funcs in chain]
    return _quotient_layers(zip(socs[1:], socs))


@memoized
def socle_series(m: Representation) -> SeriesProfile:
    """Socle layers soc_j/soc_{j-1}, bottom-up; m must be graded."""
    if m.socle_degrees is not None:
        return _degree_profile(m.socle_degrees)
    if m.radical_degrees is not None:
        return _functional_profile(_socle_functionals(m))
    raise ValueError("socle_series needs a graded module")


def radical_series(m: Representation) -> SeriesProfile:
    """Radical layers M/rad M, rad M/rad^2 M, ..., top-down."""
    if m.radical_degrees is not None:
        return _degree_profile(m.radical_degrees)
    dims = _chain_dims(radical_chain(m))
    return _quotient_layers(zip(dims, dims[1:]))


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

    One elimination chain is checked against the grading: under a radical
    grading the functionals F_j (:func:`_socle_functionals`), with common
    kernel soc_j M, under a socle grading the radical chain rad^j M.  The
    c_v coordinates of degree < L-j span the other side at vertex v, so step
    j must have c_v rows (equal dimensions) and no entry from column c_v on
    (containment, which holds in every module: its failure is a bug).
    """
    radical = m.radical_degrees is not None
    if radical:
        degrees, chain = m.radical_degrees, _socle_functionals(m)
    elif m.socle_degrees is not None:
        degrees = m.socle_degrees
        chain = [tuple(s.reduced.array() for s in spaces) for spaces in radical_chain(m)]
    else:
        raise ValueError("is_rigid needs a graded module")
    ll = _grading_length(degrees)
    if len(chain) - 1 != ll:
        return False
    for j, step in enumerate(chain):
        for v, (rows, c) in enumerate(zip(step, _below(degrees, ll - j))):
            if len(rows) != c:
                return False
            if rows[:, c:].any():
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


def _hom_constraints(m: Representation, n: Representation) -> tuple[list[dict], int]:
    """Sparse rows of the intertwiner system, and the number of unknowns.

    Unknowns are the entries of f_v: M_v -> N_v, row-major, concatenated over
    vertices; each arrow a: u -> v contributes the block of equations
    f_v M_a - N_a f_u = 0, equation (r, c) on row r * dim M_u + c.  Each
    equation is a ``{unknown: coefficient}`` dict of canonical coefficients,
    read off the nonzero entries alone: f_v[r, k] meets M_a[k, c] for the
    nonzeros of column c of M_a, and f_u[k, c] meets -N_a[r, k] for the
    nonzeros of row r of N_a.  A loop (u = v) adds both parts into the same
    key, which may leave an explicit zero.
    """
    q = m.algebra.quiver
    p = m.field.p
    offsets = [0]
    for nd, md in zip(n.dims, m.dims):
        offsets.append(offsets[-1] + nd * md)
    rows: list[dict] = []
    for a in q.arrows:
        u, v = q.arrow_endpoints(a.name)
        nv, mv, mu = n.dims[v - 1], m.dims[v - 1], m.dims[u - 1]
        if not nv * mu:
            continue
        m_cols = _sparse_columns(m, a.name)
        n_rows = _negated_sparse_rows(n, a.name)
        for r in range(nv):
            left = offsets[v - 1] + r * mv
            right = [(offsets[u - 1] + k * mu, x) for k, x in n_rows[r].items()]
            for c in range(mu):
                eq = {left + k: x for k, x in m_cols[c].items()}
                for start, x in right:
                    key = start + c
                    if key in eq:  # only on a loop
                        eq[key] = (eq[key] + x) % p if p else eq[key] + x
                    else:
                        eq[key] = x
                rows.append(eq)
    return rows, offsets[-1]


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of Hom_A(m, n): unknowns minus the rank of the intertwiner system."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise AlgebraMismatchError("modules live over different algebras")
    if _support(m).isdisjoint(_support(n)):
        return 0
    rows, unknowns = _hom_constraints(m, n)
    return unknowns - _sparse_rank(rows, unknowns, m.field)


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

