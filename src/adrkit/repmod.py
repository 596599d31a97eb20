"""Finite-dimensional left modules as quiver representations.

A representation assigns a vector space to each vertex and a matrix to each
arrow (shape dims[target] x dims[source], acting on column vectors).  All
submodule / quotient constructions pick echelonized coordinate bases, so
repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactlin import (
    FieldSpec,
    Matrix,
    RrefResult,
    _rank_array,
    coordinates_in_row_space,
    in_row_space,
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


@dataclass(frozen=True)
class Representation:
    algebra: AlgebraData
    dims: tuple[int, ...]
    arrow_maps: dict[str, Matrix]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim() == 0


def _zero_arr(field: FieldSpec, shape: tuple[int, int]) -> np.ndarray:
    if field.is_prime_field:
        return np.zeros(shape, dtype=np.int64)
    a = np.empty(shape, dtype=object)
    a[...] = Fraction(0)
    return a


def _full_space(field: FieldSpec, dim: int) -> RrefResult:
    return RrefResult(Matrix.identity(field, dim), dim, tuple(range(dim)))


def _zero_space(field: FieldSpec, dim: int) -> RrefResult:
    return RrefResult(Matrix.zeros(field, 0, dim), 0, ())


Subspaces = tuple[RrefResult, ...]


def simple(alg: AlgebraData, i: int) -> Representation:
    dims = tuple(1 if v == i else 0 for v in range(1, alg.n + 1))
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        maps[a.name] = Matrix.zeros(alg.field, dims[v - 1], dims[u - 1])
    return Representation(alg, dims, maps)


@memoized
def projective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable projective P_i: residues of basis paths with source i."""
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
        arr = _zero_arr(alg.field, (dims[v - 1], dims[u - 1]))
        for col, k in enumerate(by_vertex[u - 1]):
            for idx, coeff in alg.act[a.name].get(k, ()):
                _, row = pos[idx]
                arr[row, col] = coeff
        maps[a.name] = Matrix(alg.field, arr)
    return Representation(alg, dims, maps)


@memoized
def injective(alg: AlgebraData, i: int) -> Representation:
    """Indecomposable injective Q_i: transpose-dual of the opposite projective."""
    p_op = projective(alg.opposite(), i)
    maps = {a.name: p_op.arrow_maps[a.name].transpose() for a in alg.quiver.arrows}
    return Representation(alg, p_op.dims, maps)


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


def sub_representation(m: Representation, spaces: Subspaces) -> Representation:
    """Submodule on the given invariant subspaces, in their echelon bases."""
    alg = m.algebra
    dims = tuple(s.rank for s in spaces)
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        src, tgt = spaces[u - 1], spaces[v - 1]
        arr = _zero_arr(m.field, (dims[v - 1], dims[u - 1]))
        if src.rank and m.dims[v - 1]:
            image = src.reduced.matmul(m.arrow_maps[a.name].transpose())
            for r in range(src.rank):
                vec = image.array()[r]
                if not in_row_space(tgt, vec):
                    raise ValueError("subspaces are not arrow-invariant")
                arr[:, r] = coordinates_in_row_space(tgt, vec)
        maps[a.name] = Matrix(m.field, arr)
    return Representation(alg, dims, maps)


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
        arr = _zero_arr(m.field, (dims[v - 1], dims[u - 1]))
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
            lifted = _zero_arr(m.field, (soc_q[v].rank, m.dims[v]))
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
    """Composition vectors of big/small for each (big, small) pair of nested subspaces."""
    return SeriesProfile(
        tuple(
            CompositionVector(tuple(b.rank - s.rank for b, s in zip(big, small)))
            for big, small in pairs
        )
    )


def socle_series(m: Representation) -> SeriesProfile:
    """Socle layers soc_j/soc_{j-1}, bottom-up."""
    chain = socle_chain(m)
    return _quotient_layers(zip(chain[1:], chain))


def radical_series(m: Representation) -> SeriesProfile:
    """Radical layers M/rad M, rad M/rad^2 M, ..., top-down."""
    chain = radical_chain(m)
    return _quotient_layers(zip(chain, chain[1:]))


def loewy_length(m: Representation) -> int:
    return len(radical_chain(m)) - 1


def is_uniserial(m: Representation) -> bool:
    """True iff every radical layer is a single simple."""
    return all(layer.total() == 1 for layer in radical_series(m).layers)


def is_rigid(m: Representation) -> bool:
    """True iff rad^j M = soc_{L-j} M for every j.

    Tested as per-vertex dimension equality plus the containment
    rad^j M <= soc_{L-j} M (which must hold regardless; its failure would be
    a bug, not non-rigidity).
    """
    rc = radical_chain(m)
    sc = socle_chain(m)
    ll = len(rc) - 1
    if len(sc) - 1 != ll:
        return False
    for j in range(ll + 1):
        rad_j = rc[j]
        soc_lj = sc[ll - j]
        for v in range(m.algebra.n):
            if rad_j[v].rank != soc_lj[v].rank:
                return False
            for r in range(rad_j[v].rank):
                if not in_row_space(soc_lj[v], rad_j[v].reduced.array()[r].copy()):
                    raise RuntimeError(
                        f"rad^{j} not contained in soc_{ll - j} at vertex {v + 1}"
                    )
    return True


def truncate(m: Representation, j: int) -> Representation:
    """M / rad^j M."""
    if j < 1:
        raise ValueError("truncation index must be >= 1")
    rc = radical_chain(m)
    return quotient_representation(m, rc[min(j, len(rc) - 1)])


def socle_sub(m: Representation, j: int) -> Representation:
    """soc_j M as a representation."""
    if j < 1:
        raise ValueError("socle index must be >= 1")
    sc = socle_chain(m)
    return sub_representation(m, sc[min(j, len(sc) - 1)])


def _hom_constraints(m: Representation, n: Representation) -> np.ndarray:
    """Canonical coefficient array of the intertwiner system.

    Unknowns are the entries of f_v: M_v -> N_v, row-major, concatenated over
    vertices; each arrow a: u -> v contributes the block of equations
    f_v M_a - N_a f_u = 0, equation (r, c) on row r * dim M_u + c.  The
    coefficients are copied into place, never multiplied: f_v[r, k] meets
    M_a[k, c] and f_u[k, c] meets -N_a[r, k] in equation (r, c).  A loop
    (u = v) adds both parts into the same columns.
    """
    q = m.algebra.quiver
    fld = m.field
    offsets = [0]
    for nd, md in zip(n.dims, m.dims):
        offsets.append(offsets[-1] + nd * md)
    arrows = [(a.name, q.index(a.source), q.index(a.target)) for a in q.arrows]
    heights = [n.dims[v - 1] * m.dims[u - 1] for _, u, v in arrows]
    out = _zero_arr(fld, (sum(heights), offsets[-1]))
    row = 0
    for (name, u, v), height in zip(arrows, heights):
        if not height:
            continue
        nv, mv, mu = n.dims[v - 1], m.dims[v - 1], m.dims[u - 1]
        eqs = out[row : row + height].reshape(nv, mu, offsets[-1])
        m_a_t = m.arrow_maps[name].array().T
        for r in range(nv):
            start = offsets[v - 1] + r * mv
            eqs[r, :, start : start + mv] = m_a_t
        n_a = n.arrow_maps[name].array()
        for c in range(mu):
            eqs[:, c, offsets[u - 1] + c : offsets[u] : mu] -= n_a
        row += height
    if fld.is_prime_field:
        out %= fld.p
    return out


def hom_dim(m: Representation, n: Representation) -> int:
    """Dimension of Hom_A(m, n): unknowns minus the rank of the intertwiner system."""
    if m.algebra is not n.algebra and m.algebra != n.algebra:
        raise AlgebraMismatchError("modules live over different algebras")
    if not any(a * b for a, b in zip(m.dims, n.dims)):
        return 0
    constraints = _hom_constraints(m, n)
    return constraints.shape[1] - _rank_array(constraints, m.field)


def _socle_vertex(m: Representation) -> int | None:
    """Vertex of the socle if it is simple, else None."""
    soc = _socle_subspaces(m)
    dims = [s.rank for s in soc]
    if sum(dims) != 1:
        return None
    return dims.index(1) + 1


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


def validate_representation(m: Representation) -> None:
    """Assert the relation and nilpotency invariants; test helper."""
    alg = m.algebra
    fld = m.field

    def path_matrix(names: tuple[str, ...], src: int) -> Matrix:
        u = src
        acc = Matrix.identity(fld, m.dims[u - 1])
        for name in names:
            a, b = alg.quiver.arrow_endpoints(name)
            acc = m.arrow_maps[name].matmul(acc)
            u = b
        return acc

    from .presentation import _canonical_relations

    for terms in _canonical_relations(alg.presentation):
        src = terms[0][1].source
        tgt = terms[0][1].target
        acc = _zero_arr(fld, (m.dims[tgt - 1], m.dims[src - 1]))
        for coeff, path in terms:
            acc = acc + coeff * path_matrix(path.arrows, src).array()
        if fld.is_prime_field:
            acc %= fld.p
        if not Matrix(fld, acc).is_zero():
            raise AssertionError(f"relation {terms} does not annihilate the module")
    if loewy_length(m) > alg.presentation.cap:
        raise AssertionError("module is not annihilated by paths of length cap")
