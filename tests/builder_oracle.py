"""The dense per-class path-basis builder: the tests' oracle for ``build_algebra``.

``presentation.build_algebra`` sweeps the products u*r*v once and eliminates
each parallel class once, as sparse rows: the products whose terms fit under
the cap first, whose leads on the length-cap columns decide the cap test, then
the products truncated at the cap, before it back-substitutes the pivot rows
into normal forms.  :func:`dense_build_algebra` does the same job the plain
way, with two sweeps and two eliminations per class: it writes the products
whose terms fit under the cap into a dense array per class, row-reduces each
array with ``chain_oracle.dense_rref`` (a dense pivot loop that shares no
elimination with the builder) and reads membership of every length-cap path
off the RREF, one unit row per path; then it writes the products truncated
below the cap into a second array per class over the shorter paths alone and
reads the normal forms off its RREF.  Both return an ``AlgebraData`` through
``presentation._assemble``, so their ``basis``, ``layers``, ``normal`` and
``act`` can be compared, and both raise ``CapTooSmallError`` with the same
message.

:func:`dense_projective_maps` and :func:`dense_injective_maps` write the
arrow maps of P_i and Q_i into dense arrays, entry by entry from ``act``,
and read them through ``chain_oracle.matrix``: the reference for the
sparse rows that ``repmod.projective`` and ``repmod.injective`` store.
"""

from fractions import Fraction

import numpy as np

from adrkit.exactlin import FieldSpec, Matrix
from adrkit.presentation import (
    AlgebraData,
    AlgebraPresentation,
    CapTooSmallError,
    NormalForm,
    ParallelClass,
    Path,
    _assemble,
    _canonical_relations,
    enumerate_paths,
)
from chain_oracle import dense, dense_rref, matrix, zeros


def _parallel_classes(paths: list[Path]) -> tuple[dict[ParallelClass, list[Path]], dict[Path, int]]:
    """Paths grouped by (source, target), each group in the given order, and
    every path's column inside its own group."""
    classes: dict[ParallelClass, list[Path]] = {}
    local: dict[Path, int] = {}
    for path in paths:
        group = classes.setdefault((path.source, path.target), [])
        local[path] = len(group)
        group.append(path)
    return classes, local


def _ideal_arrays(
    relations: list[list[tuple[int | Fraction, Path]]],
    paths: list[Path],
    classes: dict[ParallelClass, list[Path]],
    local: dict[Path, int],
    degree_bound: int,
    use_min_length: bool,
    fld: FieldSpec,
) -> dict[ParallelClass, Matrix]:
    """The products u*r*v under the bound as one dense generator matrix per class.

    With ``use_min_length`` False a product is kept only when all its terms
    fit under the bound; with True it is kept when its shortest term fits,
    and the overlong terms are truncated away.
    """
    ending: dict[int, list[Path]] = {}
    starting: dict[int, list[Path]] = {}
    for path in paths:
        ending.setdefault(path.target, []).append(path)
        starting.setdefault(path.source, []).append(path)
    rows: dict[ParallelClass, list[dict[int, int | Fraction]]] = {}
    deciding = min if use_min_length else max
    for terms in relations:
        rel_src = terms[0][1].source
        rel_tgt = terms[0][1].target
        budget = degree_bound - deciding(path.length for _, path in terms)
        for pre in ending.get(rel_src, ()):
            if pre.length > budget:
                break
            for suf in starting.get(rel_tgt, ()):
                if pre.length + suf.length > budget:
                    break
                vec: dict[int, int | Fraction] = {}
                for coeff, path in terms:
                    if pre.length + path.length + suf.length > degree_bound:
                        continue
                    c = local[Path(pre.source, pre.arrows + path.arrows + suf.arrows, suf.target)]
                    vec[c] = vec.get(c, 0) + coeff
                if vec:
                    rows.setdefault((pre.source, suf.target), []).append(vec)
    out: dict[ParallelClass, Matrix] = {}
    for cls, vecs in rows.items():
        a = zeros(fld, (len(vecs), len(classes[cls])))
        for r, vec in enumerate(vecs):
            for c, coeff in vec.items():
                a[r, c] = coeff
        out[cls] = Matrix(fld, a)
    return out


def dense_build_algebra(p: AlgebraPresentation) -> AlgebraData:
    """``build_algebra`` by one dense RREF per parallel class, twice.

    A length-cap path is in the ideal span iff its column is a pivot whose
    RREF row is a unit vector; the paths are tested in the order of
    ``enumerate_paths`` and the first that fails is named.  Below the cap the
    normal form of a pivot path is minus the rest of its RREF row.
    """
    fld = p.field
    relations = _canonical_relations(p)
    graded = enumerate_paths(p.quiver, p.cap)
    flat = [path for layer in graded for path in layer]

    classes, local = _parallel_classes(flat)
    rows = {}
    for cls, m in _ideal_arrays(relations, flat, classes, local, p.cap, False, fld).items():
        block = dense_rref(m)
        rows.update(((cls, c), row) for c, row in zip(block.pivot_cols, dense(block.reduced)))
    for path in graded[p.cap]:
        row = rows.get(((path.source, path.target), local[path]))
        if row is None or np.count_nonzero(row != 0) != 1:
            raise CapTooSmallError(
                f"path {'*'.join(path.arrows)} of length {p.cap} is not in the "
                f"ideal span at cap={p.cap}; raise the cap or fix the relations"
            )

    low_paths = [path for path in flat if path.length < p.cap]
    low_classes, low_cols = _parallel_classes(low_paths)
    normal: dict[Path, NormalForm] = {}
    for cls, m in _ideal_arrays(relations, flat, low_classes, low_cols, p.cap - 1, True, fld).items():
        block = dense_rref(m)
        group = low_classes[cls]
        for pc, row in zip(block.pivot_cols, dense(block.reduced)):
            normal[group[pc]] = tuple(
                (group[c], fld.coerce(-row[c])) for c in np.flatnonzero(row != 0) if c != pc
            )
    return _assemble(p, [path for path in low_paths if path not in normal], normal)


def dense_projective_maps(alg: AlgebraData, i: int) -> dict[str, Matrix]:
    """The arrow maps of P_i: column k of M_a is a * (basis path k with source i), in basis order per vertex."""
    by_vertex: list[list[int]] = [[] for _ in range(alg.n)]
    for k, path in enumerate(alg.basis):
        if path.source == i:
            by_vertex[path.target - 1].append(k)
    slot = {k: r for ks in by_vertex for r, k in enumerate(ks)}
    maps = {}
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        arr = zeros(alg.field, (len(by_vertex[v - 1]), len(by_vertex[u - 1])))
        for col, k in enumerate(by_vertex[u - 1]):
            for idx, coeff in alg.act[a.name].get(k, ()):
                arr[slot[idx], col] = coeff
        maps[a.name] = matrix(alg.field, arr)
    return maps


def dense_injective_maps(alg: AlgebraData, i: int) -> dict[str, Matrix]:
    """The arrow maps of Q_i = D(P^op_i): the transposed arrays of P^op_i's maps."""
    return {
        name: matrix(alg.field, dense(mat).T)
        for name, mat in dense_projective_maps(alg.opposite(), i).items()
    }
