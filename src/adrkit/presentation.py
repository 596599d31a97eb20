"""Quiver-with-relations input model and the path-basis builder.

A presentation is a quiver, a base field, a list of admissible relations and a
nilpotency cap N (the user's guarantee that all paths of length >= N vanish).
``build_algebra`` turns it into a concrete basis of A = KQ/I graded by radical
degree, together with the left action of every arrow on that basis.

Composition convention: paths are written in traversal order, and the product
p*q is defined when target(q) = source(p) (function composition).  The left
projective at vertex i then has basis the residues of paths with source i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exactlin import FieldSpec, Matrix, in_row_space, rref
from .memo import memoized, remember


class PresentationError(ValueError):
    """Malformed presentation input."""


class UnknownArrowError(PresentationError):
    pass


class NonComposablePathError(PresentationError):
    pass


class InvalidRelationError(PresentationError):
    pass


class CapTooSmallError(PresentationError):
    """Some path of length cap is not in the computed ideal span.

    The presentation is either not admissible, or the cap is too small to
    witness nilpotency; raising the cap may fix the latter.
    """


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; vertices are named, indexed 1..n in list order."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) == 0:
            raise PresentationError("quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise PresentationError("vertex ids must be distinct")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise PresentationError("arrow names must be distinct")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise PresentationError(f"arrow {a.name!r} references unknown vertex")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        """1-based index of a vertex id."""
        return self.vertices.index(vertex) + 1

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise UnknownArrowError(f"unknown arrow {name!r}")

    def arrow_endpoints(self, name: str) -> tuple[int, int]:
        a = self.arrow(name)
        return self.index(a.source), self.index(a.target)


class Path(NamedTuple):
    """Traversal-ordered path; source/target are 1-based vertex indices."""

    source: int
    arrows: tuple[str, ...]
    target: int

    @property
    def length(self) -> int:
        return len(self.arrows)


@dataclass(frozen=True)
class Relation:
    """K-linear combination of parallel paths of length >= 2 (traversal order)."""

    terms: tuple[tuple[int | Fraction, tuple[str, ...]], ...]

    @classmethod
    def monomial(cls, path: Sequence[str]) -> "Relation":
        return cls(((1, tuple(path)),))

    @classmethod
    def difference(cls, path_a: Sequence[str], path_b: Sequence[str]) -> "Relation":
        return cls(((1, tuple(path_a)), (-1, tuple(path_b))))


@dataclass(frozen=True)
class AlgebraPresentation:
    field: FieldSpec
    quiver: Quiver
    relations: tuple[Relation, ...]
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise PresentationError(f"cap must be >= 1, got {self.cap}")


PATH_BUDGET = 200_000
"""Most letters that :func:`enumerate_paths` will list below the cap.

A path of length k is k + 1 letters (its arrows plus its source), so the
budget bounds the memory of the listing, not only the number of paths: one
loop at cap 100 000 has only 100 001 paths but about 5 * 10^9 letters.  An
input over the budget (two loops at cap 40 have 2^41 - 1 paths) is refused
before any path is listed, as is a cap above this bound.  Preprojective A_6,
the largest benchmark input, has 5142 letters.
"""


def _letters(counts: list[int]) -> int:
    """Letters in all paths, given the number of paths of each length."""
    return sum((k + 1) * c for k, c in enumerate(counts))


def _count_paths(q: Quiver, max_len: int) -> list[int]:
    """Number of paths of each length 0..max_len, counted without listing them.

    Stops early, with a shorter list, once their letters exceed
    :data:`PATH_BUDGET` or no path of the last length can be extended.
    """
    ending = {v: 1 for v in range(1, q.n + 1)}  # paths of the current length, by target
    counts = [q.n]
    ends = [(q.index(a.source), q.index(a.target)) for a in q.arrows]
    while len(counts) <= max_len and _letters(counts) <= PATH_BUDGET and counts[-1]:
        longer = dict.fromkeys(ending, 0)
        for src, tgt in ends:
            longer[tgt] += ending[src]
        ending = longer
        counts.append(sum(ending.values()))
    return counts


def enumerate_paths(q: Quiver, max_len: int) -> list[list[Path]]:
    """All paths of length 0..max_len, graded by length.

    Degree 0 holds the trivial paths in vertex order; within every positive
    degree paths come in lexicographic order of their arrow-name sequences.
    Paths holding more than :data:`PATH_BUDGET` letters in all, or a longer
    ``max_len``, are a :class:`PresentationError`.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > PATH_BUDGET:
        raise PresentationError(
            f"cap={max_len} exceeds the path budget of {PATH_BUDGET}"
        )
    counts = _count_paths(q, max_len)
    letters = _letters(counts)
    if letters > PATH_BUDGET:
        raise PresentationError(
            f"the {sum(counts)} paths of length <= {len(counts) - 1} hold {letters} "
            f"letters, which already exceed the path budget of {PATH_BUDGET} at "
            f"cap={max_len}; lower the cap"
        )
    by_source: dict[int, list[tuple[str, int]]] = {v: [] for v in range(1, q.n + 1)}
    for a in sorted(q.arrows, key=lambda a: a.name):
        by_source[q.index(a.source)].append((a.name, q.index(a.target)))
    graded: list[list[Path]] = [[Path(v, (), v) for v in range(1, q.n + 1)]]
    for d in range(1, max_len + 1):
        layer: list[Path] = []
        for p in graded[d - 1]:
            for name, tgt in by_source[p.target]:
                layer.append(Path(p.source, p.arrows + (name,), tgt))
        layer.sort(key=lambda p: p.arrows)
        graded.append(layer)
    return graded


def _path_of_arrow_names(q: Quiver, names: Sequence[str]) -> Path:
    if not names:
        raise InvalidRelationError("relation term has an empty path")
    src = None
    prev_target = None
    for name in names:
        try:
            s, t = q.arrow_endpoints(name)
        except UnknownArrowError:
            raise UnknownArrowError(f"unknown arrow {name!r} in relation")
        if src is None:
            src = s
        elif prev_target != s:
            raise NonComposablePathError(
                f"path {tuple(names)} breaks at {name!r}: not composable"
            )
        prev_target = t
    return Path(src, tuple(names), prev_target)


def _canonical_relations(p: AlgebraPresentation) -> list[list[tuple[int | Fraction, Path]]]:
    """Validate and coerce relations; zero terms dropped, empty relations skipped."""
    out = []
    for rel in p.relations:
        if not rel.terms:
            continue
        terms: list[tuple[int | Fraction, Path]] = []
        src = tgt = None
        for coeff, names in rel.terms:
            path = _path_of_arrow_names(p.quiver, names)
            if path.length < 2:
                raise InvalidRelationError(
                    f"relation path {names} has length {path.length}; admissible "
                    "relations lie in the square of the arrow ideal"
                )
            if path.length > p.cap:
                raise InvalidRelationError(
                    f"relation path {names} is longer than cap={p.cap}; raise the cap"
                )
            if src is None:
                src, tgt = path.source, path.target
            elif (path.source, path.target) != (src, tgt):
                raise NonComposablePathError(
                    f"relation mixes non-parallel paths ({src}->{tgt} vs "
                    f"{path.source}->{path.target})"
                )
            c = p.field.coerce(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
            if c != 0:
                terms.append((c, path))
        if terms:
            out.append(terms)
    return out


@dataclass
class AlgebraData:
    """Concrete model of A = KQ/I: graded path basis plus arrow actions.

    ``basis`` lists the residue paths, ordered by radical degree then
    lexicographically; ``layers[d]`` gives the basis indices of degree d, a
    basis of rad^d(A)/rad^{d+1}(A).  ``act[arrow][idx]`` expands arrow * basis
    path idx over the basis (indices of strictly higher degree).
    """

    presentation: AlgebraPresentation
    basis: tuple[Path, ...]
    layers: tuple[tuple[int, ...], ...]
    loewy_length: int
    act: dict[str, dict[int, tuple[tuple[int, int | Fraction], ...]]]
    connected: bool
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def field(self) -> FieldSpec:
        return self.presentation.field

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    @property
    def n(self) -> int:
        return self.quiver.n

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_indices_with_source(self, i: int) -> list[int]:
        return [k for k, path in enumerate(self.basis) if path.source == i]

    @memoized
    def opposite(self) -> "AlgebraData":
        """The opposite algebra, built from the reversed presentation (cached both ways)."""
        opp = build_algebra(opposite_presentation(self.presentation))
        remember(AlgebraData.opposite, opp, result=self)
        return opp


ParallelClass = tuple[int, int]


def _parallel_classes(paths: Iterable[Path]) -> tuple[dict[ParallelClass, list[Path]], dict[Path, int]]:
    """Paths grouped by (source, target), each group in the given order, and
    every path's column inside its own group."""
    classes: dict[ParallelClass, list[Path]] = {}
    local: dict[Path, int] = {}
    for path in paths:
        group = classes.setdefault((path.source, path.target), [])
        local[path] = len(group)
        group.append(path)
    return classes, local


def _ideal_rows(
    relations: list[list[tuple[int | Fraction, Path]]],
    paths: list[Path],
    classes: dict[ParallelClass, list[Path]],
    local: dict[Path, int],
    degree_bound: int,
    use_min_length: bool,
    fld: FieldSpec,
) -> dict[ParallelClass, Matrix]:
    """Spanning vectors u*r*v of the relation ideal, inside paths of length <= degree_bound.

    ``paths`` lists the candidate prefixes u and suffixes v in length order.
    With ``use_min_length`` False a product is kept only when all its terms fit
    under the bound; with True it is kept when its shortest term fits, and the
    overlong terms are truncated away.

    Every term of u*r*v runs from source(u) to target(v), so each product is a
    vector over the columns of one parallel class ``classes[(source, target)]``
    (indexed by ``local``).  KQ is the direct sum of its parallel classes, so
    the ideal is the direct sum of these per-class spans: the result holds one
    generator matrix per class that has a generator, and no other class
    meets the ideal.
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
        a = Matrix.zeros(fld, len(vecs), len(classes[cls])).array().copy()
        for r, vec in enumerate(vecs):
            for c, coeff in vec.items():
                a[r, c] = coeff
        out[cls] = Matrix(fld, a)
    return out


def build_algebra(p: AlgebraPresentation) -> AlgebraData:
    """Compute the graded path basis of A = KQ/I and validate admissibility.

    The span I<=cap of all products u*r*v whose terms fit under the cap must
    contain every path of length cap; otherwise the presentation is not
    visibly nilpotent at this cap and :class:`CapTooSmallError` is raised.

    Both spans are row-reduced one parallel class at a time.  Each generator
    u*r*v lies in a single class, so the ideal matrix over all paths is
    block-diagonal after grouping the columns by class, and its unique RREF is
    the union of the per-class RREFs (each class keeps the global column order
    of its paths).  Pivots, basis and reductions are therefore exactly those
    of one elimination across the whole width, and a path of a class without
    generators is never in the ideal.
    """
    fld = p.field
    relations = _canonical_relations(p)
    graded = enumerate_paths(p.quiver, p.cap)
    flat = [path for layer in graded for path in layer]

    classes, local = _parallel_classes(flat)
    span = {
        cls: rref(m)
        for cls, m in _ideal_rows(relations, flat, classes, local, p.cap, False, fld).items()
    }
    for path in graded[p.cap]:
        cls = (path.source, path.target)
        unit = Matrix.identity(fld, len(classes[cls])).array()[local[path]]
        if cls not in span or not in_row_space(span[cls], unit):
            raise CapTooSmallError(
                f"path {'*'.join(path.arrows)} of length {p.cap} is not in the "
                f"ideal span at cap={p.cap}; raise the cap or fix the relations"
            )

    # Admissibility established: pass to paths of length < cap and take the
    # true ideal there, truncating products whose long terms overflow the cap.
    low_paths = [path for path in flat if path.length < p.cap]
    low_classes, low_local = _parallel_classes(low_paths)
    ideal = {
        cls: rref(m)
        for cls, m in _ideal_rows(
            relations, flat, low_classes, low_local, p.cap - 1, True, fld
        ).items()
    }
    pivot_paths = {
        low_classes[cls][pc] for cls, block in ideal.items() for pc in block.pivot_cols
    }

    basis = tuple(path for path in low_paths if path not in pivot_paths)
    basis_index = {path: k for k, path in enumerate(basis)}
    layers: list[tuple[int, ...]] = []
    for d in range(p.cap):
        layer = tuple(k for k, path in enumerate(basis) if path.length == d)
        layers.append(layer)
    while layers and not layers[-1]:
        layers.pop()
    loewy_length = len(layers)

    # Reduction of a pivot path: minus the rest of its RREF row, which lives on
    # the surviving basis paths of the pivot's own parallel class.
    reduction: dict[Path, tuple[tuple[int, int | Fraction], ...]] = {}
    for cls, block in ideal.items():
        group = low_classes[cls]
        red = block.reduced.array()
        for r, pc in enumerate(block.pivot_cols):
            row = red[r]
            reduction[group[pc]] = tuple(
                (
                    basis_index[group[c]],
                    (-int(row[c])) % fld.p if fld.is_prime_field else -row[c],
                )
                for c in np.flatnonzero(row != 0)
                if c != pc
            )

    arrow_targets = {a.name: p.quiver.arrow_endpoints(a.name) for a in p.quiver.arrows}
    act: dict[str, dict[int, tuple[tuple[int, int | Fraction], ...]]] = {
        a.name: {} for a in p.quiver.arrows
    }
    for k, path in enumerate(basis):
        for a in p.quiver.arrows:
            asrc, _ = arrow_targets[a.name]
            if path.target != asrc:
                continue
            if path.length + 1 >= p.cap:
                act[a.name][k] = ()
                continue
            longer = Path(path.source, path.arrows + (a.name,), arrow_targets[a.name][1])
            if longer in reduction:
                act[a.name][k] = reduction[longer]
            else:
                one = 1 if fld.is_prime_field else Fraction(1)
                act[a.name][k] = ((basis_index[longer], one),)

    return AlgebraData(
        presentation=p,
        basis=basis,
        layers=tuple(layers),
        loewy_length=loewy_length,
        act=act,
        connected=is_connected(p.quiver),
    )


def opposite_presentation(p: AlgebraPresentation) -> AlgebraPresentation:
    """Reverse all arrows and all relation paths; field and cap unchanged."""
    q = p.quiver
    opp_arrows = tuple(Arrow(a.name, a.target, a.source) for a in q.arrows)
    opp_rels = tuple(
        Relation(tuple((coeff, tuple(reversed(names))) for coeff, names in rel.terms))
        for rel in p.relations
    )
    return AlgebraPresentation(
        field=p.field,
        quiver=Quiver(q.vertices, opp_arrows),
        relations=opp_rels,
        cap=p.cap,
    )


def is_connected(q: Quiver) -> bool:
    return len(connected_components(q)) == 1


def connected_components(q: Quiver) -> list[list[str]]:
    """Vertex ids grouped by connected component of the underlying graph."""
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen: set[str] = set()
    comps: list[list[str]] = []
    for v in q.vertices:
        if v in seen:
            continue
        stack = [v]
        comp = []
        seen.add(v)
        while stack:
            w = stack.pop()
            comp.append(w)
            for x in adj[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        comps.append(sorted(comp, key=q.vertices.index))
    return comps


def restrict_presentation(p: AlgebraPresentation, vertices: Iterable[str]) -> AlgebraPresentation:
    """Sub-presentation on a union of connected components."""
    keep = set(vertices)
    q = p.quiver
    sub_vertices = tuple(v for v in q.vertices if v in keep)
    sub_arrows = tuple(a for a in q.arrows if a.source in keep and a.target in keep)
    kept_names = {a.name for a in sub_arrows}
    sub_rels = tuple(
        rel
        for rel in p.relations
        if all(name in kept_names for _, names in rel.terms for name in names)
    )
    return AlgebraPresentation(
        field=p.field,
        quiver=Quiver(sub_vertices, sub_arrows),
        relations=sub_rels,
        cap=p.cap,
    )
