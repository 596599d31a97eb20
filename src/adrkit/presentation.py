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


def enumerate_paths(q: Quiver, max_len: int) -> list[list[Path]]:
    """All paths of length 0..max_len, graded by length.

    Degree 0 holds the trivial paths in vertex order; within every positive
    degree paths come in lexicographic order of their arrow-name sequences.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
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


def _column_order(paths: list[list[Path]]) -> tuple[list[Path], dict[Path, int]]:
    flat: list[Path] = [p for layer in paths for p in layer]
    return flat, {p: c for c, p in enumerate(flat)}


def _ideal_rows(
    relations: list[list[tuple[int | Fraction, Path]]],
    paths: list[list[Path]],
    col: dict[Path, int],
    width: int,
    degree_bound: int,
    use_min_length: bool,
    fld: FieldSpec,
) -> list[np.ndarray]:
    """Spanning vectors u*r*v of the relation ideal, inside paths of length <= degree_bound.

    With ``use_min_length`` False a product is kept only when all its terms fit
    under the bound; with True it is kept when its shortest term fits, and the
    overlong terms are truncated away.
    """
    rows: list[np.ndarray] = []
    flat = [p for layer in paths for p in layer]
    for terms in relations:
        deciding = min if use_min_length else max
        rel_len = deciding(path.length for _, path in terms)
        rel_src = terms[0][1].source
        rel_tgt = terms[0][1].target
        budget = degree_bound - rel_len
        if budget < 0:
            continue
        prefixes = [p for p in flat if p.target == rel_src and p.length <= budget]
        for pre in prefixes:
            for suf in flat:
                if suf.source != rel_tgt or pre.length + suf.length > budget:
                    continue
                if fld.is_prime_field:
                    vec = np.zeros(width, dtype=np.int64)
                else:
                    vec = np.empty(width, dtype=object)
                    vec[...] = Fraction(0)
                nonzero = False
                for coeff, path in terms:
                    total = pre.length + path.length + suf.length
                    if total > degree_bound:
                        continue
                    whole = Path(pre.source, pre.arrows + path.arrows + suf.arrows, suf.target)
                    c = col[whole]
                    if fld.is_prime_field:
                        vec[c] = (vec[c] + coeff) % fld.p
                    else:
                        vec[c] = vec[c] + coeff
                    nonzero = True
                if nonzero:
                    rows.append(vec)
    return rows


def build_algebra(p: AlgebraPresentation) -> AlgebraData:
    """Compute the graded path basis of A = KQ/I and validate admissibility.

    The span I<=cap of all products u*r*v whose terms fit under the cap must
    contain every path of length cap; otherwise the presentation is not
    visibly nilpotent at this cap and :class:`CapTooSmallError` is raised.
    """
    fld = p.field
    relations = _canonical_relations(p)
    graded = enumerate_paths(p.quiver, p.cap)
    all_paths, col_all = _column_order(graded)
    width_all = len(all_paths)

    gen_rows = _ideal_rows(relations, graded, col_all, width_all, p.cap, False, fld)
    span = (
        rref(Matrix(fld, np.vstack(gen_rows)))
        if gen_rows
        else rref(Matrix.zeros(fld, 0, width_all))
    )
    for path in graded[p.cap] if p.cap < len(graded) else []:
        if fld.is_prime_field:
            unit = np.zeros(width_all, dtype=np.int64)
            unit[col_all[path]] = 1
        else:
            unit = np.empty(width_all, dtype=object)
            unit[...] = Fraction(0)
            unit[col_all[path]] = Fraction(1)
        if not in_row_space(span, unit):
            raise CapTooSmallError(
                f"path {'*'.join(path.arrows)} of length {p.cap} is not in the "
                f"ideal span at cap={p.cap}; raise the cap or fix the relations"
            )

    # Admissibility established: pass to paths of length < cap and take the
    # true ideal there, truncating products whose long terms overflow the cap.
    graded_low = graded[: p.cap]
    low_paths, col_low = _column_order(graded_low)
    width_low = len(low_paths)
    low_rows = _ideal_rows(relations, graded, col_low, width_low, p.cap - 1, True, fld)
    ideal = (
        rref(Matrix(fld, np.vstack(low_rows)))
        if low_rows
        else rref(Matrix.zeros(fld, 0, width_low))
    )
    pivot_set = set(ideal.pivot_cols)

    basis = tuple(path for c, path in enumerate(low_paths) if c not in pivot_set)
    basis_index = {path: k for k, path in enumerate(basis)}
    layers: list[tuple[int, ...]] = []
    for d in range(p.cap):
        layer = tuple(k for k, path in enumerate(basis) if path.length == d)
        layers.append(layer)
    while layers and not layers[-1]:
        layers.pop()
    loewy_length = len(layers)

    # Reduction of a pivot path: minus the rest of its RREF row (supported on
    # the surviving basis paths of the same parallel class).
    reduction: dict[int, tuple[tuple[int, int | Fraction], ...]] = {}
    red = ideal.reduced
    for r, pc in enumerate(ideal.pivot_cols):
        combo = []
        pivot_path = low_paths[pc]
        for c in range(width_low):
            if c == pc:
                continue
            val = red[r, c]
            if val != 0:
                # the ideal splits over parallel classes, so every residue
                # keeps the source and target of its pivot path
                if (low_paths[c].source, low_paths[c].target) != (
                    pivot_path.source,
                    pivot_path.target,
                ):
                    raise RuntimeError("ideal row mixes parallel classes")
                neg = (-int(val)) % fld.p if fld.is_prime_field else -val
                combo.append((basis_index[low_paths[c]], neg))
        reduction[pc] = tuple(combo)

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
            c = col_low[longer]
            if c in pivot_set:
                act[a.name][k] = reduction[c]
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
