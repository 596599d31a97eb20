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

from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .exactlin import FieldSpec, _SparseEchelon, _sparse_rank
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
    _by_name: dict[str, tuple[Arrow, int, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

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
            self._by_name[a.name] = (a, self.index(a.source), self.index(a.target))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        """1-based index of a vertex id."""
        return self.vertices.index(vertex) + 1

    def _lookup(self, name: str) -> tuple[Arrow, int, int]:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownArrowError(f"unknown arrow {name!r}") from None

    def arrow(self, name: str) -> Arrow:
        return self._lookup(name)[0]

    def arrow_endpoints(self, name: str) -> tuple[int, int]:
        """1-based (source, target) indices of an arrow."""
        _, source, target = self._lookup(name)
        return source, target


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
            try:
                c = p.field.coerce(coeff)
            except (TypeError, ZeroDivisionError) as exc:
                raise InvalidRelationError(f"coefficient of relation term {names}: {exc}") from None
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
    path idx over the basis (indices of strictly higher degree).  ``normal``
    maps every other path of length < cap to its residue ``((basis path,
    coeff), ...)``, over parallel basis paths of equal or higher degree; longer
    paths are zero.  A^op and the components are read off ``basis`` and ``normal``.
    A component records ``component_of``: the whole algebra and, per vertex of
    the component, its vertex there.
    """

    presentation: AlgebraPresentation
    basis: tuple[Path, ...]
    layers: tuple[tuple[int, ...], ...]
    loewy_length: int
    act: dict[str, dict[int, tuple[tuple[int, int | Fraction], ...]]]
    connected: bool
    normal: dict[Path, NormalForm] = field(repr=False, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    component_of: tuple[AlgebraData, tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False
    )

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

    def _relabelled(self, p: AlgebraPresentation, move, keep=lambda path: True) -> "AlgebraData":
        """The algebra of ``p`` with basis and normal forms ``move`` of the kept ones of A."""
        normal = {
            move(w): tuple((move(b), c) for b, c in nf) for w, nf in self.normal.items() if keep(w)
        }
        return _assemble(p, [move(b) for b in self.basis if keep(b)], normal)

    @memoized
    def opposite(self) -> "AlgebraData":
        """The opposite algebra, from the reversed basis and normal forms (cached both ways)."""
        reverse = opposite_presentation(self.presentation)
        opp = self._relabelled(reverse, lambda w: Path(w.target, w.arrows[::-1], w.source))
        remember(AlgebraData.opposite, opp, result=self)
        return opp

    @memoized
    def components(self) -> tuple["AlgebraData", ...]:
        """The connected components as algebras, sliced from A by source; (A,) if connected.

        Each records A and its vertices in A (``component_of``), so that
        ``repmod`` cuts its projectives and injectives from A's.  Its basis,
        ``act`` and normal forms are assembled only if read
        (:class:`_Component`), and no report reads them.
        """
        if self.connected:
            return (self,)
        return tuple(_Component(self, comp) for comp in connected_components(self.quiver))


_ASSEMBLED = ("basis", "layers", "loewy_length", "act", "normal")


class _Component(AlgebraData):
    """A connected component of A on the given vertex ids, with the fields of ``_ASSEMBLED`` sliced from A on first read."""

    def __init__(self, whole: AlgebraData, vertices: list[str]):
        self.presentation = restrict_presentation(whole.presentation, vertices)
        self.connected = True
        self._cache = {}
        self.component_of = (whole, tuple(whole.quiver.index(v) for v in vertices))

    def __getattr__(self, name: str):
        # reached only for an attribute not set yet
        if name not in _ASSEMBLED:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        whole, at = self.component_of
        new = {v: k for k, v in enumerate(at, start=1)}
        built = whole._relabelled(
            self.presentation,
            lambda w: Path(new[w.source], w.arrows, new[w.target]),
            lambda w: w.source in new,
        )
        for assembled in _ASSEMBLED:
            setattr(self, assembled, getattr(built, assembled))
        return getattr(self, name)

    def __eq__(self, other) -> bool:
        # as AlgebraData's own, but also equal to an AlgebraData of the same fields
        if not isinstance(other, AlgebraData):
            return NotImplemented
        return all(getattr(self, f.name) == getattr(other, f.name) for f in fields(AlgebraData) if f.compare)


ParallelClass = tuple[int, int]
NormalForm = tuple[tuple[Path, int | Fraction], ...]
SparseRow = dict[int, int | Fraction]


def _parallel_classes(paths: Iterable[Path]) -> tuple[dict[ParallelClass, list[Path]], dict[tuple[str, ...], int]]:
    """Paths grouped by (source, target), each group in the given order, and
    every path's column inside its own group, keyed by its arrows.

    A path of length >= 1 is fixed by its arrows.  The key () stands for
    every trivial path, each of which is column 0 of its own class.
    """
    classes: dict[ParallelClass, list[Path]] = {}
    column: dict[tuple[str, ...], int] = {}
    for path in paths:
        group = classes.setdefault((path.source, path.target), [])
        column[path.arrows] = len(group)
        group.append(path)
    return classes, column


def _ideal_rows(
    relations: list[list[tuple[int | Fraction, Path]]],
    paths: list[Path],
    column: dict[tuple[str, ...], int],
    degree_bound: int,
    use_min_length: bool,
) -> dict[ParallelClass, list[SparseRow]]:
    """Spanning vectors u*r*v of the relation ideal, inside paths of length <= degree_bound.

    ``paths`` lists the candidate prefixes u and suffixes v in length order.
    With ``use_min_length`` False a product is kept only when all its terms fit
    under the bound; with True it is kept when its shortest term fits, and the
    overlong terms are truncated away.

    Every term of u*r*v runs from source(u) to target(v), so each product is a
    ``{column: coefficient}`` row over one parallel class, its columns read
    off ``column`` by the arrows of each term (every relation term has
    length >= 2, so no term is a trivial path).  KQ is the direct sum of its
    parallel classes, so the ideal is the direct sum of these per-class
    spans: the result holds the rows of every class that has a generator,
    and no other class meets the ideal.
    """
    ending: dict[int, list[tuple[int, tuple[str, ...], int]]] = {}
    starting: dict[int, list[tuple[int, tuple[str, ...], int]]] = {}
    for path in paths:
        ending.setdefault(path.target, []).append((len(path.arrows), path.arrows, path.source))
        starting.setdefault(path.source, []).append((len(path.arrows), path.arrows, path.target))
    rows: dict[ParallelClass, list[SparseRow]] = {}
    deciding = min if use_min_length else max
    for terms in relations:
        words = [(len(path.arrows), path.arrows, coeff) for coeff, path in terms]
        budget = degree_bound - deciding(length for length, _, _ in words)
        for pre_len, pre, source in ending.get(terms[0][1].source, ()):
            if pre_len > budget:
                break
            for suf_len, suf, target in starting.get(terms[0][1].target, ()):
                if pre_len + suf_len > budget:
                    break
                room = degree_bound - pre_len - suf_len
                vec: SparseRow = {}
                for length, word, coeff in words:
                    if length <= room:
                        c = column[pre + word + suf]
                        vec[c] = vec[c] + coeff if c in vec else coeff
                rows.setdefault((source, target), []).append(vec)
    return rows


def _holds_top_columns(rows: list[SparseRow], cols: int, low: int, fld: FieldSpec) -> bool:
    """Whether the span of ``rows`` holds every unit vector e_c with low <= c < cols.

    Let E be the span of those unit vectors.  If the row span V holds E, it
    is E plus its projection to the first ``low`` columns, so rank V minus
    the rank of V on the first ``low`` columns is cols - low.  Conversely
    that count makes the kernel of the projection, a subspace of E, all of
    E.  The count is the number of pivots at or after ``low`` in the rank
    profile of the rows (``exactlin._sparse_rank``).
    """
    pivots = _sparse_rank(rows, fld, [len(rows)])[0]
    return sum(c >= low for c in pivots) == cols - low


def build_algebra(p: AlgebraPresentation) -> AlgebraData:
    """Compute the graded path basis of A = KQ/I and validate admissibility.

    The span I<=cap of all products u*r*v whose terms fit under the cap must
    contain every path of length cap; otherwise the presentation is not
    visibly nilpotent at this cap and :class:`CapTooSmallError` is raised.

    Each generator u*r*v lies in a single parallel class, so the ideal is the
    direct sum of its per-class spans.  Every class is eliminated on its own,
    as sparse ``{column: coefficient}`` rows over its paths in the order of
    :func:`enumerate_paths`, length first.  A class passes the cap test when
    the pivots of its rank profile on or after its first length-cap column
    number its length-cap paths (:func:`_holds_top_columns`).  Only when a
    class fails are its length-cap paths reduced, in the order of
    :func:`enumerate_paths`, against its pivot rows, to name the first one
    left outside the span; a class without generators fails at once.

    Below the cap the pivot rows of each class (``exactlin._SparseEchelon``)
    are back-substituted into the RREF of its span.  The pivots are the
    leftmost ones, as in one elimination across the whole width, so a path
    is a basis path iff its column is no pivot, and the normal form of a
    pivot path is minus the rest of its RREF row, which lives on the basis
    paths of the pivot's own class.
    """
    fld = p.field
    relations = _canonical_relations(p)
    graded = enumerate_paths(p.quiver, p.cap)
    flat = [path for layer in graded for path in layer]

    classes, column = _parallel_classes(flat)
    rows = _ideal_rows(relations, flat, column, p.cap, False)
    at_cap = Counter((path.source, path.target) for path in graded[p.cap])
    failing: dict[ParallelClass, _SparseEchelon] = {}
    for cls, top in at_cap.items():
        cols = len(classes[cls])
        if not _holds_top_columns(rows.get(cls, []), cols, cols - top, fld):
            failing[cls] = echelon = _SparseEchelon(fld)
            echelon.extend(rows.get(cls, ()))
    if failing:
        for path in graded[p.cap]:
            echelon = failing.get((path.source, path.target))
            # a path outside the span becomes a pivot row; the first one ends the build
            if echelon is not None and echelon.add({column[path.arrows]: 1}):
                raise CapTooSmallError(
                    f"path {'*'.join(path.arrows)} of length {p.cap} is not in the "
                    f"ideal span at cap={p.cap}; raise the cap or fix the relations"
                )

    # Admissibility established: pass to paths of length < cap and take the
    # true ideal there, truncating products whose long terms overflow the cap.
    low_paths = flat[: len(flat) - len(graded[p.cap])]
    low_classes, low_column = _parallel_classes(low_paths)
    normal: dict[Path, NormalForm] = {}
    for cls, class_rows in _ideal_rows(relations, flat, low_column, p.cap - 1, True).items():
        echelon = _SparseEchelon(fld)
        echelon.extend(class_rows)
        group = low_classes[cls]
        for lead, row in sorted(echelon.rref_rows().items()):
            normal[group[lead]] = tuple((group[c], fld.coerce(-v)) for c, v in sorted(row.items()))
    return _assemble(p, [path for path in low_paths if path not in normal], normal)


def _assemble(
    p: AlgebraPresentation, basis: Iterable[Path], normal: dict[Path, NormalForm]
) -> AlgebraData:
    """The algebra of ``p`` with these basis paths (sorted here by degree) and normal forms."""
    basis = tuple(sorted(basis, key=lambda path: (path.length, path.arrows)))
    basis_index = {path: k for k, path in enumerate(basis)}
    degrees = range(basis[-1].length + 1)
    layers = tuple(tuple(k for k, path in enumerate(basis) if path.length == d) for d in degrees)
    act: dict[str, dict[int, tuple[tuple[int, int | Fraction], ...]]] = {}
    for a in p.quiver.arrows:
        asrc, atgt = p.quiver.arrow_endpoints(a.name)
        act[a.name] = acts = {}
        for k, path in enumerate(basis):
            if path.target == asrc:
                longer = Path(path.source, path.arrows + (a.name,), atgt)
                nf = () if longer.length >= p.cap else normal.get(longer, ((longer, p.field.one),))
                acts[k] = tuple((basis_index[b], c) for b, c in nf)
    return AlgebraData(p, basis, layers, len(layers), act, is_connected(p.quiver), normal)


def unsatisfied_relation(alg: AlgebraData) -> list[tuple[int | Fraction, Path]] | None:
    """The first relation of ``alg.presentation`` that ``alg.act`` does not satisfy, else None.

    Each relation sum c * w is applied through ``act`` to every basis path b
    ending at its source; sum c * (b followed by w) must vanish.  This reads
    only the basis and ``act``, so it tests a derived algebra (A^op) against
    its own presentation.  The sums are exact, ints over F_p and Fractions
    over Q, and each entry of a sum is reduced mod p once, at the end.
    """
    p = alg.field.p
    ending: dict[int, list[int]] = {}
    for k, b in enumerate(alg.basis):
        ending.setdefault(b.target, []).append(k)
    for terms in _canonical_relations(alg.presentation):
        for k in ending.get(terms[0][1].source, ()):
            total: dict[int, int | Fraction] = {}
            for coeff, path in terms:
                vec = {k: coeff}
                for name in path.arrows:
                    acts = alg.act[name]
                    nxt: dict[int, int | Fraction] = {}
                    for idx, c in vec.items():
                        for j, x in acts.get(idx, ()):
                            nxt[j] = nxt.get(j, 0) + c * x
                    vec = nxt
                for j, c in vec.items():
                    total[j] = total.get(j, 0) + c
            if any(c % p if p else c for c in total.values()):
                return terms
    return None


LABEL_BUDGET = 20_000
"""Most label work, n * (sum LL(P_i) + sum LL(Q_i)), that ``check_label_budget`` admits.

The labels are those of the Lambda poset and of S_A, and each Hom route
solves n systems per label of its matrix, so the label work counts the Hom
systems of one ``adrkit analyze``; the formula matrices have a cell per pair
of labels.  Preprojective A_9, the largest algebra measured, has 162 labels
and label work 1458, and preprojective A_10 has 200 and 2000.  The arrowless
quiver on 100 vertices, at 20 000, takes about a second; the one on 400
vertices, at 320 000, is refused at once.
"""


def label_count(alg: AlgebraData) -> int:
    """sum LL(P_i) + sum LL(Q_i), read off the basis.

    P_i is spanned by the basis paths out of i, graded by length, so LL(P_i)
    is one more than the longest of them; Q_i is dual to the opposite P_i,
    spanned by the reversed paths into i.
    """
    out, into = [0] * alg.n, [0] * alg.n
    for path in alg.basis:
        out[path.source - 1] = max(out[path.source - 1], path.length + 1)
        into[path.target - 1] = max(into[path.target - 1], path.length + 1)
    return sum(out) + sum(into)


def check_label_budget(alg: AlgebraData) -> None:
    """Raise :class:`PresentationError` if the label work of ``alg`` exceeds :data:`LABEL_BUDGET`."""
    labels = label_count(alg)
    if alg.n * labels > LABEL_BUDGET:
        raise PresentationError(
            f"{alg.n} vertices times {labels} labels (sum of LL(P_i) and LL(Q_i)) is "
            f"{alg.n * labels}, over the label budget of {LABEL_BUDGET}"
        )


HOM_WORK_BUDGET = 1_000_000
"""Most Hom unknowns (:func:`hom_unknowns`) that ``check_work_budget`` admits with the Hom routes.

Truncated 2 loops over F_7 has 522 242 at L=9 (``analyze`` with the Hom
routes 0.76 s and 87 MB peak RSS, without them 0.03 s and 22 MB) and
2 093 058 at L=10 (3.1 s and 295 MB with them, 0.06 s and 27 MB without),
on a 2-core Xeon with Python 3.11; memory grows about 3.4 times per step of
L with the Hom routes.  Preprojective A_9/F_7, the largest CI input, has
6 666.
"""

WORK_BUDGET = 10_000_000
"""Most Hom unknowns that ``check_work_budget`` admits without the Hom routes.

A tagged pass is bounded by the same squares.  Without the Hom routes the
two loops take 0.06 s and 27 MB at L=10, 0.17 s and 36 MB at L=11
(8 380 418) and 0.24 s and 56 MB at L=12 (33 538 050), so this bound is
now far from what memory allows.
"""


def hom_unknowns(alg: AlgebraData) -> int:
    """Sum over v of (basis paths ending at v)^2 + (basis paths starting at v)^2, read off the basis.

    (P_i)_v = e_v A e_i, so the Hom systems between all pairs (P_i, P_k)
    have sum over v of (dim A e_v)^2 unknowns in all, and those between the
    (Q_i, Q_k) sum over v of (dim e_v A)^2.
    """
    into, out = [0] * alg.n, [0] * alg.n
    for path in alg.basis:
        into[path.target - 1] += 1
        out[path.source - 1] += 1
    return sum(d * d for d in into) + sum(d * d for d in out)


def check_work_budget(alg: AlgebraData, hom_routes: bool = True) -> None:
    """Raise :class:`PresentationError` if :func:`hom_unknowns` exceeds its budget.

    The budget is :data:`HOM_WORK_BUDGET` with the Hom routes and
    :data:`WORK_BUDGET` without them.
    """
    work = hom_unknowns(alg)
    budget = HOM_WORK_BUDGET if hom_routes else WORK_BUDGET
    if work > budget:
        hint = (
            f"; --skip-fuzz-corroboration skips the Hom routes and raises it to {WORK_BUDGET}"
            if hom_routes and work <= WORK_BUDGET
            else ""
        )
        raise PresentationError(
            f"W = {work} Hom unknowns (sum over vertices of the squared numbers of basis paths "
            f"ending and starting there) is over the work budget of {budget}{hint}"
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
