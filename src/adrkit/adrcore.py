"""Numerology of the ADR algebra R_A, computed through A-level linear algebra.

R_A is never materialised.  Each of its three Cartan matrices has two
routes, which must agree exactly:

- C(R_A), entry [soc_j(P_k/rad^l P_k) : L_i].  The formula route reads the
  socle series of every P_k/rad^l P_k off the tagged pass of P_k
  (``repmod.series_by_level``).  The Hom route reads dim Hom(P_i/rad^j P_i,
  P_k/rad^l P_k).
- C(S_A), for S_A the endomorphism algebra of the socle filtrations of the
  injectives.  The formula route reads the radical series of every
  soc_j Q_i off the tagged pass that Q_i reads: the functional pass of
  P^op_i, since Q_i = D(P^op_i).  The Hom route reads
  dim Hom(soc_j Q_i, soc_l Q_k), which D makes
  dim Hom_{A^op}(P^op_k/rad^l P^op_k, P^op_i/rad^j P^op_i).
- C(R(R_A)), for the Ringel dual End(T)^op.  The formula route takes row
  differences of the tilting classes [T(i,j)], read off C(R_A).  The Hom
  route is a closed form over the socle layers of Q_i.

The Hom routes solve one intertwiner system each: Hom_A(A, A) over the
regular module of A for C(R_A), and Hom_{A^op}(A^op, A^op) over that of
A^op, whose summands P^op_i are the roots of the Q_i, for C(S_A), whose
matrix is the transpose of that table.  Hom is additive, so each pair
(P_i, P_k) is a block of that system, and every (j, l) entry of the block
is read off a row prefix and a column prefix of the block in its one
elimination (``repmod.regular_hom_table``).  They read only the pivot
columns of that elimination (``repmod._hom_profile``), never a chain or a
series.  So the two routes share at most a module (A is P_1 when it has
one vertex) and the code of ``exactlin``'s sparse elimination, never an
elimination or the sparse arrow maps it reads: each route memoizes its
own.  The duality C(R_A)[(i,j),(k,l)] = C(S_{A^op})[[k,l],[i,j]] that
``analyze`` rechecks (``theorems.duality_failures``) runs no pass of its
own: Q^op_k reads the functional pass of P_k, and Q_i that of P^op_i, so
both sides read one pass under both readers.  It checks the transposes, the labels
and the readers; the Hom route guards the passes and the readers.  The
Loewy lengths of P_i and Q_i and the socle series of Q_i come from the
grading of the path basis.

All matrices carry explicit row/column label lists; raw integer matrices are
never passed between modules.

The memo here (``memo.memoized``) holds only algebra-level results: the
Lambda poset, the theorem A hypotheses, the labels of S_A and the finished
Cartan matrices.  Modules and their tagged passes are memoized by
``repmod``.  Nothing caches a Hom system or its pivots, and each route has
its own key, so neither route reads counts the other produced, and the
order in which they run cannot change a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .memo import memoized
from .presentation import AlgebraData
from .repmod import (
    Representation,
    injective,
    is_rigid,
    loewy_length,
    projective,
    regular_hom_table,
    series_by_level,
    socle_series,
)


class NegativeMultiplicityError(RuntimeError):
    """A derived multiplicity came out negative: an upstream bug, never valid."""


class HypothesesNotSatisfiedError(ValueError):
    """A tilting-side operation was asked for outside its theorem hypotheses."""


class LambdaLabel(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class LambdaPoset:
    """Labels (i, j) with 1 <= j <= l_i = LL(P_i); (i,j) < (k,l) iff j > l."""

    labels: tuple[LambdaLabel, ...]
    lengths: tuple[int, ...]

    def precedes(self, a: LambdaLabel, b: LambdaLabel) -> bool:
        return a.j > b.j

    def l(self, i: int) -> int:
        return self.lengths[i - 1]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Entry i - 1 is the index of (i, 1) in ``labels``; the last entry is their number.

        Label (i, j) sits at offsets[i - 1] + j - 1.
        """
        return tuple(accumulate(self.lengths, initial=0))


@dataclass(frozen=True)
class LambdaCompositionVector:
    """Integer multiplicities over an explicit label list."""

    labels: tuple[LambdaLabel, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.values):
            raise ValueError("labels and values misaligned")

    @cached_property
    def _index(self) -> dict[LambdaLabel, int]:
        return {lbl: t for t, lbl in enumerate(self.labels)}

    def value(self, label: LambdaLabel) -> int:
        return self.values[self._index[label]]

    def total(self) -> int:
        return sum(self.values)


@dataclass(frozen=True)
class LabeledMatrix:
    """Non-negative integer matrix with explicit Lambda-label headers."""

    row_labels: tuple[LambdaLabel, ...]
    col_labels: tuple[LambdaLabel, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ValueError("column count mismatch")
            if any(x < 0 for x in row):
                raise NegativeMultiplicityError(f"negative entry in {row}")

    @cached_property
    def _row_index(self) -> dict[LambdaLabel, int]:
        return {lbl: r for r, lbl in enumerate(self.row_labels)}

    @cached_property
    def _col_index(self) -> dict[LambdaLabel, int]:
        return {lbl: c for c, lbl in enumerate(self.col_labels)}

    def entry(self, row: LambdaLabel, col: LambdaLabel) -> int:
        return self.entries[self._row_index[row]][self._col_index[col]]

    def row_vector(self, row: LambdaLabel) -> LambdaCompositionVector:
        return LambdaCompositionVector(self.col_labels, self.entries[self._row_index[row]])

    def column_vector(self, col: LambdaLabel) -> LambdaCompositionVector:
        c = self._col_index[col]
        return LambdaCompositionVector(
            self.row_labels, tuple(row[c] for row in self.entries)
        )

    def to_dict(self) -> dict:
        return {
            "row_labels": [list(lbl) for lbl in self.row_labels],
            "col_labels": [list(lbl) for lbl in self.col_labels],
            "entries": [list(row) for row in self.entries],
        }


@dataclass(frozen=True)
class DeltaFiltration:
    """Layers of a Delta-semisimple filtration: multisets of standard labels."""

    layers: tuple[tuple[LambdaLabel, ...], ...]

    def rank(self) -> int:
        """Total number of standard modules across all layers."""
        return sum(len(layer) for layer in self.layers)


@dataclass(frozen=True)
class TheoremAHypotheses:
    """Per-vertex Loewy lengths and rigidity of the P_i and Q_i."""

    loewy_length: int
    ll_p: tuple[int, ...]
    ll_q: tuple[int, ...]
    rigid_p: tuple[bool, ...]
    rigid_q: tuple[bool, ...]

    @cached_property
    def projective_side_ok(self) -> bool:
        return all(x == self.loewy_length for x in self.ll_p) and all(self.rigid_p)

    @cached_property
    def all_ok(self) -> bool:
        return (
            self.projective_side_ok
            and all(x == self.loewy_length for x in self.ll_q)
            and all(self.rigid_q)
        )

    def first_failure(self, projective_side_only: bool = False) -> str | None:
        """First failing condition, scanning vertices in order."""
        for idx in range(len(self.ll_p)):
            i = idx + 1
            if self.ll_p[idx] != self.loewy_length:
                return f"LL(P_{i})={self.ll_p[idx]} != L={self.loewy_length}"
            if not projective_side_only and self.ll_q[idx] != self.loewy_length:
                return f"LL(Q_{i})={self.ll_q[idx]} != L={self.loewy_length}"
            if not self.rigid_p[idx]:
                return f"P_{i} is not rigid"
            if not projective_side_only and not self.rigid_q[idx]:
                return f"Q_{i} is not rigid"
        return None


@memoized
def lambda_poset(alg: AlgebraData) -> LambdaPoset:
    lengths = tuple(loewy_length(projective(alg, i)) for i in range(1, alg.n + 1))
    labels = tuple(
        LambdaLabel(i, j)
        for i in range(1, alg.n + 1)
        for j in range(1, lengths[i - 1] + 1)
    )
    return LambdaPoset(labels, lengths)


@memoized
def theorem_a_hypotheses(alg: AlgebraData) -> TheoremAHypotheses:
    ll_p = tuple(loewy_length(projective(alg, i)) for i in range(1, alg.n + 1))
    ll_q = tuple(loewy_length(injective(alg, i)) for i in range(1, alg.n + 1))
    rigid_p = tuple(is_rigid(projective(alg, i)) for i in range(1, alg.n + 1))
    rigid_q = tuple(is_rigid(injective(alg, i)) for i in range(1, alg.n + 1))
    return TheoremAHypotheses(
        loewy_length=max(ll_p),
        ll_p=ll_p,
        ll_q=ll_q,
        rigid_p=rigid_p,
        rigid_q=rigid_q,
    )


def standard_vector(alg: AlgebraData, label: LambdaLabel) -> LambdaCompositionVector:
    """[Delta(i,j)]: one copy of each L_{i,y} for y = j..l_i (uniserial)."""
    poset = lambda_poset(alg)
    i, j = label
    if not (1 <= i <= alg.n and 1 <= j <= poset.l(i)):
        raise ValueError(f"label {label} outside the Lambda poset")
    values = tuple(
        1 if (lbl.i == i and lbl.j >= j) else 0 for lbl in poset.labels
    )
    return LambdaCompositionVector(poset.labels, values)


@memoized
def cartan_RA_formula(alg: AlgebraData) -> LabeledMatrix:
    """C(R_A) from socle series: entry[(i,j),(k,l)] = [soc_j(P_k/rad^l P_k) : L_i].

    Column (k, l) is read off the running totals of the socle series of
    P_k/rad^l P_k, level l of ``repmod.series_by_level(P_k)``.
    """
    poset = lambda_poset(alg)
    columns = [
        series.totals
        for k in range(1, alg.n + 1)
        for series in series_by_level(projective(alg, k))[1:]
    ]
    entries = tuple(
        tuple(totals[min(j, len(totals) - 1)][i - 1] for totals in columns) for i, j in poset.labels
    )
    return LabeledMatrix(poset.labels, poset.labels, entries)


@memoized
def cartan_RA_hom(alg: AlgebraData) -> LabeledMatrix:
    """C(R_A) by the oracle route: dim Hom_A(P_i/rad^j P_i, P_k/rad^l P_k).

    One intertwiner system, Hom_A(A, A) over the regular module A = sum of
    the P_i, holds every pair (P_i, P_k) as a block, and its one elimination
    gives every entry (``repmod.regular_hom_table``).
    """
    poset = lambda_poset(alg)
    return LabeledMatrix(poset.labels, poset.labels, regular_hom_table(alg))


def injective_vector(alg: AlgebraData, label: LambdaLabel) -> LambdaCompositionVector:
    """[Q_{i,j}] over R_A, read off the transposed Cartan matrix."""
    return cartan_RA_formula(alg).row_vector(LambdaLabel(*label))


def _row_or_zero(alg: AlgebraData, i: int, j: int) -> tuple[int, ...]:
    c = cartan_RA_formula(alg)
    if j == 0:
        return tuple(0 for _ in c.col_labels)
    return c.entries[c._row_index[LambdaLabel(i, j)]]


def costandard_vector(alg: AlgebraData, label: LambdaLabel) -> LambdaCompositionVector:
    """[nabla(i,j)] = [Q_{i,j}] - [Q_{i,j-1}]."""
    i, j = label
    poset = lambda_poset(alg)
    hi = _row_or_zero(alg, i, j)
    lo = _row_or_zero(alg, i, j - 1)
    values = tuple(a - b for a, b in zip(hi, lo))
    if any(v < 0 for v in values):
        raise NegativeMultiplicityError(f"costandard vector at {label}: {values}")
    return LambdaCompositionVector(poset.labels, values)


def tilting_vector(alg: AlgebraData, label: LambdaLabel) -> LambdaCompositionVector:
    """[T(i,j)] = [Q_{i,l_i}] - [Q_{i,j-1}]."""
    i, j = label
    poset = lambda_poset(alg)
    hi = _row_or_zero(alg, i, poset.l(i))
    lo = _row_or_zero(alg, i, j - 1)
    values = tuple(a - b for a, b in zip(hi, lo))
    if any(v < 0 for v in values):
        raise NegativeMultiplicityError(f"tilting vector at {label}: {values}")
    return LambdaCompositionVector(poset.labels, values)


def _delta_class(alg: AlgebraData, filtration: DeltaFiltration) -> tuple[int, ...]:
    """Class of a Delta-filtered module: the sum of [Delta(x, y)] over its layers.

    [Delta(x, y)] is 1 on the labels (x, y)..(x, l_x), a run of indices in
    the label order, so the sum is the running total of a difference array.
    """
    poset = lambda_poset(alg)
    offsets = poset.offsets
    diff = [0] * (len(poset.labels) + 1)
    for layer in filtration.layers:
        for label in layer:
            x, y = label
            if not (1 <= x <= alg.n and 1 <= y <= poset.l(x)):
                raise ValueError(f"label {label} outside the Lambda poset")
            diff[offsets[x - 1] + y - 1] += 1
            diff[offsets[x]] -= 1
    return tuple(accumulate(diff[:-1]))


def _delta_filtration(alg: AlgebraData, layers, first: int) -> DeltaFiltration:
    """One Delta(x, y) per copy of L_x in each socle layer, y counting up from ``first``."""
    poset = lambda_poset(alg)
    out = []
    for y, layer in enumerate(layers, start=first):
        labels = []
        for x, count in enumerate(layer.mult, start=1):
            if count and y > poset.l(x):
                raise RuntimeError(f"a Delta filtration would need Delta({x},{y}) beyond l_{x}")
            labels.extend([LambdaLabel(x, y)] * count)
        out.append(tuple(labels))
    return DeltaFiltration(tuple(out))


def delta_layers(alg: AlgebraData, m: Representation) -> DeltaFiltration:
    """Delta-semisimple filtration of Hom(G, m): Delta(x, y) per copy of L_x in socle layer y of m."""
    return _delta_filtration(alg, socle_series(m).layers, 1)


def tilting_delta_filtration(alg: AlgebraData, label: LambdaLabel) -> DeltaFiltration:
    """Delta-filtration layers of the tilting module T(k,l).

    Valid when every projective is rigid with full Loewy length; layer y holds
    Delta(x, l+y-1) once per copy of L_x in socle layer y of Q_k, and there are
    min(L-l+1, LL(Q_k)) layers.
    """
    hyp = theorem_a_hypotheses(alg)
    if not hyp.projective_side_ok:
        raise HypothesesNotSatisfiedError(hyp.first_failure(projective_side_only=True))
    k, l = label
    if not (1 <= k <= alg.n and 1 <= l <= lambda_poset(alg).l(k)):
        raise ValueError(f"label {label} outside the Lambda poset")
    layers = socle_series(injective(alg, k)).layers
    return _delta_filtration(alg, layers[: hyp.loewy_length - l + 1], l)


def tilting_hom_dim(alg: AlgebraData, source: LambdaLabel, target: LambdaLabel) -> int:
    """dim Hom_{R_A}(T(i,j), T(k,l)) by the closed form over socle layers of Q_i.

    Requires rigid projectives and injectives, all of Loewy length L; the value
    is the multiplicity of L_k in socle layers max(l-j,0)+1 .. L-j+1 of Q_i.
    """
    hyp = theorem_a_hypotheses(alg)
    if not hyp.all_ok:
        raise HypothesesNotSatisfiedError(hyp.first_failure())
    i, j = source
    k, l = target
    big_l = hyp.loewy_length
    prof = socle_series(injective(alg, i))
    lo = max(l - j, 0) + 1
    hi = min(big_l - j + 1, len(prof.layers))
    return sum(prof.layers[y - 1].mult[k - 1] for y in range(lo, hi + 1))


def ringel_dual_cartan_from_hom(alg: AlgebraData) -> LabeledMatrix:
    """C(R(R_A)) with entry[(i,j),(k,l)] = dim Hom(T(i,j), T(k,l)) (closed form).

    The closed form of :func:`tilting_hom_dim`, read row by row off the
    running totals of the socle series of Q_i: socle layers max(l-j,0)+1 ..
    min(L-j+1, LL(Q_i)) hold totals[hi] - totals[lo] copies of L_k, and none
    when the range is empty.
    """
    hyp = theorem_a_hypotheses(alg)
    if not hyp.all_ok:
        raise HypothesesNotSatisfiedError(hyp.first_failure())
    poset = lambda_poset(alg)
    totals = [socle_series(injective(alg, i)).totals for i in range(1, alg.n + 1)]
    entries = []
    for i, j in poset.labels:
        acc = totals[i - 1]
        hi = min(hyp.loewy_length - j + 1, len(acc) - 1)
        entries.append(tuple(
            acc[hi][k - 1] - acc[lo][k - 1] if (lo := max(l - j, 0)) < hi else 0
            for k, l in poset.labels
        ))
    return LabeledMatrix(poset.labels, poset.labels, tuple(entries))


@memoized
def cartan_ringel_dual(alg: AlgebraData) -> LabeledMatrix:
    """C(R(R_A)) from the tilting classes; valid for every ADR algebra.

    R(R_A) = End(T)^op for T the sum of the T(i,j), so row (i,j) is read off
    [T(i,j)] (:func:`tilting_vector`):
    entry[(i,j),(k,l)] = [T(i,j):L_{k,l_k}] - [T(i,j):L_{k,l-1}],
    the second term 0 when l = 1.  On the values of [T(i,j)], whose labels
    (k, 1)..(k, l_k) are the run t[offsets[k-1]:offsets[k]], block k of the
    row is t[offsets[k]-1] minus (0, t[offsets[k-1]], ..., t[offsets[k]-2]).
    """
    poset = lambda_poset(alg)
    offsets = poset.offsets
    entries = []
    for label in poset.labels:
        t = tilting_vector(alg, label).values
        row: list[int] = []
        for start, stop in zip(offsets, offsets[1:]):
            top = t[stop - 1]
            row.append(top)
            row += [top - below for below in t[start : stop - 1]]
        if min(row) < 0:
            c = next(c for c, val in enumerate(row) if val < 0)
            raise NegativeMultiplicityError(
                f"Ringel-dual Cartan entry at ({tuple(label)},{tuple(poset.labels[c])}) = {row[c]}"
            )
        entries.append(tuple(row))
    return LabeledMatrix(poset.labels, poset.labels, tuple(entries))


@memoized
def sa_labels(alg: AlgebraData) -> tuple[LambdaLabel, ...]:
    """Labels [i,j] of S_A, with 1 <= j <= LL(Q_i)."""
    return tuple(
        LambdaLabel(i, j)
        for i in range(1, alg.n + 1)
        for j in range(1, loewy_length(injective(alg, i)) + 1)
    )


@memoized
def cartan_SA_formula(alg: AlgebraData) -> LabeledMatrix:
    """C(S_A): entry[[i,j],[k,l]] = [soc_j Q_i / rad^l (soc_j Q_i) : L_k].

    Row [i, j] is read off the running totals of the radical series of
    soc_j Q_i, level j of ``repmod.series_by_level(Q_i)``.
    """
    labels = sa_labels(alg)
    rows = [
        series.totals
        for i in range(1, alg.n + 1)
        for series in series_by_level(injective(alg, i))[1:]
    ]
    entries = tuple(tuple(totals[min(l, len(totals) - 1)][k - 1] for k, l in labels) for totals in rows)
    return LabeledMatrix(labels, labels, entries)


@memoized
def cartan_SA_hom(alg: AlgebraData) -> LabeledMatrix:
    """C(S_A) by the oracle route: dim Hom_A(soc_j Q_i, soc_l Q_k).

    D turns the entry into dim Hom_{A^op}(P^op_k/rad^l P^op_k, P^op_i/rad^j
    P^op_i), and the P^op_i are the roots of the Q_i: the matrix is the
    transpose of the table of one intertwiner system, Hom_{A^op}(A^op,
    A^op) over the regular module of A^op (``repmod.regular_hom_table``).
    """
    labels = sa_labels(alg)
    return LabeledMatrix(labels, labels, tuple(zip(*regular_hom_table(alg.opposite()))))
