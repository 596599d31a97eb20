"""Numerology of the ADR algebra R_A, computed through A-level linear algebra.

R_A is never materialised: its Cartan matrix is read off the socle series of
the radical quotients of the projective A-modules, the Cartan matrix of the
Ringel dual End(T)^op off the tilting classes [T(i,j)] (row differences of
C(R_A)), and the Cartan matrix of S_A (the endomorphism algebra of the socle
filtrations of the injectives) off radical series of socle submodules.  Each
matrix also has an independent Hom-space route (the intertwiner solver, and
for C(R(R_A)) the closed form over the socle layers of Q_i); the two must
agree exactly.  They share the modules they measure, never their
elimination.  The formula route takes the socle profile of each truncation
P_k/rad^l P_k from the functional pass over that module
(``repmod.socle_series``, one ``exactlin._rref_array`` per step and
vertex), the Loewy lengths of P_i and Q_i and the socle profiles of Q_i from
the grading of the path basis, and the radical profiles of soc_j Q_i from
the general chain code (``repmod.radical_chain``, built with
``exactlin.rref``).  The intertwiner solver uses none of these: it builds
each system as sparse rows and takes its rank by ``exactlin._sparse_rank``,
which finishes with the dense forward elimination of
``exactlin._rank_array``; it never builds an RREF.  The radical profiles of
soc_j Q_i are never taken from the functional pass over the opposite
projectives, so the duality C(R_A)[(i,j),(k,l)] = C(S_{A^op})[[k,l],[i,j]]
still sets the two chain codes against each other.

All matrices carry explicit row/column label lists; raw integer matrices are
never passed between modules.

The memo here (``memo.memoized``) holds only algebra-level results: the
Lambda poset, the theorem A hypotheses, the labels of S_A and the finished
Cartan matrices.  Modules are ``repmod``'s: it decides that P_k/rad^{l_k} P_k
is P_k and soc_{LL} Q_i is Q_i, and memoizes every truncation, socle
submodule, chain and functional pass on the module it comes from.  Nothing
caches ``hom_dim`` or ``_hom_constraints``, and each route has its own key,
so neither route reads counts the other produced: the routes share only the
modules they measure, their agreement stays an independent check, and the
order in which they run cannot change a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .memo import memoized
from .presentation import AlgebraData
from .repmod import (
    Representation,
    hom_dim,
    injective,
    is_rigid,
    loewy_length,
    projective,
    radical_series,
    socle_series,
    socle_sub,
    truncate,
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


def _cumulative_layers(alg: AlgebraData, prof) -> list[tuple[int, ...]]:
    """Running totals of a series: entry y is the composition vector of layers 1..y."""
    cums = [(0,) * alg.n]
    for layer in prof.layers:
        cums.append(tuple(a + b for a, b in zip(cums[-1], layer.mult)))
    return cums


def _first_layers_mult(cums: list[tuple[int, ...]], y: int, x: int) -> int:
    """[first y layers : L_x], read off running totals; past the top it is the whole series."""
    return cums[min(y, len(cums) - 1)][x - 1]


@memoized
def cartan_RA_formula(alg: AlgebraData) -> LabeledMatrix:
    """C(R_A) from socle series: entry[(i,j),(k,l)] = [soc_j(P_k/rad^l P_k) : L_i]."""
    poset = lambda_poset(alg)
    columns = [
        _cumulative_layers(alg, socle_series(truncate(projective(alg, k), l)))
        for k, l in poset.labels
    ]
    entries = tuple(
        tuple(_first_layers_mult(cums, j, i) for cums in columns) for i, j in poset.labels
    )
    return LabeledMatrix(poset.labels, poset.labels, entries)


@memoized
def cartan_RA_hom(alg: AlgebraData) -> LabeledMatrix:
    """C(R_A) by the oracle route: dim Hom_A(P_i/rad^j P_i, P_k/rad^l P_k)."""
    poset = lambda_poset(alg)
    mods = [truncate(projective(alg, i), j) for i, j in poset.labels]
    entries = tuple(tuple(hom_dim(a, b) for b in mods) for a in mods)
    return LabeledMatrix(poset.labels, poset.labels, entries)


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
    """Class of a Delta-filtered module: the sum of [Delta(x, y)] over its layers."""
    acc = [0] * len(lambda_poset(alg).labels)
    for layer in filtration.layers:
        for lbl in layer:
            for t, v in enumerate(standard_vector(alg, lbl).values):
                acc[t] += v
    return tuple(acc)


def delta_layers(alg: AlgebraData, m: Representation) -> DeltaFiltration:
    """Delta-semisimple filtration of Hom(G, m), read off the socle series of m.

    Socle layer y of m contributes one Delta(x, y) per copy of L_x in it.
    """
    poset = lambda_poset(alg)
    layers = []
    for y, layer in enumerate(socle_series(m).layers, start=1):
        labels = []
        for x in range(1, alg.n + 1):
            count = layer.mult[x - 1]
            if count and y > poset.l(x):
                raise RuntimeError(
                    f"socle layer {y} of a module contains L_{x} with y > l_{x}"
                )
            labels.extend([LambdaLabel(x, y)] * count)
        layers.append(tuple(sorted(labels)))
    return DeltaFiltration(tuple(layers))


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
    poset = lambda_poset(alg)
    if not (1 <= k <= alg.n and 1 <= l <= poset.l(k)):
        raise ValueError(f"label {label} outside the Lambda poset")
    big_l = hyp.loewy_length
    prof = socle_series(injective(alg, k))
    count = min(big_l - l + 1, len(prof.layers))
    layers = []
    for y in range(1, count + 1):
        shifted = l + y - 1
        labels = []
        for x in range(1, alg.n + 1):
            cnt = prof.layers[y - 1].mult[x - 1]
            if cnt and shifted > poset.l(x):
                raise RuntimeError(
                    f"tilting layer would need Delta({x},{shifted}) beyond l_{x}"
                )
            labels.extend([LambdaLabel(x, shifted)] * cnt)
        layers.append(tuple(sorted(labels)))
    return DeltaFiltration(tuple(layers))


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
    """C(R(R_A)) with entry[(i,j),(k,l)] = dim Hom(T(i,j), T(k,l)) (closed form)."""
    poset = lambda_poset(alg)
    entries = tuple(
        tuple(tilting_hom_dim(alg, src, tgt) for tgt in poset.labels)
        for src in poset.labels
    )
    return LabeledMatrix(poset.labels, poset.labels, entries)


@memoized
def cartan_ringel_dual(alg: AlgebraData) -> LabeledMatrix:
    """C(R(R_A)) from the tilting classes; valid for every ADR algebra.

    R(R_A) = End(T)^op for T the sum of the T(i,j), so row (i,j) is read off
    [T(i,j)] (:func:`tilting_vector`):
    entry[(i,j),(k,l)] = [T(i,j):L_{k,l_k}] - [T(i,j):L_{k,l-1}],
    the second term 0 when l = 1.
    """
    poset = lambda_poset(alg)
    entries = []
    for i, j in poset.labels:
        t = tilting_vector(alg, LambdaLabel(i, j))
        row = []
        for k, l in poset.labels:
            val = t.value(LambdaLabel(k, poset.l(k)))
            if l > 1:
                val -= t.value(LambdaLabel(k, l - 1))
            if val < 0:
                raise NegativeMultiplicityError(
                    f"Ringel-dual Cartan entry at ({(i, j)},{(k, l)}) = {val}"
                )
            row.append(val)
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
    """C(S_A): entry[[i,j],[k,l]] = [soc_j Q_i / rad^l (soc_j Q_i) : L_k]."""
    labels = sa_labels(alg)
    rows = [
        _cumulative_layers(alg, radical_series(socle_sub(injective(alg, i), j)))
        for i, j in labels
    ]
    entries = tuple(tuple(_first_layers_mult(cums, l, k) for k, l in labels) for cums in rows)
    return LabeledMatrix(labels, labels, entries)


@memoized
def cartan_SA_hom(alg: AlgebraData) -> LabeledMatrix:
    """C(S_A) by the oracle route: dim Hom_A(soc_j Q_i, soc_l Q_k)."""
    labels = sa_labels(alg)
    mods = [socle_sub(injective(alg, i), j) for i, j in labels]
    entries = tuple(tuple(hom_dim(a, b) for b in mods) for a in mods)
    return LabeledMatrix(labels, labels, entries)
