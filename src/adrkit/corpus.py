"""Builtin algebra generators, a seeded random sampler, and the fuzz battery.

The invariant suite collects every cross-route identity the package promises
(oracle equalities, column decompositions, telescoping, tilting identities,
theorem consistency) into one callable shared by the CLI fuzz subcommand and
the acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .adrcore import (
    LambdaLabel,
    NegativeMultiplicityError,
    _delta_class,
    _delta_filtration,
    cartan_RA_formula,
    cartan_RA_hom,
    cartan_ringel_dual,
    cartan_SA_formula,
    cartan_SA_hom,
    costandard_vector,
    injective_vector,
    lambda_poset,
    theorem_a_hypotheses,
    tilting_delta_filtration,
    tilting_vector,
)
from .exactlin import RATIONAL, FieldSpec
from .presentation import (
    AlgebraData,
    AlgebraPresentation,
    Arrow,
    PresentationError,
    Quiver,
    Relation,
    _loewy_lengths,
    build_algebra,
    enumerate_paths,
    unsatisfied_relation,
)
from .repmod import (
    composition_vector,
    injective,
    projective,
    radical_series,
    series_by_level,
    socle_series,
)
from .theorems import (
    InternalInconsistencyError,
    check_opposite_symmetry,
    check_theorem_a,
    check_theorem_b,
    duality_failures,
    ringel_selfdual_verdict,
)


class GenerationExhaustedError(RuntimeError):
    """The random sampler ran out of retries without a buildable presentation."""


@dataclass
class CorpusEntry:
    id: str
    presentation: AlgebraPresentation
    expected: dict | None = None

    def build(self) -> AlgebraData:
        return build_algebra(self.presentation)


def _cyclic_quiver(n: int) -> Quiver:
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(
        Arrow(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)
    )
    return Quiver(vertices, arrows)


def nakayama_selfinjective(n: int, big_l: int, field: FieldSpec = RATIONAL) -> CorpusEntry:
    """Cyclic quiver on n vertices, all paths of length L zero; cap = L."""
    if n < 1 or big_l < 2:
        raise ValueError("need n >= 1 and L >= 2")
    q = _cyclic_quiver(n)
    relations = tuple(
        Relation.monomial(p.arrows) for p in enumerate_paths(q, big_l)[big_l]
    )
    pres = AlgebraPresentation(field, q, relations, big_l)
    return CorpusEntry(
        id=f"nakayama-{n}-{big_l}",
        presentation=pres,
        expected={
            "dim": n * big_l,
            "loewy_length": big_l,
            "theorem_a": True,
            "theorem_c": True,
        },
    )


def truncated_path_algebra(q: Quiver, big_l: int, field: FieldSpec = RATIONAL, id: str | None = None) -> CorpusEntry:
    """KQ with all paths of length L set to zero; always admissible at cap = L."""
    if big_l < 1:
        raise ValueError("need L >= 1")
    relations = tuple(
        Relation.monomial(p.arrows) for p in enumerate_paths(q, big_l)[big_l]
    )
    pres = AlgebraPresentation(field, q, relations, big_l)
    return CorpusEntry(id=id or f"trunc-{big_l}", presentation=pres)


def linear_quiver(n: int) -> Quiver:
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    return Quiver(vertices, arrows)


def preprojective_a(n: int, field: FieldSpec = RATIONAL) -> CorpusEntry:
    """Doubled A_n quiver with the per-vertex out-and-back differences; cap n+1.

    At an interior vertex v the relation is [a_v, b_v] - [b_{v-1}, a_{v-1}];
    at the ends the single surviving loop is set to zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(
        Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)
    ) + tuple(Arrow(f"b{i}", str(i + 1), str(i)) for i in range(1, n))
    relations = []
    for v in range(1, n + 1):
        fwd = (f"a{v}", f"b{v}") if v < n else None
        bwd = (f"b{v - 1}", f"a{v - 1}") if v > 1 else None
        if fwd and bwd:
            relations.append(Relation.difference(fwd, bwd))
        elif fwd:
            relations.append(Relation.monomial(fwd))
        else:
            relations.append(Relation.monomial(bwd))
    pres = AlgebraPresentation(field, Quiver(vertices, arrows), tuple(relations), n + 1)
    return CorpusEntry(
        id=f"preproj-a-{n}",
        presentation=pres,
        expected={"theorem_a": True, "theorem_c": n == 2},
    )


def nakayama_kupisch(c: tuple[int, ...], cyclic: bool, field: FieldSpec = RATIONAL) -> CorpusEntry:
    """The Nakayama algebra of the Kupisch series c = (c_1, ..., c_n) on the arrows a_k: k -> k+1.

    The quiver is linear, or cyclic with a_n: n -> 1.  P_k is uniserial with
    composition factors k, k+1, ..., k+c_k-1 (mod n when cyclic): the
    relations are the paths of length c_k out of each k, and the cap is
    max c_k.  A Kupisch series has c_{k+1} >= c_k - 1 (around the cycle when
    cyclic) and every c_k >= 2, except on a linear quiver, where c_n = 1 and
    c_k <= n - k + 1.  Any other c raises ``ValueError``.
    """
    n, kind = len(c), "cyclic" if cyclic else "linear"
    if cyclic:
        valid = n >= 1 and min(c) >= 2 and all(c[(k + 1) % n] >= c[k] - 1 for k in range(n))
    else:
        valid = (
            n >= 1
            and c[-1] == 1
            and all(2 <= c[k] <= n - k for k in range(n - 1))
            and all(c[k + 1] >= c[k] - 1 for k in range(n - 1))
        )
    if not valid:
        raise ValueError(f"{c} is not a Kupisch series of a {kind} quiver")
    q = _cyclic_quiver(n) if cyclic else linear_quiver(n)
    relations = tuple(
        Relation.monomial([f"a{(k + t) % n + 1}" for t in range(c[k])])
        for k in range(n)
        if cyclic or k + c[k] < n
    )
    pres = AlgebraPresentation(field, q, relations, max(c))
    return CorpusEntry(
        id=f"kupisch-{kind}-{'-'.join(map(str, c))}",
        presentation=pres,
        expected={"dim": sum(c), "loewy_length": max(c), "theorem_c": len(set(c)) == 1 and (cyclic or n == 1)},
    )


def nonrigid_shortcut() -> CorpusEntry:
    """Relation-free 3-vertex algebra (1->2->3 plus 1->3) with P_1 not rigid.

    rad^2 P_1 is one-dimensional while soc_1 P_1 is two-dimensional; pinned as
    the regression fixture for the non-rigid projective search.
    """
    q = Quiver(
        ("1", "2", "3"),
        (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")),
    )
    pres = AlgebraPresentation(RATIONAL, q, (), 3)
    return CorpusEntry(
        id="nonrigid-shortcut-3",
        presentation=pres,
        expected={"dim": 7, "theorem_a": False, "theorem_c": False, "rigid_p1": False},
    )


def builtin_entries() -> list[CorpusEntry]:
    entries = [
        nakayama_selfinjective(n, big_l)
        for n in range(1, 5)
        for big_l in range(2, 6)
    ]
    entries.append(
        truncated_path_algebra(linear_quiver(2), 2, id="trunc-a2-2")
    )
    entries.append(
        truncated_path_algebra(linear_quiver(3), 3, id="trunc-a3-3")
    )
    entries.append(
        truncated_path_algebra(linear_quiver(3), 2, id="trunc-a3-2")
    )
    entries.append(
        truncated_path_algebra(
            Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1"))),
            2,
            id="trunc-twoloop-2",
        )
    )
    entries.append(
        truncated_path_algebra(
            Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2"))),
            2,
            id="trunc-kronecker-2",
        )
    )
    entries.append(preprojective_a(2))
    entries.append(preprojective_a(3))
    entries.append(nonrigid_shortcut())
    return entries


def entry_ids() -> list[str]:
    return [e.id for e in builtin_entries()]


def get_entry(entry_id: str) -> CorpusEntry:
    for e in builtin_entries():
        if e.id == entry_id:
            return e
    raise KeyError(f"unknown corpus id {entry_id!r}")


MAX_VERTICES = 4
MAX_ARROWS = 4
MAX_RELATIONS = 3
MAX_CAP = 5
RETRIES = 64


_PRIMES = (2, 3, 5, 7, 11, 13)


def _sample_presentation(rng: random.Random) -> AlgebraPresentation | None:
    n = rng.randint(1, MAX_VERTICES)
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(
        Arrow(f"a{t}", str(rng.randint(1, n)), str(rng.randint(1, n)))
        for t in range(1, rng.randint(1, MAX_ARROWS) + 1)
    )
    quiver = Quiver(vertices, arrows)
    cap = rng.randint(2, MAX_CAP)
    rational = rng.random() < 0.2
    field = RATIONAL if rational else FieldSpec.prime(rng.choice(_PRIMES))
    graded = enumerate_paths(quiver, cap)
    if sum(len(layer) for layer in graded) > (80 if rational else 160):
        return None

    relations: list[Relation] = []
    cap_paths = graded[cap]
    if cap_paths or rng.random() < 0.5:
        relations.extend(Relation.monomial(p.arrows) for p in cap_paths)
        for _ in range(rng.randint(0, MAX_RELATIONS)):
            d = rng.randint(2, max(2, cap - 1))
            if d >= len(graded) or not graded[d]:
                continue
            path = rng.choice(graded[d])
            parallel = [
                p for p in graded[d]
                if (p.source, p.target) == (path.source, path.target) and p != path
            ]
            style = rng.random()
            if style < 0.6 or not parallel:
                relations.append(Relation.monomial(path.arrows))
            elif style < 0.95:
                other = rng.choice(parallel)
                coeff = rng.choice([1, 1, 1, 2, -1])
                relations.append(
                    Relation(((1, path.arrows), (-coeff, other.arrows)))
                )
            else:
                longer = [
                    p
                    for dd in range(d + 1, cap)
                    for p in graded[dd]
                    if (p.source, p.target) == (path.source, path.target)
                ]
                if longer:
                    relations.append(
                        Relation(((1, path.arrows), (-1, rng.choice(longer).arrows)))
                    )
                else:
                    relations.append(Relation.monomial(path.arrows))
    return AlgebraPresentation(field, quiver, tuple(relations), cap)


def random_admissible(seed: int) -> CorpusEntry:
    """Deterministic random admissible presentation; retries until it builds."""
    rng = random.Random(seed)
    for _ in range(RETRIES):
        pres = _sample_presentation(rng)
        if pres is None:
            continue
        try:
            alg = build_algebra(pres)
        except PresentationError:
            continue
        rational = pres.field == RATIONAL
        if alg.dim > (12 if rational else 24):
            continue
        labels = sum(_loewy_lengths(alg)[0])  # sum LL(P_i)
        if labels > (8 if rational else 16):
            continue
        return CorpusEntry(id=f"random-{seed}", presentation=pres)
    raise GenerationExhaustedError(f"no admissible presentation after {RETRIES} tries (seed={seed})")


def tagged_invariant_failures(alg: AlgebraData) -> list[tuple[str, str]]:
    """Every cross-route identity on one algebra, as (category, message) pairs.

    Categories: "oracle" (formula vs Hom route, Cartan duality of A and A^op),
    "structural" (A and A^op satisfy their relations, column decomposition,
    telescoping, tilting layer data, Grothendieck bookkeeping), "triple" (the
    three Ringel-dual Cartan routes under the identification hypotheses),
    "theorem_b" (B1/B2 consistency and opposite symmetry).
    """
    failures: list[tuple[str, str]] = []

    def check(category: str, cond: bool, msg: str) -> None:
        if not cond:
            failures.append((category, msg))

    def guarded(category: str, fn) -> None:
        try:
            fn()
        except (InternalInconsistencyError, NegativeMultiplicityError, RuntimeError) as exc:
            failures.append((category, f"exception: {exc}"))

    poset = lambda_poset(alg)

    def oracle_section() -> None:
        check(
            "oracle",
            cartan_RA_formula(alg) == cartan_RA_hom(alg),
            "C(R_A): formula and Hom routes disagree",
        )
        check(
            "oracle",
            cartan_SA_formula(alg) == cartan_SA_hom(alg),
            "C(S_A): formula and Hom routes disagree",
        )
        cartan_ringel_dual(alg)  # non-negativity asserted inside

    def duality_section() -> None:
        failures.extend(("oracle", msg) for msg in duality_failures(alg))

    def bookkeeping_section() -> None:
        for side, side_alg in (("A", alg), ("A^op", alg.opposite())):
            bad = unsatisfied_relation(side_alg)
            if bad is not None:
                terms = " + ".join(f"{c}*{'*'.join(path.arrows)}" for c, path in bad)
                failures.append(("structural", f"{side} does not satisfy its relation {terms}"))
        for i in range(1, alg.n + 1):
            p_i = projective(alg, i)
            q_i = injective(alg, i)
            check(
                "structural",
                socle_series(p_i).total() == composition_vector(p_i),
                f"socle layers of P_{i} do not sum to its composition vector",
            )
            check(
                "structural",
                radical_series(q_i).total() == composition_vector(q_i),
                f"radical layers of Q_{i} do not sum to its composition vector",
            )
            for j in range(1, alg.n + 1):
                check(
                    "structural",
                    composition_vector(projective(alg, j)).mult[i - 1]
                    == composition_vector(injective(alg, i)).mult[j - 1],
                    f"[P_{j}:L_{i}] != [Q_{i}:L_{j}]",
                )

    def column_decomposition_section() -> None:
        cra = cartan_RA_formula(alg)
        for k, l in poset.labels:
            col = cra.column_vector(LambdaLabel(k, l))
            filt = _delta_filtration(alg, series_by_level(projective(alg, k))[l].layers, 1)
            check(
                "structural",
                _delta_class(alg, filt) == col.values,
                f"column of C(R_A) at {(k, l)} does not decompose into standards",
            )
        for i in range(1, alg.n + 1):
            acc = [0] * len(poset.labels)
            for j in range(1, poset.l(i) + 1):
                for t, v in enumerate(costandard_vector(alg, LambdaLabel(i, j)).values):
                    acc[t] += v
            check(
                "structural",
                tuple(acc) == injective_vector(alg, LambdaLabel(i, poset.l(i))).values,
                f"costandard telescoping fails at i={i}",
            )

    def tilting_section() -> None:
        hyp = theorem_a_hypotheses(alg)
        if not hyp.projective_side_ok:
            return
        big_l = hyp.loewy_length
        for k in range(1, alg.n + 1):
            ll_qk = len(radical_series(injective(alg, k)))
            socle_layers_qk = socle_series(injective(alg, k)).layers
            prev_layers = None
            for l in range(1, poset.l(k) + 1):
                label = LambdaLabel(k, l)
                filt = tilting_delta_filtration(alg, label)
                tv = tilting_vector(alg, label)
                check(
                    "structural",
                    _delta_class(alg, filt) == tv.values,
                    f"tilting Delta-route != nabla-route at {(k, l)}",
                )
                check(
                    "structural",
                    len(filt.layers) == min(big_l - l + 1, ll_qk),
                    f"tilting layer count at {(k, l)} is not min(L-l+1, LL Q_k)",
                )
                if prev_layers is not None:
                    check(
                        "structural",
                        len(filt.layers) <= prev_layers,
                        f"tilting layer count increased from l-1 to l at {(k, l)}",
                    )
                prev_layers = len(filt.layers)
                rank_from_vector = sum(
                    tv.value(LambdaLabel(i, poset.l(i))) for i in range(1, alg.n + 1)
                )
                check(
                    "structural",
                    filt.rank() == rank_from_vector,
                    f"rank of T{(k, l)} differs from its L_(i,l_i) count",
                )
                socle_part = _delta_filtration(alg, socle_layers_qk[: big_l - l + 1], 1)
                check(
                    "structural",
                    rank_from_vector == socle_part.rank(),
                    f"rank of T{(k, l)} differs from rank of soc_(L-l+1) Q_{k}",
                )

    def triple_route_section() -> None:
        if theorem_a_hypotheses(alg).all_ok:
            verdict_a = check_theorem_a(alg)
            check(
                "triple",
                verdict_a.holds,
                "theorem A verdict false despite passing hypotheses",
            )

    def theorem_b_section() -> None:
        check_theorem_b(alg)
        check_opposite_symmetry(alg)

    def selfdual_section() -> None:
        v_c = ringel_selfdual_verdict(alg)
        v_c_op = ringel_selfdual_verdict(alg.opposite())
        check(
            "theorem_b",
            v_c.holds == v_c_op.holds,
            "Ringel selfduality verdict differs between A and A^op",
        )

    guarded("oracle", oracle_section)
    guarded("oracle", duality_section)
    guarded("structural", bookkeeping_section)
    guarded("structural", column_decomposition_section)
    guarded("structural", tilting_section)
    guarded("triple", triple_route_section)
    guarded("theorem_b", theorem_b_section)
    guarded("theorem_b", selfdual_section)
    return failures


def run_invariant_suite(alg: AlgebraData) -> list[str]:
    """Every cross-route identity on one algebra; returns failure messages."""
    return [f"{category}: {msg}" for category, msg in tagged_invariant_failures(alg)]


def run_fuzz(samples: int, seed: int) -> dict:
    """Invariant suite over `samples` seeded random algebras; summary dict."""
    passed = 0
    first_failures: list[dict] = []
    for t in range(samples):
        entry = random_admissible(seed + t)
        fails = run_invariant_suite(entry.build())
        if fails:
            first_failures.append({"seed": seed + t, "failures": fails})
        else:
            passed += 1
    return {
        "samples": samples,
        "passed": passed,
        "failed": samples - passed,
        "first_failures": first_failures[:10],
    }
