"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The lines print through pytest's capture, so any `pytest` invocation shows
them.  The fuzz-backed criteria share one pass over the builtin corpus plus
1000 seeded random admissible algebras.
"""

import time

import pytest

from adrkit.adrcore import (
    LambdaLabel,
    _delta_class,
    cartan_ringel_dual,
    cartan_RA_formula,
    cartan_SA_formula,
    lambda_poset,
    tilting_delta_filtration,
    tilting_vector,
)
from adrkit.corpus import (
    builtin_entries,
    get_entry,
    random_admissible,
    tagged_invariant_failures,
)
from adrkit.theorems import FlipMap, check_theorem_a, ringel_selfdual_verdict

FUZZ_SEED = 910_000
FUZZ_SAMPLES = 1000


@pytest.fixture
def announce(capsys):
    """Print one [ACCEPTANCE n] PASS/FAIL line per criterion, capture or not."""

    def _announce(num: int, desc: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n[ACCEPTANCE {num}] {status} - {desc}{suffix}")
        assert passed, f"criterion {num} failed: {desc} {detail}"

    return _announce


def _flip_equality_exact(alg) -> bool:
    poset = lambda_poset(alg)
    flip = FlipMap(max(poset.lengths))
    crd = cartan_ringel_dual(alg)
    csa = cartan_SA_formula(alg)
    return all(
        crd.entry(row, col) == csa.entry(flip.apply(row), flip.apply(col))
        for row in poset.labels
        for col in poset.labels
    )


def test_criterion_1_kx2_end_to_end(announce):
    start = time.monotonic()
    alg = get_entry("nakayama-1-2").build()
    ok = cartan_RA_formula(alg).entries == ((1, 1), (1, 2))
    ok = ok and cartan_ringel_dual(alg).entries == ((2, 1), (1, 1))
    ok = ok and cartan_SA_formula(alg).entries == ((1, 1), (1, 2))
    ok = ok and _flip_equality_exact(alg)
    ok = ok and ringel_selfdual_verdict(alg).holds
    elapsed = time.monotonic() - start
    announce(
        1,
        "K[x]/(x^2): C(R_A), C(R(R_A)), C(S_A), flip equality, selfduality verdict",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_kx3_end_to_end(announce):
    start = time.monotonic()
    alg = get_entry("nakayama-1-3").build()
    cra = cartan_RA_formula(alg)
    crd = cartan_ringel_dual(alg)
    ok = all(
        cra.entry(LambdaLabel(1, j), LambdaLabel(1, l)) == min(j, l)
        and crd.entry(LambdaLabel(1, j), LambdaLabel(1, l)) == 4 - max(j, l)
        for j in range(1, 4)
        for l in range(1, 4)
    )
    ok = ok and _flip_equality_exact(alg)
    label = LambdaLabel(1, 2)
    ok = ok and _delta_class(alg, tilting_delta_filtration(alg, label)) == (0, 1, 2)
    ok = ok and tilting_vector(alg, label).values == (0, 1, 2)
    elapsed = time.monotonic() - start
    announce(
        2,
        "K[x]/(x^3): min(j,l) and 4-max(j,l) Cartans, flip equality, T(1,2) routes",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_3_nakayama_sweep(announce):
    start = time.monotonic()
    bad = []
    for n in range(1, 5):
        for big_l in range(2, 6):
            alg = get_entry(f"nakayama-{n}-{big_l}").build()
            if not check_theorem_a(alg).holds:
                bad.append((n, big_l, "theorem_a"))
            if not ringel_selfdual_verdict(alg).holds:
                bad.append((n, big_l, "theorem_c"))
    elapsed = time.monotonic() - start
    announce(
        3,
        "selfinjective Nakayama sweep n<=4, L<=5: identification + selfduality",
        not bad and elapsed < 30.0,
        f"{elapsed:.1f}s" + (f", failures {bad}" if bad else ""),
    )


def test_criterion_4_negative_controls(announce):
    results = []
    for entry_id, big_l in (("trunc-a2-2", 2), ("trunc-a3-3", 3)):
        start = time.monotonic()
        alg = get_entry(entry_id).build()
        verdict = check_theorem_a(alg)
        q_check = next(c for c in verdict.hypotheses if "LL(Q_i)" in c.description)
        witness_ok = (
            not verdict.holds
            and not q_check.passed
            and q_check.witness == f"LL(Q_1)=1 != L={big_l}"
        )
        c_false = not ringel_selfdual_verdict(alg).holds
        elapsed = time.monotonic() - start
        results.append((entry_id, witness_ok and c_false and elapsed < 1.0, elapsed))
    ok = all(r[1] for r in results)
    announce(
        4,
        "negative controls A_2, A_3: hypothesis failure with witness i=1, no selfduality",
        ok,
        ", ".join(f"{rid} {t:.3f}s" for rid, _, t in results),
    )


@pytest.fixture(scope="module")
def fuzz_results():
    tally: dict = {"oracle": [], "triple": [], "structural": [], "theorem_b": []}
    start = time.monotonic()
    entries = list(builtin_entries())
    entries.extend(random_admissible(FUZZ_SEED + t) for t in range(FUZZ_SAMPLES))
    hypothesis_passing = 0
    for entry in entries:
        alg = entry.build()
        from adrkit.adrcore import theorem_a_hypotheses

        if theorem_a_hypotheses(alg).all_ok:
            hypothesis_passing += 1
        for category, msg in tagged_invariant_failures(alg):
            tally.setdefault(category, []).append((entry.id, msg))
    tally["wall"] = time.monotonic() - start
    tally["count"] = len(entries)
    tally["hypothesis_passing"] = hypothesis_passing
    return tally


def test_criterion_5_oracle_equality(announce, fuzz_results):
    failures = fuzz_results["oracle"]
    ok = not failures and fuzz_results["wall"] < 600.0
    announce(
        5,
        f"oracle equality of both Cartan routes on corpus + {FUZZ_SAMPLES} random algebras",
        ok,
        f"{fuzz_results['count']} instances in {fuzz_results['wall']:.0f}s"
        + (f"; failures {failures[:3]}" if failures else ""),
    )


def test_criterion_6_triple_route_agreement(announce, fuzz_results):
    failures = fuzz_results["triple"]
    announce(
        6,
        "triple-route Ringel-dual Cartan agreement on hypothesis-passing instances",
        not failures,
        f"{fuzz_results['hypothesis_passing']} hypothesis-passing instances"
        + (f"; failures {failures[:3]}" if failures else ""),
    )


def test_criterion_7_structural_identities(announce, fuzz_results):
    failures = fuzz_results["structural"]
    announce(
        7,
        "column decomposition, telescoping, rank identity, tilting layer counts",
        not failures,
        f"failures {failures[:3]}" if failures else "",
    )


def test_criterion_8_theorem_b_consistency(announce, fuzz_results):
    failures = fuzz_results["theorem_b"]
    announce(
        8,
        "B1+B2 consistency and opposite-symmetry biconditional on every instance",
        not failures,
        f"failures {failures[:3]}" if failures else "",
    )


def test_criterion_9_preprojective_fixtures(announce):
    start = time.monotonic()
    ok = all(
        check_theorem_a(get_entry(f"preproj-a-{n}").build()).holds for n in (2, 3)
    )
    elapsed = time.monotonic() - start
    announce(
        9,
        "preprojective A_2 and A_3 pass the Ringel-dual identification check",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )
