import pytest

from adrkit import theorems
from adrkit.adrcore import LabeledMatrix, lambda_poset, theorem_a_hypotheses
from adrkit.cli import analyze_presentation
from adrkit.corpus import get_entry, nakayama_selfinjective, random_admissible
from adrkit.exactlin import RATIONAL
from adrkit.presentation import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    build_algebra,
)
from adrkit.theorems import (
    FlipMap,
    InternalInconsistencyError,
    Verdict,
    Check,
    check_opposite_symmetry,
    check_theorem_a,
    check_theorem_b,
    ringel_selfdual_verdict,
    _b1_b2,
)


@pytest.fixture(scope="module")
def kx3():
    return get_entry("nakayama-1-3").build()


@pytest.fixture(scope="module")
def a2():
    return get_entry("trunc-a2-2").build()


@pytest.fixture(scope="module")
def cyc2():
    return get_entry("nakayama-2-2").build()


def disconnected_x2_y3():
    q = Quiver(("1", "2"), (Arrow("x", "1", "1"), Arrow("y", "2", "2")))
    return build_algebra(
        AlgebraPresentation(
            RATIONAL,
            q,
            (Relation.monomial(["x", "x"]), Relation.monomial(["y", "y", "y"])),
            3,
        )
    )


def test_theorem_a_kx3(kx3):
    verdict = check_theorem_a(kx3)
    assert verdict.holds
    assert all(c.passed for c in verdict.hypotheses)
    assert len(verdict.evidence) == 3


def test_theorem_a_a2_witness(a2):
    verdict = check_theorem_a(a2)
    assert not verdict.holds
    q_check = next(c for c in verdict.hypotheses if "LL(Q_i)" in c.description)
    assert not q_check.passed
    assert "LL(Q_1)=1" in q_check.witness
    assert verdict.evidence == ()


def test_theorem_a_cyc2(cyc2):
    assert check_theorem_a(cyc2).holds


def test_theorem_a_preprojective():
    assert check_theorem_a(get_entry("preproj-a-2").build()).holds
    assert check_theorem_a(get_entry("preproj-a-3").build()).holds


def test_theorem_b_kx3(kx3):
    verdict = check_theorem_b(kx3)
    assert verdict.holds
    assert verdict.applicable


def test_theorem_b_disconnected_not_applicable():
    verdict = check_theorem_b(disconnected_x2_y3())
    assert not verdict.applicable
    assert not verdict.holds
    components = verdict.details["components"]
    assert len(components) == 2
    assert all(c["holds"] for c in components)


def test_theorem_b_contrapositive_search():
    # look for B1-true instances with a non-rigid projective; on each, B2 must
    # evaluate false; no such instance is known, so absence is acceptable
    found = 0
    for seed in range(200):
        alg = random_admissible(seed).build()
        hyp = theorem_a_hypotheses(alg)
        if not alg.connected:
            continue
        if hyp.ll_p != hyp.ll_q:
            continue
        if all(hyp.rigid_p) and all(hyp.rigid_q):
            continue
        found += 1
        ok, (b1, b2) = _b1_b2(alg)
        assert b1.passed
        assert not b2.passed, f"seed {seed}: B2 holds with a non-rigid module"
    print(f"B1-true non-rigid instances found: {found} (existence not asserted)")


def test_theorem_c_kx3(kx3):
    verdict = ringel_selfdual_verdict(kx3)
    assert verdict.holds
    assert verdict.details["sigma"] == {"1": 1}


def test_theorem_c_a2(a2):
    verdict = ringel_selfdual_verdict(a2)
    assert not verdict.holds
    selfinj = next(c for c in verdict.hypotheses if "selfinjective" in c.description)
    assert not selfinj.passed


def test_theorem_c_cycle3():
    # n=3, L=4: the socle of P_i sits at vertex i + 3 = i mod 3
    alg = nakayama_selfinjective(3, 4).build()
    verdict = ringel_selfdual_verdict(alg)
    assert verdict.holds
    assert verdict.details["sigma"] == {"1": 1, "2": 2, "3": 3}
    # n=3, L=3 twists by a 3-cycle
    alg33 = nakayama_selfinjective(3, 3).build()
    verdict33 = ringel_selfdual_verdict(alg33)
    assert verdict33.holds
    assert verdict33.details["sigma"] == {"1": 3, "2": 1, "3": 2}


def test_theorem_c_disconnected_product():
    verdict = ringel_selfdual_verdict(disconnected_x2_y3())
    assert verdict.holds  # product of selfinjective Nakayama algebras


def test_theorem_c_opposite_stable():
    for entry_id in ("nakayama-2-3", "trunc-a2-2", "preproj-a-3", "trunc-twoloop-2"):
        alg = get_entry(entry_id).build()
        assert (
            ringel_selfdual_verdict(alg).holds
            == ringel_selfdual_verdict(alg.opposite()).holds
        )


def test_opposite_symmetry_examples(kx3, a2, cyc2):
    assert check_opposite_symmetry(kx3).details["b1_b2"] is True
    assert check_opposite_symmetry(a2).details["b1_b2"] is False
    assert check_opposite_symmetry(cyc2).details["b1_b2"] is True


def test_flip_map_validation(kx3, cyc2):
    for alg in (kx3, cyc2):
        poset = lambda_poset(alg)
        flip = FlipMap(max(poset.lengths))
        assert flip.validate(poset.labels)
        for lbl in poset.labels:
            assert flip.apply(flip.apply(lbl)) == lbl


def test_verdict_refuses_inconsistent_holds():
    with pytest.raises(InternalInconsistencyError):
        Verdict(
            name="bogus",
            holds=True,
            hypotheses=(Check("always fails", False),),
            evidence=(),
        )


def test_theorem_b_never_holds_with_nonrigid():
    alg = get_entry("nonrigid-shortcut-3").build()
    verdict = check_theorem_b(alg)
    assert not verdict.holds


def test_triple_route_soundness_on_hypothesis_passing():
    for entry_id in ("nakayama-2-2", "nakayama-3-3", "preproj-a-2", "preproj-a-3", "trunc-twoloop-2"):
        alg = get_entry(entry_id).build()
        if theorem_a_hypotheses(alg).all_ok:
            assert check_theorem_a(alg).holds


def test_semisimple_is_ringel_selfdual():
    q = Quiver(("1", "2"), ())
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (), 1))
    verdict = ringel_selfdual_verdict(alg)
    assert verdict.holds
    assert verdict.details["sigma"] == {"1": 1, "2": 2}


def test_theorem_a_preprojective_a4():
    from adrkit.corpus import preprojective_a

    alg = preprojective_a(4).build()
    assert alg.dim == 20
    assert check_theorem_a(alg).holds
    assert not ringel_selfdual_verdict(alg).holds  # not Nakayama for n >= 3


def test_analyze_builds_each_component_once(monkeypatch):
    # theorems B and C read one list of components; A itself is built by the
    # cli, not by theorems
    calls = []

    def counting_build(pres):
        calls.append(pres.quiver.vertices)
        return build_algebra(pres)

    monkeypatch.setattr(theorems, "build_algebra", counting_build)
    report = analyze_presentation(disconnected_x2_y3().presentation)
    assert report["verdicts"]["theorem_c"]["holds"]
    assert len(report["verdicts"]["theorem_b"]["details"]["components"]) == 2
    assert calls == [("1",), ("2",)]


def test_theorem_a_and_b2_share_the_flip_witness(monkeypatch):
    # bump one entry of C(S_A) on an algebra that passes theorem A: the
    # verdict must raise with the very witness that B2 reports
    real = theorems.cartan_SA_formula

    def bumped(alg):
        m = real(alg)
        entries = [list(row) for row in m.entries]
        entries[0][-1] += 1
        return LabeledMatrix(m.row_labels, m.col_labels, tuple(map(tuple, entries)))

    monkeypatch.setattr(theorems, "cartan_SA_formula", bumped)
    alg = get_entry("nakayama-2-3").build()
    assert theorem_a_hypotheses(alg).all_ok
    ok, (b1, b2) = _b1_b2(alg)
    assert b1.passed and not ok and not b2.passed
    assert b2.witness.startswith("at ")
    with pytest.raises(InternalInconsistencyError) as exc:
        check_theorem_a(get_entry("nakayama-2-3").build())
    assert str(exc.value) == "flip equality fails " + b2.witness
