import sys

import pytest

import chain_oracle as oracle
from adrkit import repmod, theorems
from adrkit.adrcore import (
    LabeledMatrix,
    cartan_RA_formula,
    cartan_ringel_dual,
    cartan_SA_formula,
    theorem_a_hypotheses,
)
from adrkit.cli import analyze_presentation
from adrkit.corpus import (
    builtin_entries,
    get_entry,
    nakayama_selfinjective,
    random_admissible,
    tagged_invariant_failures,
)
from adrkit.exactlin import RATIONAL
from adrkit.presentation import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    build_algebra,
    connected_components,
    opposite_presentation,
    restrict_presentation,
)
from adrkit.theorems import (
    InternalInconsistencyError,
    Verdict,
    Check,
    check_opposite_symmetry,
    check_theorem_a,
    check_theorem_b,
    ringel_selfdual_verdict,
    _b1_b2,
)
from adrkit.repmod import Representation, injective, is_rigid, projective


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


def _spy(monkeypatch, real, record) -> None:
    """Pass the arguments of every call of ``real``, from any adrkit module, to ``record``."""

    def spied(*args):
        record(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("adrkit") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, spied)


def _count_builds(monkeypatch) -> list:
    """Record the vertices of every ``build_algebra`` call, from any adrkit module."""
    calls = []
    _spy(monkeypatch, build_algebra, lambda args: calls.append(args[0].quiver.vertices))
    return calls


def test_each_input_is_built_once(monkeypatch):
    # A^op and the components are read off A's normal forms: analyze builds A
    # alone, and the battery builds nothing
    pres = disconnected_x2_y3().presentation
    calls = _count_builds(monkeypatch)
    report = analyze_presentation(pres)
    assert report["verdicts"]["theorem_c"]["holds"]
    assert len(report["verdicts"]["theorem_b"]["details"]["components"]) == 2
    assert calls == [("1", "2")]
    for alg in (disconnected_x2_y3(), get_entry("preproj-a-3").build()):
        calls.clear()
        assert tagged_invariant_failures(alg) == []
        assert calls == []


def test_reports_never_run_the_general_socle_code(monkeypatch):
    # every module a report measures is graded, so the general socle chain,
    # the reference its read-offs are tested against, stays out of analyze
    # and the battery
    general = (repmod.socle_chain, repmod.quotient_representation, repmod._socle_subspaces)
    calls = []
    for real in general:
        _spy(monkeypatch, real, lambda args, name=real.__name__: calls.append(name))
    for entry in builtin_entries():
        analyze_presentation(entry.presentation)
    for seed in range(910000, 910030):
        tagged_invariant_failures(random_admissible(seed).build())
    assert calls == []
    # the spies are live: an ungraded module goes through all three
    p = projective(get_entry("preproj-a-3").build(), 1)
    repmod.socle_chain(oracle.ungraded(p))
    assert set(calls) == {real.__name__ for real in general}


def _disjoint_union(*presentations: AlgebraPresentation) -> AlgebraPresentation:
    """One presentation of the product algebra; names get the prefix ``<position>.``."""
    vertices, arrows, relations = [], [], []
    for k, p in enumerate(presentations):
        vertices += [f"{k}.{v}" for v in p.quiver.vertices]
        arrows += [
            Arrow(f"{k}.{a.name}", f"{k}.{a.source}", f"{k}.{a.target}") for a in p.quiver.arrows
        ]
        relations += [
            Relation(tuple((c, tuple(f"{k}.{x}" for x in names)) for c, names in rel.terms))
            for rel in p.relations
        ]
    return AlgebraPresentation(
        presentations[0].field,
        Quiver(tuple(vertices), tuple(arrows)),
        tuple(relations),
        max(p.cap for p in presentations),
    )


def _basis_free(alg) -> tuple:
    """Everything the reports read off an algebra that does not depend on its basis."""
    n = alg.n
    verdicts = (check_theorem_a, check_theorem_b, ringel_selfdual_verdict, check_opposite_symmetry)
    return (
        [projective(alg, i).dims for i in range(1, n + 1)],
        [injective(alg, i).dims for i in range(1, n + 1)],
        [m(alg) for m in (cartan_RA_formula, cartan_ringel_dual, cartan_SA_formula)],
        [v(alg).to_dict() for v in verdicts],
    )


def _pin_cases():
    for entry in builtin_entries():
        yield entry.id, entry.presentation
    for seed in range(910000, 910150):
        yield f"random-{seed}", random_admissible(seed).presentation
    yield "three components", _disjoint_union(
        get_entry("preproj-a-3").presentation,
        get_entry("nakayama-2-3").presentation,
        random_admissible(910028).presentation,
    )


def test_derived_opposite_and_components_match_rebuilt_ones():
    # a derived A^op may have another basis than a rebuilt one, so only
    # basis-free data is compared; a component slice keeps the column order of
    # each parallel class, so it equals the rebuilt component outright
    other_basis = several = 0
    for name, pres in _pin_cases():
        alg = build_algebra(pres)
        op = build_algebra(opposite_presentation(pres))
        assert _basis_free(alg.opposite()) == _basis_free(op), name
        other_basis += alg.opposite().basis != op.basis
        comps = alg.components()
        rebuilt = [
            build_algebra(restrict_presentation(pres, c)) for c in connected_components(pres.quiver)
        ]
        for comp, built in zip(comps, rebuilt, strict=True):
            assert (comp.basis, comp.act, comp.normal) == (built.basis, built.act, built.normal), name
        assert [_basis_free(c) for c in comps] == [_basis_free(c) for c in rebuilt], name
        several += len(comps) >= 3
    assert other_basis >= 4 and several >= 1


def _pass_data(m) -> tuple:
    """A module's maps and grading, and what the formula routes read off its tagged pass."""
    maps = {name: mat.array().tolist() for name, mat in m.arrow_maps.items()}
    reads = (repmod._tagged_pass(m), repmod._level_series(m), is_rigid(m))
    return m.dims, maps, m.radical_degrees, m.socle_degrees, reads


def test_each_injective_reads_the_radical_pass_of_its_own_maps():
    # Q_i = D(P^op_i) runs no pass: it reads the functional pass of P^op_i.
    # A copy of Q_i without that link, the same maps under the same socle
    # grading, runs its own radical pass, which must be the pass Q_i reads,
    # step by step, with the same level series and rigidity
    for name, pres in _pin_cases():
        alg = build_algebra(pres)
        for i in range(1, alg.n + 1):
            q = injective(alg, i)
            assert q.source == (projective(alg.opposite(), i), tuple(range(1, alg.n + 1)))
            own = Representation(alg, q.dims, q.arrow_maps, socle_degrees=q.socle_degrees)
            assert repmod._radical_pass(own) == repmod._tagged_pass(q), (name, i)
            assert _pass_data(own) == _pass_data(q), (name, i)
            assert (repmod._radical_pass.__qualname__,) not in q._cache


def test_component_modules_are_those_of_the_rebuilt_components():
    # P_i and Q_i of a component are A's, cut to the component's vertices, and
    # read A's passes there; they must be the modules of the component built
    # on its own: maps, grading, pass, level series and rigidity
    components = 0
    for name, pres in _pin_cases():
        alg = build_algebra(pres)
        for comp, vertices in zip(alg.components(), connected_components(pres.quiver), strict=True):
            if comp is alg:
                continue
            whole, at = comp.component_of
            assert whole is alg and at == tuple(pres.quiver.index(v) for v in vertices)
            built = build_algebra(restrict_presentation(pres, vertices))
            for root in (projective, injective):
                for i in range(1, comp.n + 1):
                    m = root(comp, i)
                    assert m.source == (root(alg, at[i - 1]), at)
                    assert _pass_data(m) == _pass_data(root(built, i)), (name, root.__name__, i)
            components += 1
    assert components >= 100


def test_theorem_a_runs_once_per_algebra_in_analyze(monkeypatch):
    # theorem C's corroboration reads the theorem A verdict of every
    # component, and a connected algebra is its own component: the verdict is
    # memoized, so its closed-form Hom route runs once per algebra
    calls = []
    real = theorems.ringel_dual_cartan_from_hom
    monkeypatch.setattr(theorems, "ringel_dual_cartan_from_hom", lambda alg: calls.append(alg) or real(alg))
    selfdual = 0
    for name, pres in _pin_cases():
        calls.clear()
        report = analyze_presentation(pres)
        assert len({id(alg) for alg in calls}) == len(calls), name
        if report["verdicts"]["theorem_c"]["holds"] and report["algebra"]["connected"]:
            assert len(calls) == 1, name
            selfdual += 1
    assert selfdual >= 10


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


def _entrywise_flip_mismatch(alg, crd, csa) -> str | None:
    """The flip comparison by one label lookup per entry: the reference for the index permutation."""
    poset = theorems.lambda_poset(alg)

    def flip(label):
        return type(label)(label.i, poset.l(label.i) - label.j + 1)

    for row in poset.labels:
        for col in poset.labels:
            lhs, rhs = crd.entry(row, col), csa.entry(flip(row), flip(col))
            if lhs != rhs:
                return f"at {tuple(row)},{tuple(col)}: {lhs} != {rhs}"
    return None


@pytest.mark.parametrize("bumps", [(), ((0, -1),), ((-1, 0),), ((2, 1), (1, 3)), ((1, 3), (1, 0), (3, 3))])
def test_flip_permutation_matches_the_entrywise_reference(monkeypatch, bumps):
    # bump entries of C(S_A): the first mismatch in row-major order, and its
    # witness, are those of the entrywise comparison
    real = theorems.cartan_SA_formula

    def bumped(alg):
        m = real(alg)
        entries = [list(row) for row in m.entries]
        for r, c in bumps:
            entries[r % len(entries)][c % len(entries)] += 1
        return LabeledMatrix(m.row_labels, m.col_labels, tuple(map(tuple, entries)))

    monkeypatch.setattr(theorems, "cartan_SA_formula", bumped)
    seen = 0
    for entry in builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]:
        alg = entry.build()
        hyp = theorem_a_hypotheses(alg)
        if hyp.ll_p != hyp.ll_q:
            continue
        expected = _entrywise_flip_mismatch(alg, cartan_ringel_dual(alg), bumped(alg))
        assert theorems._flip_mismatch(alg) == expected, entry.id
        seen += expected is not None
    assert seen > 10 if bumps else seen > 0
