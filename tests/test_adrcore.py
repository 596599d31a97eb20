import pytest

from adrkit.adrcore import (
    HypothesesNotSatisfiedError,
    LabeledMatrix,
    LambdaLabel,
    NegativeMultiplicityError,
    cartan_RA_formula,
    cartan_RA_hom,
    cartan_ringel_dual,
    cartan_SA_formula,
    cartan_SA_hom,
    costandard_vector,
    delta_layers,
    injective_vector,
    lambda_poset,
    ringel_dual_cartan_from_hom,
    sa_labels,
    standard_vector,
    theorem_a_hypotheses,
    tilting_delta_filtration,
    tilting_hom_dim,
    tilting_vector,
)
from adrkit import adrcore, repmod
from adrkit.cli import analyze_presentation
from adrkit.corpus import builtin_entries, get_entry, random_admissible, tagged_invariant_failures
from adrkit.exactlin import RATIONAL
from adrkit.presentation import AlgebraPresentation, Arrow, Quiver, build_algebra
from adrkit.repmod import injective, projective, simple, socle_sub, truncate


@pytest.fixture(scope="module")
def kx2():
    return get_entry("nakayama-1-2").build()


@pytest.fixture(scope="module")
def kx3():
    return get_entry("nakayama-1-3").build()


@pytest.fixture(scope="module")
def a2():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    return build_algebra(AlgebraPresentation(RATIONAL, q, (), 2))


@pytest.fixture(scope="module")
def cyc2():
    return get_entry("nakayama-2-2").build()


def test_lambda_poset_kx3(kx3):
    poset = lambda_poset(kx3)
    assert poset.labels == (LambdaLabel(1, 1), LambdaLabel(1, 2), LambdaLabel(1, 3))
    assert poset.precedes(LambdaLabel(1, 3), LambdaLabel(1, 2))
    assert poset.precedes(LambdaLabel(1, 2), LambdaLabel(1, 1))
    assert not poset.precedes(LambdaLabel(1, 1), LambdaLabel(1, 3))


def test_lambda_poset_a2(a2):
    poset = lambda_poset(a2)
    assert poset.labels == (LambdaLabel(1, 1), LambdaLabel(1, 2), LambdaLabel(2, 1))
    assert poset.precedes(LambdaLabel(1, 2), LambdaLabel(2, 1))


def test_lambda_poset_cyc2(cyc2):
    assert len(lambda_poset(cyc2).labels) == 4


def test_standard_vector_examples(kx3, a2):
    poset = lambda_poset(kx3)
    assert standard_vector(kx3, LambdaLabel(1, 3)).values == (0, 0, 1)
    assert standard_vector(kx3, LambdaLabel(1, 1)).values == (1, 1, 1)
    # over the A2 quiver l_2 = 1, so Delta(2,1) is simple
    assert standard_vector(a2, LambdaLabel(2, 1)).values == (0, 0, 1)
    with pytest.raises(ValueError):
        standard_vector(a2, LambdaLabel(2, 2))


def test_cartan_ra_kx2(kx2):
    assert cartan_RA_formula(kx2).entries == ((1, 1), (1, 2))
    assert cartan_RA_hom(kx2).entries == ((1, 1), (1, 2))


def test_cartan_ra_kx3_min_formula(kx3):
    mat = cartan_RA_formula(kx3)
    for j in range(1, 4):
        for l in range(1, 4):
            assert mat.entry(LambdaLabel(1, j), LambdaLabel(1, l)) == min(j, l)
    assert cartan_RA_hom(kx3) == mat


def test_cartan_ra_first_column_is_standard(kx3, a2, cyc2):
    # P_{k,1} is the standard module Delta(k,1)
    for alg in (kx3, a2, cyc2):
        mat = cartan_RA_formula(alg)
        for k in range(1, alg.n + 1):
            col = mat.column_vector(LambdaLabel(k, 1))
            assert col.values == standard_vector(alg, LambdaLabel(k, 1)).values


def test_cartan_ra_routes_agree_a2(a2):
    assert cartan_RA_formula(a2) == cartan_RA_hom(a2)
    # columns are the socle filtrations of L_1, P_1, L_2
    assert cartan_RA_formula(a2).entries == ((1, 0, 0), (1, 1, 0), (0, 1, 1))


def test_injective_vector_examples(kx3, kx2):
    assert injective_vector(kx3, LambdaLabel(1, 3)).values == (1, 2, 3)
    assert injective_vector(kx2, LambdaLabel(1, 1)).values == (1, 1)


def test_costandard_is_first_injective_row(kx3, a2, cyc2):
    for alg in (kx3, a2, cyc2):
        for i in range(1, alg.n + 1):
            assert (
                costandard_vector(alg, LambdaLabel(i, 1)).values
                == injective_vector(alg, LambdaLabel(i, 1)).values
            )


def test_tilting_vector_examples(kx3):
    assert tilting_vector(kx3, LambdaLabel(1, 2)).values == (0, 1, 2)
    poset = lambda_poset(kx3)
    # T(i,1) has the class of Q_{i,l_i}
    assert (
        tilting_vector(kx3, LambdaLabel(1, 1)).values
        == injective_vector(kx3, LambdaLabel(1, poset.l(1))).values
    )


def test_tilting_at_max_layer_is_simple_standard(cyc2, kx3):
    # T(k, L) = L_{k,L} = Delta(k,L) when every l_i = L
    for alg in (cyc2, kx3):
        poset = lambda_poset(alg)
        big_l = max(poset.lengths)
        for k in range(1, alg.n + 1):
            values = tilting_vector(alg, LambdaLabel(k, big_l)).values
            unit = tuple(
                1 if lbl == LambdaLabel(k, big_l) else 0 for lbl in poset.labels
            )
            assert values == unit


def test_delta_layers_examples(kx3, a2):
    assert delta_layers(kx3, simple(kx3, 1)).layers == ((LambdaLabel(1, 1),),)
    q1 = injective(kx3, 1)
    assert delta_layers(kx3, q1).layers == (
        (LambdaLabel(1, 1),),
        (LambdaLabel(1, 2),),
        (LambdaLabel(1, 3),),
    )
    p1 = projective(a2, 1)
    assert delta_layers(a2, p1).layers == (
        (LambdaLabel(2, 1),),
        (LambdaLabel(1, 2),),
    )


def test_tilting_delta_filtration_examples(kx3):
    filt = tilting_delta_filtration(kx3, LambdaLabel(1, 2))
    assert filt.layers == ((LambdaLabel(1, 2),), (LambdaLabel(1, 3),))
    # l = 1 reduces to the delta layers of Q_k
    assert (
        tilting_delta_filtration(kx3, LambdaLabel(1, 1)).layers
        == delta_layers(kx3, injective(kx3, 1)).layers
    )
    # l = L collapses to a single simple standard layer
    assert tilting_delta_filtration(kx3, LambdaLabel(1, 3)).layers == (
        (LambdaLabel(1, 3),),
    )


def test_tilting_filtration_requires_hypotheses(a2):
    with pytest.raises(HypothesesNotSatisfiedError) as err:
        tilting_delta_filtration(a2, LambdaLabel(1, 1))
    assert "P_2" in str(err.value) or "LL" in str(err.value)


def test_tilting_hom_dim_examples(kx3):
    assert tilting_hom_dim(kx3, LambdaLabel(1, 1), LambdaLabel(1, 1)) == 3
    assert tilting_hom_dim(kx3, LambdaLabel(1, 1), LambdaLabel(1, 2)) == 2
    with pytest.raises(HypothesesNotSatisfiedError):
        tilting_hom_dim(
            get_entry("trunc-a2-2").build(), LambdaLabel(1, 1), LambdaLabel(1, 1)
        )


def test_tilting_hom_diagonal_positive(cyc2, kx3):
    for alg in (cyc2, kx3):
        for lbl in lambda_poset(alg).labels:
            assert tilting_hom_dim(alg, lbl, lbl) >= 1


def test_cartan_ringel_dual_kx2(kx2):
    assert cartan_ringel_dual(kx2).entries == ((2, 1), (1, 1))


def test_cartan_ringel_dual_kx3(kx3):
    mat = cartan_ringel_dual(kx3)
    for j in range(1, 4):
        for l in range(1, 4):
            assert mat.entry(LambdaLabel(1, j), LambdaLabel(1, l)) == 4 - max(j, l)


def test_cartan_ringel_dual_first_rows(cyc2):
    # at (i,1),(k,1) every correction term vanishes: entry = [Q_{i,l_i}:L_{k,l_k}]
    poset = lambda_poset(cyc2)
    cra = cartan_RA_formula(cyc2)
    crd = cartan_ringel_dual(cyc2)
    for i in range(1, 3):
        for k in range(1, 3):
            expected = cra.entry(
                LambdaLabel(i, poset.l(i)), LambdaLabel(k, poset.l(k))
            )
            assert crd.entry(LambdaLabel(i, 1), LambdaLabel(k, 1)) == expected


def test_cartan_ringel_dual_equals_tilting_hom(kx3, cyc2):
    for alg in (kx3, cyc2):
        assert cartan_ringel_dual(alg) == ringel_dual_cartan_from_hom(alg)


def test_cartan_sa_kx2(kx2):
    assert cartan_SA_formula(kx2).entries == ((1, 1), (1, 2))
    assert cartan_SA_hom(kx2).entries == ((1, 1), (1, 2))


def test_cartan_sa_a2_labels_and_values(a2):
    labels = sa_labels(a2)
    assert labels == (LambdaLabel(1, 1), LambdaLabel(2, 1), LambdaLabel(2, 2))
    mat = cartan_SA_formula(a2)
    # soc_2 Q_2 = Q_2 has top L_1 and socle L_2; both routes give 1 on the
    # diagonal at [2,2] (its column total is the composition length 2)
    assert mat.entry(LambdaLabel(2, 2), LambdaLabel(2, 2)) == 1
    col = mat.column_vector(LambdaLabel(2, 2))
    assert col.total() == 2
    assert cartan_SA_hom(a2) == mat


def test_cartan_sa_simple_socle_rows_are_kronecker(a2, cyc2, kx3):
    for alg in (a2, cyc2, kx3):
        mat = cartan_SA_formula(alg)
        for i in range(1, alg.n + 1):
            for k in range(1, alg.n + 1):
                assert mat.entry(LambdaLabel(i, 1), LambdaLabel(k, 1)) == (
                    1 if i == k else 0
                )


def test_labeled_matrix_rejects_negative():
    with pytest.raises(NegativeMultiplicityError):
        LabeledMatrix(
            (LambdaLabel(1, 1),), (LambdaLabel(1, 1),), ((-1,),)
        )


def test_labeled_lookups_match_label_positions():
    # entry, row_vector and column_vector look labels up in per-matrix dicts;
    # the answer is the one at the label's position in the header
    for seed in range(10):
        alg = random_admissible(seed).build()
        for mat in (cartan_RA_formula(alg), cartan_SA_formula(alg), cartan_ringel_dual(alg)):
            for r, row in enumerate(mat.row_labels):
                assert mat.row_vector(row).values == mat.entries[r]
                for c, col in enumerate(mat.col_labels):
                    assert mat.entry(row, col) == mat.entries[r][c]
                    assert mat.column_vector(col).value(row) == mat.entries[r][c]
    with pytest.raises(KeyError):
        mat.entry(LambdaLabel(alg.n + 1, 1), mat.col_labels[0])


def test_oracle_equality_on_random_sample():
    for seed in range(25):
        alg = random_admissible(500 + seed).build()
        assert cartan_RA_formula(alg) == cartan_RA_hom(alg)
        assert cartan_SA_formula(alg) == cartan_SA_hom(alg)


def test_theorem_a_hypotheses_report(a2, kx3):
    hyp = theorem_a_hypotheses(a2)
    assert not hyp.all_ok
    assert hyp.first_failure() == "LL(Q_1)=1 != L=2"
    assert theorem_a_hypotheses(kx3).all_ok


def test_socle_sub_of_injective_caches(kx3):
    s = socle_sub(injective(kx3, 1), 2)
    assert s.dims == (2,)
    assert truncate(projective(kx3, 1), 2).dims == (2,)


def test_monomial_cartans_field_independent():
    # monomial relations: all three Cartan matrices agree over F_2, F_7 and Q
    from adrkit.exactlin import FieldSpec
    from adrkit.presentation import AlgebraPresentation, build_algebra

    for entry_id in ("nakayama-2-3", "trunc-a3-3", "trunc-twoloop-2"):
        pres = get_entry(entry_id).presentation
        mats = []
        for field in (FieldSpec.prime(2), FieldSpec.prime(7), RATIONAL):
            alg = build_algebra(
                AlgebraPresentation(field, pres.quiver, pres.relations, pres.cap)
            )
            mats.append(
                (
                    cartan_RA_formula(alg).entries,
                    cartan_ringel_dual(alg).entries,
                    cartan_SA_formula(alg).entries,
                )
            )
        assert mats[0] == mats[1] == mats[2], entry_id


def _all_routes(alg, hom_first):
    """(formula routes, Hom routes) of the three Cartan matrices, in the given order."""

    def formula():
        return cartan_RA_formula(alg), cartan_ringel_dual(alg), cartan_SA_formula(alg)

    def hom():
        ringel = (
            ringel_dual_cartan_from_hom(alg) if theorem_a_hypotheses(alg).all_ok else None
        )
        return cartan_RA_hom(alg), ringel, cartan_SA_hom(alg)

    if hom_first:
        h = hom()
        return formula(), h
    f = formula()
    return f, hom()


@pytest.mark.parametrize("entry_id", ["nakayama-2-3", "preproj-a-3", "nonrigid-shortcut-3"])
def test_route_order_cannot_change_results(entry_id):
    # metamorphic: the memo is filled in the opposite order on two fresh builds
    entry = get_entry(entry_id)
    assert _all_routes(entry.build(), hom_first=True) == _all_routes(
        entry.build(), hom_first=False
    )


def test_sa_formula_and_hypotheses_chain_one_module_per_sa_label(monkeypatch):
    # soc_j Q_i for j = LL(Q_i) is Q_i itself, so the radical chains of
    # C(S_A) and of the rigidity test of Q_i run on sum_i LL(Q_i) modules
    real = repmod._radical_step
    seen = {}

    def counting(m, spaces):
        seen[id(m)] = m
        return real(m, spaces)

    monkeypatch.setattr(repmod, "_radical_step", counting)
    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]
    for entry in entries:
        alg = entry.build()
        seen.clear()
        cartan_SA_formula(alg)
        theorem_a_hypotheses(alg)
        assert len(seen) == len(sa_labels(alg)), entry.id


def test_each_module_gets_one_functional_pass(monkeypatch):
    # the functional pass reads a module's own arrow maps, so the formula
    # route of C(R_A) runs it on the truncate(...) objects the Hom route
    # measures, and no module is passed twice: equal representations over
    # one algebra are one module, whoever built them
    real = repmod._socle_functionals
    passes = []

    def spy(m):
        if (real.__qualname__,) not in m._cache:
            passes.append(m)
        return real(m)

    def module_key(m):
        maps = tuple(tuple(map(tuple, m.arrow_maps[a.name].array().tolist()))
                     for a in m.algebra.quiver.arrows)
        return id(m.algebra), m.dims, maps

    monkeypatch.setattr(repmod, "_socle_functionals", spy)
    for entry in builtin_entries():
        analyze_presentation(entry.presentation)
    for seed in range(910000, 910030):
        tagged_invariant_failures(random_admissible(seed).build())
    assert passes and len({module_key(m) for m in passes}) == len(passes)

    real_hom = adrcore.hom_dim
    measured = []
    monkeypatch.setattr(adrcore, "hom_dim", lambda m, n: measured.append(m) or real_hom(m, n))
    for entry in builtin_entries():
        alg = entry.build()
        passes.clear()
        measured.clear()
        cartan_RA_formula(alg)
        cartan_RA_hom(alg)
        truncations = [truncate(projective(alg, k), l) for k, l in lambda_poset(alg).labels]
        assert [id(m) for m in passes] == [id(m) for m in truncations], entry.id
        assert {id(m) for m in measured} == {id(m) for m in truncations}, entry.id
