import dataclasses
from itertools import accumulate
from operator import add

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
from adrkit.repmod import SeriesProfile, injective, projective, simple, socle_sub, truncate
from adrkit.theorems import check_theorem_b, ringel_selfdual_verdict
from chain_oracle import dense


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


def _layers(*mults):
    """The series with layers ``mults``: their running totals, from zero."""
    zero = (0,) * len(mults[0])
    return SeriesProfile(tuple(accumulate(mults, lambda acc, m: tuple(map(add, acc, m)), initial=zero)))


def test_delta_layers_refuse_a_socle_layer_beyond_the_poset(monkeypatch, kx3):
    # l_1 = 3 over k[x]/x^3, so L_1 in socle layer 4 would need Delta(1, 4)
    monkeypatch.setattr(adrcore, "socle_series", lambda m: _layers((1,), (0,), (0,), (1,)))
    with pytest.raises(RuntimeError, match=r"Delta\(1,4\) beyond l_1"):
        delta_layers(kx3, injective(kx3, 1))


def test_tilting_delta_filtration_refuses_a_layer_beyond_the_poset(monkeypatch, kx3):
    # under the hypotheses every l_x is L, and layer y of T(k, l) is
    # Delta(x, l + y - 1) with y <= L - l + 1, so only hypotheses that report
    # an L above l_1 = 3 can reach Delta(1, 4)
    hyp = theorem_a_hypotheses(kx3)
    monkeypatch.setattr(
        adrcore, "theorem_a_hypotheses", lambda alg: dataclasses.replace(hyp, loewy_length=4, ll_p=(4,))
    )
    monkeypatch.setattr(adrcore, "socle_series", lambda m: _layers((0,), (0,), (1,)))
    with pytest.raises(RuntimeError, match=r"Delta\(1,4\) beyond l_1"):
        tilting_delta_filtration(kx3, LambdaLabel(1, 2))


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


def _spy_on_tagged_passes(monkeypatch) -> list:
    """(pass name, root) for every tagged pass computed, not read from the memo."""
    passes = []
    real = repmod._functional_pass

    def spy(m):
        if (real.__qualname__,) not in m._cache:
            passes.append(("_functional_pass", m))
        return real(m)

    monkeypatch.setattr(repmod, "_functional_pass", spy)
    return passes


def test_formula_routes_and_hypotheses_run_one_tagged_pass_per_root(monkeypatch):
    # P_k/rad^l P_k is a leading block of P_k and soc_j Q_i one of Q_i, so
    # both formula routes and the rigidity tests of theorem A run one tagged
    # pass per P_k and one per P^op_i: Q_i = D(P^op_i) reads the pass of
    # P^op_i.  So the formula routes of A^op, the verdicts and the modules of
    # the components run no pass of their own, and the general radical chain
    # never runs
    passes = _spy_on_tagged_passes(monkeypatch)

    def forbidden(m):
        raise AssertionError("the general radical chain ran on a graded module")

    monkeypatch.setattr(repmod, "radical_chain", forbidden)
    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]
    several = 0
    for entry in entries:
        alg = entry.build()
        passes.clear()
        cartan_RA_formula(alg)
        cartan_SA_formula(alg)
        theorem_a_hypotheses(alg)
        vertices = range(1, alg.n + 1)
        op = alg.opposite()
        expected = [("_functional_pass", id(projective(alg, k))) for k in vertices]
        expected += [("_functional_pass", id(projective(op, i))) for i in vertices]
        assert [(name, id(m)) for name, m in passes] == expected, entry.id
        cartan_RA_formula(op)
        cartan_SA_formula(op)
        theorem_a_hypotheses(op)
        check_theorem_b(alg)
        ringel_selfdual_verdict(alg)
        ringel_selfdual_verdict(op)
        for comp in alg.components():
            theorem_a_hypotheses(comp)
            cartan_RA_formula(comp)
            cartan_SA_formula(comp)
        assert len(passes) == len(expected), entry.id
        several += len(alg.components()) > 1
    assert several


def _forbid(patch, names: tuple[str, ...]) -> None:
    for name in names:
        def forbidden(*args, name=name):
            raise AssertionError(f"{name} ran")

        patch.setattr(repmod, name, forbidden)


def test_tagged_passes_and_hom_systems_share_only_the_modules(monkeypatch):
    # the formula routes' passes multiply by sparse views of their own, and
    # the Hom routes' systems never read a pass: the two routes meet only in
    # the modules they measure and in exactlin's elimination
    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910010)]
    with monkeypatch.context() as patch:
        _forbid(patch, (
            "_sparse_columns", "_negated_sparse_rows", "_intertwiner_levels", "_hom_profile", "_unsettled",
            "_SparseEchelon",
        ))
        for entry in entries:
            alg = entry.build()
            cartan_RA_formula(alg)
            cartan_SA_formula(alg)
            theorem_a_hypotheses(alg)
    with monkeypatch.context() as patch:
        _forbid(patch, ("_functional_pass", "_pass_arrows", "_tag_order_basis"))
        for entry in entries:
            alg = entry.build()
            cartan_RA_hom(alg)
            cartan_SA_hom(alg)


def test_each_module_gets_one_functional_pass(monkeypatch):
    # the tagged pass of P_k reads P_k's own arrow maps, Q_i reads the pass
    # of P^op_i and a component's module the pass of A's, and the series of
    # every level P_k/rad^l P_k or soc_j Q_i is read off the pass of its
    # root; so every pass is the functional pass of a projective, no module
    # made from another runs one, and no root is passed twice: equal
    # representations over one algebra are one module, whoever built them
    passes = _spy_on_tagged_passes(monkeypatch)

    def module_key(name, m):
        maps = tuple(tuple(map(tuple, dense(m.arrow_maps[a.name]).tolist()))
                     for a in m.algebra.quiver.arrows)
        return name, id(m.algebra), m.dims, maps

    # neither a report nor the battery builds a leading block: both read
    # every level off the roots
    def forbidden(m, l):
        raise AssertionError("a report or the battery built a leading block")

    with monkeypatch.context() as patch:
        patch.setattr(repmod, "_leading_block", forbidden)
        for entry in builtin_entries():
            analyze_presentation(entry.presentation)
        for seed in range(910000, 910030):
            tagged_invariant_failures(random_admissible(seed).build())
    assert passes and len({module_key(*x) for x in passes}) == len(passes)
    assert all(name == "_functional_pass" and m.source is None for name, m in passes)

    # the formula routes read every level's series off one series_by_level
    # read per root: C(R_A) per P_k, C(S_A) per Q_i
    read = []
    real_series = adrcore.series_by_level
    monkeypatch.setattr(adrcore, "series_by_level", lambda m: read.append(id(m)) or real_series(m))
    # the Hom routes solve one system per pair of roots and read a block of
    # entries off its row and column prefixes: C(R_A) from (P_i, P_k), every
    # (j, l) at once, and C(S_A) from (Q_i, Q_k)
    measured = []
    real_reader = adrcore.hom_dims_between_levels
    monkeypatch.setattr(
        adrcore, "hom_dims_between_levels",
        lambda m, n: measured.append((id(m), id(n))) or real_reader(m, n),
    )
    for entry in builtin_entries():
        alg = entry.build()
        projectives = [projective(alg, i) for i in range(1, alg.n + 1)]
        injectives = [injective(alg, i) for i in range(1, alg.n + 1)]
        sources = [projective(alg.opposite(), i) for i in range(1, alg.n + 1)]
        for formula, hom, roots, passed in (
            (cartan_RA_formula, cartan_RA_hom, projectives, projectives),
            (cartan_SA_formula, cartan_SA_hom, injectives, sources),
        ):
            passes.clear()
            measured.clear()
            read.clear()
            formula(alg)
            hom(alg)
            want = [("_functional_pass", id(r)) for r in passed]
            assert [(kind, id(m)) for kind, m in passes] == want, entry.id
            assert read == [id(r) for r in roots], entry.id
            assert measured == [(id(m), id(n)) for m in roots for n in roots], entry.id


@pytest.mark.parametrize("entry_id", ["nakayama-1-3", "nakayama-2-3", "nakayama-3-4", "trunc-twoloop-2", "preproj-a-3"])
def test_ringel_dual_from_hom_equals_tilting_hom_dim_entrywise(entry_id):
    # the matrix is read row by row off running totals of the socle series
    # of Q_i; tilting_hom_dim sums the layers of each entry one by one
    alg = get_entry(entry_id).build()
    assert theorem_a_hypotheses(alg).all_ok
    labels = lambda_poset(alg).labels
    want = tuple(tuple(tilting_hom_dim(alg, src, tgt) for tgt in labels) for src in labels)
    assert ringel_dual_cartan_from_hom(alg).entries == want
    with pytest.raises(HypothesesNotSatisfiedError):
        ringel_dual_cartan_from_hom(get_entry("trunc-a2-2").build())


def _entrywise_ringel_dual(alg) -> tuple[tuple[int, ...], ...]:
    """C(R(R_A)) by one label lookup per entry: the reference for the row differences."""
    poset = lambda_poset(alg)
    rows = []
    for i, j in poset.labels:
        t = adrcore.tilting_vector(alg, LambdaLabel(i, j))
        rows.append(tuple(
            t.value(LambdaLabel(k, poset.l(k))) - (t.value(LambdaLabel(k, l - 1)) if l > 1 else 0)
            for k, l in poset.labels
        ))
    return tuple(rows)


def _entrywise_delta_class(alg, filtration) -> tuple[int, ...]:
    """The sum of the standard vectors of a filtration: the reference for the difference array."""
    acc = [0] * len(lambda_poset(alg).labels)
    for layer in filtration.layers:
        for label in layer:
            for t, v in enumerate(standard_vector(alg, label).values):
                acc[t] += v
    return tuple(acc)


def test_index_arithmetic_matches_the_entrywise_reference():
    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]
    for entry in entries:
        alg = entry.build()
        poset = lambda_poset(alg)
        assert poset.offsets == tuple(poset.labels.index(LambdaLabel(i, 1)) for i in range(1, alg.n + 1)) + (
            len(poset.labels),
        )
        assert cartan_ringel_dual(alg).entries == _entrywise_ringel_dual(alg), entry.id
        filtrations = [delta_layers(alg, projective(alg, k)) for k in range(1, alg.n + 1)]
        if theorem_a_hypotheses(alg).projective_side_ok:
            filtrations += [tilting_delta_filtration(alg, label) for label in poset.labels]
        for filt in filtrations:
            assert adrcore._delta_class(alg, filt) == _entrywise_delta_class(alg, filt), entry.id


def test_ringel_dual_names_its_first_negative_entry(monkeypatch):
    # raise [T(1,j) : L_(1,1)] above [T(1,j) : L_(1,3)] for j = 2, 3: the
    # first negative entry in row-major order is named, as the entrywise
    # reference finds it
    real = adrcore.tilting_vector

    def raised(alg, label):
        t = real(alg, label)
        values = list(t.values)
        if label.j >= 2:
            values[0] += 5
        return dataclasses.replace(t, values=tuple(values))

    monkeypatch.setattr(adrcore, "tilting_vector", raised)
    alg = get_entry("nakayama-1-3").build()
    reference = _entrywise_ringel_dual(alg)
    r, c = next((r, c) for r, row in enumerate(reference) for c, x in enumerate(row) if x < 0)
    labels = lambda_poset(alg).labels
    expected = f"Ringel-dual Cartan entry at ({tuple(labels[r])},{tuple(labels[c])}) = {reference[r][c]}"
    assert expected == "Ringel-dual Cartan entry at ((1, 2),(1, 2)) = -3"
    with pytest.raises(NegativeMultiplicityError) as exc:
        cartan_ringel_dual(alg)
    assert str(exc.value) == expected


def test_delta_class_refuses_a_label_outside_the_poset(kx3):
    for label in (LambdaLabel(1, 4), LambdaLabel(1, 0), LambdaLabel(2, 1)):
        with pytest.raises(ValueError, match="outside the Lambda poset"):
            adrcore._delta_class(kx3, adrcore.DeltaFiltration(((label,),)))
