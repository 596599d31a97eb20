import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrkit import corpus
from adrkit.adrcore import cartan_RA_formula, cartan_SA_formula
from adrkit.corpus import (
    GenerationExhaustedError,
    builtin_entries,
    entry_ids,
    get_entry,
    nakayama_kupisch,
    nakayama_selfinjective,
    preprojective_a,
    random_admissible,
    run_invariant_suite,
    tagged_invariant_failures,
    truncated_path_algebra,
    linear_quiver,
)
from adrkit.exactlin import RATIONAL, FieldSpec
from adrkit.memo import remember
from adrkit.presentation import (
    AlgebraData,
    Arrow,
    Path,
    Quiver,
    _assemble,
    opposite_presentation,
    unsatisfied_relation,
)
from adrkit.repmod import (
    injective,
    is_rigid,
    is_selfinjective,
    is_uniserial,
    loewy_length,
    projective,
)
from adrkit.theorems import check_theorem_a, ringel_selfdual_verdict


def test_builtin_ids_cover_families():
    ids = entry_ids()
    assert "nakayama-2-2" in ids
    assert "trunc-a2-2" in ids
    assert "preproj-a-2" in ids
    assert len(ids) == len(set(ids))


def test_builtin_entries_rebuild_identically():
    for entry in builtin_entries():
        again = get_entry(entry.id)
        assert again.presentation == entry.presentation


def test_expected_fixtures_match_recomputation():
    for entry in builtin_entries():
        if not entry.expected:
            continue
        alg = entry.build()
        exp = entry.expected
        if "dim" in exp:
            assert alg.dim == exp["dim"], entry.id
        if "loewy_length" in exp:
            assert alg.loewy_length == exp["loewy_length"], entry.id
        if "theorem_a" in exp:
            assert check_theorem_a(alg).holds == exp["theorem_a"], entry.id
        if "theorem_c" in exp:
            assert ringel_selfdual_verdict(alg).holds == exp["theorem_c"], entry.id
        if "rigid_p1" in exp:
            assert is_rigid(projective(alg, 1)) == exp["rigid_p1"], entry.id


def test_nakayama_generator_structure():
    entry = nakayama_selfinjective(3, 4)
    alg = entry.build()
    assert alg.dim == 12
    for i in range(1, 4):
        assert is_uniserial(projective(alg, i))
        assert loewy_length(projective(alg, i)) == 4
        assert is_uniserial(injective(alg, i))
    assert ringel_selfdual_verdict(alg).holds


def test_nakayama_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        nakayama_selfinjective(0, 3)
    with pytest.raises(ValueError):
        nakayama_selfinjective(2, 1)


def test_truncated_path_algebra_a2():
    entry = truncated_path_algebra(linear_quiver(2), 2)
    alg = entry.build()
    assert alg.dim == 3
    assert loewy_length(projective(alg, 1)) == 2
    assert loewy_length(injective(alg, 1)) == 1


def test_truncated_a3_lengths():
    alg = truncated_path_algebra(linear_quiver(3), 3).build()
    assert loewy_length(projective(alg, 1)) == 3
    assert loewy_length(injective(alg, 1)) == 1


def test_truncated_two_loops_rigid():
    alg = get_entry("trunc-twoloop-2").build()
    assert all(is_rigid(projective(alg, i)) for i in range(1, alg.n + 1))


def test_truncated_acyclic_never_selfinjective():
    # acyclic quiver with at least one arrow, truncation beyond the longest
    # path: a selfinjective algebra here would have to be semisimple
    import random

    from adrkit.presentation import enumerate_paths

    cases = [
        (linear_quiver(2), 2),
        (linear_quiver(3), 3),
        (
            Quiver(
                ("1", "2", "3"),
                (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")),
            ),
            3,
        ),
    ]
    rng = random.Random(17)
    while len(cases) < 15:
        n = rng.randint(2, 4)
        arrows = []
        for t in range(rng.randint(1, 4)):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u < v:
                arrows.append(Arrow(f"a{t}", str(u), str(v)))
        if not arrows:
            continue
        q = Quiver(tuple(str(i) for i in range(1, n + 1)), tuple(arrows))
        longest = max(
            d for d, layer in enumerate(enumerate_paths(q, n + 1)) if layer
        )
        cases.append((q, longest + 1))
    for q, big_l in cases:
        alg = truncated_path_algebra(q, big_l).build()
        assert not is_selfinjective(alg)


def test_preprojective_fixture_properties():
    for n in (2, 3):
        alg = preprojective_a(n).build()
        hyp_pass = check_theorem_a(alg).holds
        assert hyp_pass
        lengths_p = [loewy_length(projective(alg, i)) for i in range(1, n + 1)]
        lengths_q = [loewy_length(injective(alg, i)) for i in range(1, n + 1)]
        assert lengths_p == lengths_q == [n] * n


def test_random_admissible_deterministic():
    a = random_admissible(42)
    b = random_admissible(42)
    assert a.presentation == b.presentation
    assert a.build().dim == b.build().dim


def test_random_admissible_exhaustion(monkeypatch):
    monkeypatch.setattr(corpus, "RETRIES", 0)
    with pytest.raises(GenerationExhaustedError):
        random_admissible(0)


def test_invariant_suite_clean_on_random_sample():
    for seed in range(40):
        entry = random_admissible(2000 + seed)
        fails = run_invariant_suite(entry.build())
        assert fails == [], f"seed {2000 + seed}: {fails}"


def test_invariant_suite_clean_on_builtins():
    for entry in builtin_entries():
        fails = run_invariant_suite(entry.build())
        assert fails == [], f"{entry.id}: {fails}"


def test_battery_flags_an_opposite_that_breaks_its_relations():
    # A^op derived with every non-basis path set to zero keeps a degree-sorted
    # basis and passes every other identity; only its relations expose it
    alg = random_admissible(910038).build()
    rev = lambda w: Path(w.target, w.arrows[::-1], w.source)
    zeroed = _assemble(
        opposite_presentation(alg.presentation),
        [rev(b) for b in alg.basis],
        {rev(w): () for w in alg.normal},
    )
    remember(AlgebraData.opposite, alg, result=zeroed)
    remember(AlgebraData.opposite, zeroed, result=alg)
    assert unsatisfied_relation(alg) is None
    assert tagged_invariant_failures(alg) == [
        ("structural", "A^op does not satisfy its relation 1*a2*a2 + 1*a1*a2")
    ]


@pytest.mark.parametrize("bumps", [((0, 0),), ((1, 0), (0, 1)), ((-1, 2), (3, -1))])
def test_duality_check_names_the_first_entry_off_the_transpose(bumps):
    # bump entries of the memoized C(S_{A^op}): the battery names the first
    # entry of C(R_A), in row-major order, that differs from its transpose,
    # as the entrywise comparison finds it
    from adrkit.adrcore import LabeledMatrix, cartan_RA_formula, cartan_SA_formula

    for entry in (get_entry("nakayama-2-3"), random_admissible(910003), random_admissible(910017)):
        alg = entry.build()
        op = alg.opposite()
        real = cartan_SA_formula(op)
        entries = [list(row) for row in real.entries]
        for r, c in bumps:
            entries[r % len(entries)][c % len(entries)] += 1
        remember(cartan_SA_formula, op, result=LabeledMatrix(real.row_labels, real.col_labels, tuple(map(tuple, entries))))
        mat, dual = cartan_RA_formula(alg), cartan_SA_formula(op)
        labels = mat.row_labels
        first = next(f"{tuple(r)},{tuple(c)}" for r in labels for c in labels if mat.entry(r, c) != dual.entry(c, r))
        assert ("oracle", f"C(R_A) vs C(S_{{A^op}}): not transposed at {first}") in tagged_invariant_failures(alg)


@st.composite
def _kupisch_series(draw) -> tuple[tuple[int, ...], bool]:
    """A Kupisch series with n <= 6 and c_k <= 6, on a cyclic quiver or a linear one with n >= 2."""
    cyclic = draw(st.booleans())
    n = draw(st.integers(1 if cyclic else 2, 6))
    raw = draw(st.lists(st.integers(2, 6), min_size=n, max_size=n))
    if not cyclic:
        # c_n = 1, then c_k in [2, min(c_{k+1} + 1, n - k + 1)] going back
        c = [1]
        for k in range(n - 2, -1, -1):
            c.insert(0, max(2, min(raw[k], c[0] + 1, n - k)))
        return tuple(c), False
    c = list(raw)
    while any(c[k] > c[(k + 1) % n] + 1 for k in range(n)):  # lower c_k to c_{k+1} + 1
        k = next(k for k in range(n) if c[k] > c[(k + 1) % n] + 1)
        c[k] = c[(k + 1) % n] + 1
    return tuple(c), True


@given(
    series=_kupisch_series(),
    field=st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(3), FieldSpec.prime(7), RATIONAL]),
)
@example(series=((3, 3, 3), True), field=FieldSpec.prime(7))
@example(series=((2,), True), field=RATIONAL)
@example(series=((4, 3, 3), True), field=FieldSpec.prime(2))
@example(series=((3, 2, 1), False), field=RATIONAL)
@settings(max_examples=150, deadline=None)
def test_nakayama_formula_matrices_match_the_kupisch_closed_forms(series, field):
    # P_k is uniserial with factors k, k+1, ..., k+c_k-1, so soc_j(P_k/rad^l P_k)
    # holds the factors k+t, t in [max(l-j, 0), l-1]; Q_i is uniserial with
    # factors i, i-1, ..., i-d_i+1 from its socle up, for d_i = LL(Q_i), so
    # the radical series of soc_j Q_i and C(S_A) follow dually.  Theorem C:
    # R_A is Ringel selfdual exactly when the quiver is cyclic and c constant
    c, cyclic = series
    n = len(c)
    alg = nakayama_kupisch(c, cyclic, field).build()

    def same(x: int, y: int) -> bool:
        return (x - y) % n == 0

    # d_i = LL(Q_i): [Q_i : L_{i-t}] = [P_{i-t} : L_i] is 1 exactly for t < d_i
    d = [max(t + 1 for t in range(max(c)) if (cyclic or t < i) and c[(i - t - 1) % n] > t) for i in range(1, n + 1)]
    ra_labels = [(k, l) for k in range(1, n + 1) for l in range(1, c[k - 1] + 1)]
    sa_labels = [(i, j) for i in range(1, n + 1) for j in range(1, d[i - 1] + 1)]
    cra, csa = cartan_RA_formula(alg), cartan_SA_formula(alg)
    assert [tuple(x) for x in cra.row_labels] == [tuple(x) for x in cra.col_labels] == ra_labels
    assert [tuple(x) for x in csa.row_labels] == [tuple(x) for x in csa.col_labels] == sa_labels
    assert cra.entries == tuple(
        tuple(sum(same(k + t, i) for t in range(max(l - j, 0), l)) for k, l in ra_labels) for i, j in ra_labels
    )
    assert csa.entries == tuple(
        tuple(sum(same(i - t, k) for t in range(max(j - l, 0), j)) for k, l in sa_labels) for i, j in sa_labels
    )
    assert ringel_selfdual_verdict(alg).holds == (cyclic and len(set(c)) == 1)


@pytest.mark.parametrize(
    "c, cyclic",
    [((), True), ((1, 2), True), ((4, 2), True), ((2, 2), False), ((3, 1), False), ((2, 3, 1), False), ((4, 2, 2, 1), False)],
)
def test_nakayama_kupisch_refuses_a_series_that_is_not_kupisch(c, cyclic):
    with pytest.raises(ValueError, match="is not a Kupisch series"):
        nakayama_kupisch(c, cyclic)
