import dataclasses
import random
from decimal import Decimal
from fractions import Fraction

import builder_oracle
import chain_oracle
import pytest
from builder_oracle import dense_build_algebra
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrkit import exactlin
from adrkit.exactlin import RATIONAL, FieldSpec, Matrix
from adrkit.presentation import (
    HOM_WORK_BUDGET,
    LABEL_BUDGET,
    PATH_BUDGET,
    WORK_BUDGET,
    AlgebraPresentation,
    Arrow,
    CapTooSmallError,
    InvalidRelationError,
    NonComposablePathError,
    PresentationError,
    Path,
    Quiver,
    Relation,
    UnknownArrowError,
    _count_paths,
    _holds_top_columns,
    _letters,
    build_algebra,
    check_label_budget,
    check_work_budget,
    connected_components,
    enumerate_paths,
    hom_unknowns,
    is_connected,
    label_count,
    opposite_presentation,
    restrict_presentation,
)

LOOP = Quiver(("1",), (Arrow("x", "1", "1"),))
A2 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
CYCLE2 = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))


def kxn(n: int, field=RATIONAL) -> AlgebraPresentation:
    return AlgebraPresentation(field, LOOP, (Relation.monomial(["x"] * n),), n)


def test_quiver_validation():
    with pytest.raises(PresentationError):
        Quiver((), ())
    with pytest.raises(PresentationError):
        Quiver(("1", "1"), ())
    with pytest.raises(PresentationError):
        Quiver(("1",), (Arrow("a", "1", "2"),))
    with pytest.raises(PresentationError):
        Quiver(("1",), (Arrow("a", "1", "1"), Arrow("a", "1", "1")))


def test_enumerate_paths_single_vertex():
    q = Quiver(("1",), ())
    graded = enumerate_paths(q, 3)
    assert [len(layer) for layer in graded] == [1, 0, 0, 0]


def test_enumerate_paths_loop():
    graded = enumerate_paths(LOOP, 3)
    assert [len(layer) for layer in graded] == [1, 1, 1, 1]
    assert graded[2][0] == Path(1, ("x", "x"), 1)


def test_enumerate_paths_a2():
    graded = enumerate_paths(A2, 2)
    assert [len(layer) for layer in graded] == [2, 1, 0]
    assert graded[0] == [Path(1, (), 1), Path(2, (), 2)]
    assert graded[1] == [Path(1, ("a",), 2)]


def test_build_kx3():
    alg = build_algebra(kxn(3))
    assert [len(layer) for layer in alg.layers] == [1, 1, 1]
    assert alg.loewy_length == 3
    assert alg.dim == 3


def test_build_a2_no_relations():
    alg = build_algebra(AlgebraPresentation(RATIONAL, A2, (), 2))
    assert alg.dim == 3
    assert alg.loewy_length == 2


def test_build_cap_too_small_for_x2_minus_x3():
    pres = AlgebraPresentation(
        RATIONAL, LOOP, (Relation.difference(["x", "x"], ["x", "x", "x"]),), 5
    )
    with pytest.raises(CapTooSmallError):
        build_algebra(pres)


def test_nonhomogeneous_admissible_quotient():
    # x^2 = y^3 with everything of length 4 zero: ideal closure must identify
    # the degree-2 and degree-3 residues correctly
    q = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
    trunc = [Relation.monomial(p.arrows) for p in enumerate_paths(q, 4)[4]]
    pres = AlgebraPresentation(
        RATIONAL, q, tuple(trunc) + (Relation.difference(["x", "x"], ["y", "y", "y"]),), 4
    )
    alg = build_algebra(pres)
    # degree-2 paths: xx ~ yyy, xy, yx, yy; degree-3 paths: all 8, minus the
    # identifications x^2 z ~ y^3 z = 0 and z x^2 ~ 0 forced at degree >= 4... the
    # ideal mods out xx - yyy and every length-4 path
    assert alg.layers[0] == (0,)
    assert len(alg.layers[1]) == 2
    grade2 = [alg.basis[k].arrows for k in alg.layers[2]]
    assert ("x", "x") not in grade2  # xx reduces to the degree-3 path yyy
    total = sum(len(layer) for layer in alg.layers)
    assert total == alg.dim


def test_arrow_lookup_by_name():
    q = Quiver(("u", "v", "w"), (Arrow("a", "v", "w"), Arrow("b", "w", "u"), Arrow("c", "v", "v")))
    assert q.arrow("b") == Arrow("b", "w", "u")
    assert [q.arrow_endpoints(n) for n in "abc"] == [(2, 3), (3, 1), (2, 2)]
    for bad in ("d", "A", ""):
        with pytest.raises(UnknownArrowError, match=repr(bad)):
            q.arrow(bad)
        with pytest.raises(UnknownArrowError):
            q.arrow_endpoints(bad)
    # the lookup table is derived data: equality, hashing and replace ignore it
    same = Quiver(q.vertices, q.arrows)
    assert same == q and hash(same) == hash(q)
    moved = dataclasses.replace(q, vertices=("w", "v", "u"))
    assert moved.arrow_endpoints("a") == (2, 1)


def test_relation_validation_errors():
    with pytest.raises(UnknownArrowError):
        build_algebra(
            AlgebraPresentation(RATIONAL, LOOP, (Relation.monomial(["z", "z"]),), 3)
        )
    with pytest.raises(NonComposablePathError):
        build_algebra(
            AlgebraPresentation(RATIONAL, A2, (Relation.monomial(["a", "a"]),), 3)
        )
    with pytest.raises(InvalidRelationError):
        build_algebra(
            AlgebraPresentation(RATIONAL, LOOP, (Relation.monomial(["x"]),), 3)
        )
    with pytest.raises(InvalidRelationError):
        # longer than the cap
        build_algebra(
            AlgebraPresentation(RATIONAL, LOOP, (Relation.monomial(["x"] * 4),), 3)
        )
    with pytest.raises(NonComposablePathError):
        # non-parallel terms
        build_algebra(
            AlgebraPresentation(
                RATIONAL,
                CYCLE2,
                (Relation(((1, ("a", "b")), (1, ("b", "a")))),),
                2,
            )
        )


def test_relation_zero_mod_p_is_dropped():
    # coefficient 5 vanishes mod 5, so the relation imposes nothing; the cap
    # then fails to witness nilpotency
    pres = AlgebraPresentation(
        FieldSpec.prime(5), LOOP, (Relation(((5, ("x", "x")),)),), 2
    )
    with pytest.raises(CapTooSmallError):
        build_algebra(pres)


def test_relation_coefficients_must_be_exact_rationals():
    # a relation built through the Python API takes the exact-rationals rule
    # of FieldSpec.coerce: a float, a Decimal, a numpy float or a string is
    # refused, as is a denominator that vanishes mod p, each as an
    # InvalidRelationError naming the term; ints, Fractions and numpy
    # integers are read exactly
    import numpy as np

    loops = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))

    def build(field, coeff):
        rels = (Relation(((1, ("x", "y")), (coeff, ("y", "x")))), Relation.monomial("xx"), Relation.monomial("yy"))
        return build_algebra(AlgebraPresentation(field, loops, rels, 3))

    for field in (RATIONAL, FieldSpec.prime(7)):
        for coeff in (0.1, Decimal("0.5"), np.float64(0.5), "1/2"):
            with pytest.raises(InvalidRelationError, match=rf"\('y', 'x'\).*{type(coeff).__name__}"):
                build(field, coeff)
        want = build(field, 2).normal
        assert build(field, Fraction(2)).normal == build(field, np.int64(2)).normal == want
    assert build(RATIONAL, Fraction(1, 7)).normal == build(RATIONAL, Fraction(2, 14)).normal
    with pytest.raises(InvalidRelationError, match=r"\('y', 'x'\).*vanishes mod 7"):
        build(FieldSpec.prime(7), Fraction(1, 7))


def test_opposite_a2():
    opp = opposite_presentation(AlgebraPresentation(RATIONAL, A2, (), 2))
    assert opp.quiver.arrows == (Arrow("a", "2", "1"),)


def test_opposite_loop_self_dual():
    pres = kxn(3)
    assert opposite_presentation(pres) == pres


def test_opposite_involution():
    pres = AlgebraPresentation(
        RATIONAL,
        CYCLE2,
        (Relation.monomial(["a", "b"]), Relation.monomial(["b", "a"])),
        2,
    )
    assert opposite_presentation(opposite_presentation(pres)) == pres


def test_opposite_cycle_isomorphic_after_renaming():
    pres = AlgebraPresentation(
        RATIONAL,
        CYCLE2,
        (Relation.monomial(["a", "b"]), Relation.monomial(["b", "a"])),
        2,
    )
    alg = build_algebra(pres)
    opp = build_algebra(opposite_presentation(pres))
    assert alg.dim == opp.dim
    assert [len(layer) for layer in alg.layers] == [len(layer) for layer in opp.layers]
    assert sorted(p.source for p in alg.basis) == sorted(p.source for p in opp.basis)


def test_is_connected():
    assert is_connected(Quiver(("1",), ()))
    assert is_connected(A2)
    assert not is_connected(Quiver(("1", "2"), ()))
    assert connected_components(Quiver(("1", "2"), ())) == [["1"], ["2"]]


def test_restrict_presentation():
    q = Quiver(
        ("1", "2"),
        (Arrow("x", "1", "1"), Arrow("y", "2", "2")),
    )
    pres = AlgebraPresentation(
        RATIONAL,
        q,
        (Relation.monomial(["x", "x"]), Relation.monomial(["y", "y", "y"])),
        3,
    )
    sub = restrict_presentation(pres, ["1"])
    assert sub.quiver.vertices == ("1",)
    assert len(sub.relations) == 1
    assert build_algebra(sub).dim == 2


def _dense_build(pres: AlgebraPresentation):
    """Whole-width oracle for ``build_algebra``: (basis, layers, act).

    One RREF of all truncated u*r*v products over every path below the cap,
    assembled directly from the path enumeration, with no split by parallel
    class.  The basis is the non-pivot paths; an arrow sends a basis path to
    the longer path, or, when that is a pivot, to minus the rest of its row.
    """
    fld = pres.field
    graded = enumerate_paths(pres.quiver, pres.cap)
    low = [p for layer in graded[: pres.cap] for p in layer]
    col = {p: c for c, p in enumerate(low)}
    flat = [p for layer in graded for p in layer]
    rows = []
    for rel in pres.relations:
        terms = []
        for coeff, names in rel.terms:
            src = pres.quiver.index(pres.quiver.arrow(names[0]).source)
            tgt = pres.quiver.index(pres.quiver.arrow(names[-1]).target)
            terms.append((fld.coerce(coeff), Path(src, tuple(names), tgt)))
        for pre in flat:
            if pre.target != terms[0][1].source:
                continue
            for suf in flat:
                if suf.source != terms[0][1].target:
                    continue
                vec = [fld.coerce(0)] * len(low)
                hit = False
                for coeff, path in terms:
                    if pre.length + path.length + suf.length >= pres.cap:
                        continue
                    whole = Path(pre.source, pre.arrows + path.arrows + suf.arrows, suf.target)
                    vec[col[whole]] += coeff
                    hit = True
                if hit:
                    rows.append([fld.coerce(v) for v in vec])
    ideal = chain_oracle.dense_rref(Matrix.from_rows(fld, rows, cols=len(low)))
    pivot_row = {pc: r for r, pc in enumerate(ideal.pivot_cols)}
    basis = tuple(p for c, p in enumerate(low) if c not in pivot_row)
    index = {p: k for k, p in enumerate(basis)}
    layers = [tuple(k for k, p in enumerate(basis) if p.length == d) for d in range(pres.cap)]
    while layers and not layers[-1]:
        layers.pop()
    act = {a.name: {} for a in pres.quiver.arrows}
    for k, path in enumerate(basis):
        for a in pres.quiver.arrows:
            src, tgt = pres.quiver.arrow_endpoints(a.name)
            if path.target != src:
                continue
            longer = Path(path.source, path.arrows + (a.name,), tgt)
            if longer.length >= pres.cap:
                act[a.name][k] = ()
            elif col[longer] in pivot_row:
                row = ideal.reduced.row(pivot_row[col[longer]])
                act[a.name][k] = tuple(
                    (index[low[c]], fld.coerce(-v))
                    for c, v in enumerate(row)
                    if v != 0 and c != col[longer]
                )
            else:
                act[a.name][k] = ((index[longer], fld.coerce(1)),)
    return basis, tuple(layers), act


@pytest.mark.parametrize("field", [RATIONAL, FieldSpec.prime(3)], ids=["Q", "F3"])
def test_layer_dims_match_independent_rank_count(field):
    # homogeneous presentations: dim A = #paths<cap - rank(ideal span below cap)
    cases = [
        kxn(3, field),
        AlgebraPresentation(field, A2, (), 2),
        AlgebraPresentation(
            field, CYCLE2, (Relation.monomial(["a", "b"]), Relation.monomial(["b", "a"])), 2
        ),
        AlgebraPresentation(
            field,
            Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"))),
            (Relation.monomial(["a", "b"]),),
            3,
        ),
    ]
    for pres in cases:
        alg = build_algebra(pres)
        assert sum(len(layer) for layer in alg.layers) == len(_dense_build(pres)[0])


def test_relation_free_acyclic_loewy_length():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        vertices = tuple(str(i) for i in range(1, n + 1))
        arrows = []
        for t in range(rng.randint(0, 4)):
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            if u < v:  # keep it acyclic
                arrows.append(Arrow(f"a{t}", str(u), str(v)))
        q = Quiver(vertices, tuple(arrows))
        graded = enumerate_paths(q, n + 1)
        longest = max(d for d, layer in enumerate(graded) if layer)
        for cap in (longest + 1, longest + 2):
            alg = build_algebra(AlgebraPresentation(RATIONAL, q, (), cap))
            assert alg.loewy_length == longest + 1


def test_degree_zero_layer_is_idempotents():
    alg = build_algebra(AlgebraPresentation(RATIONAL, CYCLE2, (Relation.monomial(["a", "b"]), Relation.monomial(["b", "a"])), 2))
    assert len(alg.layers[0]) == alg.n
    assert all(alg.basis[k].length == 0 for k in alg.layers[0])


def test_enumerate_paths_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_paths(LOOP, -1)


def test_cap_below_one_rejected():
    with pytest.raises(PresentationError):
        AlgebraPresentation(RATIONAL, LOOP, (), 0)


def test_quotient_stable_under_cap_increase():
    # for an admissible presentation the computed algebra must not depend on
    # which valid cap witnesses nilpotency
    from adrkit.corpus import builtin_entries

    for entry in builtin_entries():
        pres = entry.presentation
        alg = build_algebra(pres)
        bigger = AlgebraPresentation(pres.field, pres.quiver, pres.relations, pres.cap + 1)
        alg_2 = build_algebra(bigger)
        assert alg.dim == alg_2.dim, entry.id
        assert [len(l) for l in alg.layers] == [len(l) for l in alg_2.layers], entry.id
        assert alg.basis == alg_2.basis, entry.id


def test_nonhomogeneous_quotient_stable_under_cap_increase():
    q = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
    trunc = tuple(
        Relation.monomial(p.arrows) for p in enumerate_paths(q, 4)[4]
    )
    rels = trunc + (Relation.difference(["x", "x"], ["y", "y", "y"]),)
    alg4 = build_algebra(AlgebraPresentation(RATIONAL, q, rels, 4))
    alg5 = build_algebra(AlgebraPresentation(RATIONAL, q, rels, 5))
    assert alg4.dim == alg5.dim == 11
    assert alg4.basis == alg5.basis


# 50 plain fuzz seeds and the first ten seeds whose sampler drew a
# non-homogeneous relation path - longer path (about 1 seed in 270)
ORACLE_FUZZ_SEEDS = tuple(range(50)) + (400, 941, 1325, 1335, 1568, 2122, 2299, 2347, 2402, 2604)


def _oracle_cases():
    from adrkit.corpus import builtin_entries, preprojective_a

    cases = [pytest.param(e.presentation, id=e.id) for e in builtin_entries()]
    for n in (3, 4, 5):
        for fld in (FieldSpec.prime(7), RATIONAL):
            pres = preprojective_a(n, fld).presentation
            cases.append(pytest.param(pres, id=f"preproj-a-{n}-{fld.describe()}"))
    return cases


def _assert_matches_dense_oracle(pres: AlgebraPresentation):
    alg = build_algebra(pres)
    basis, layers, act = _dense_build(pres)
    assert alg.basis == basis
    assert alg.layers == layers
    assert alg.act == act


@pytest.mark.parametrize("pres", _oracle_cases())
def test_per_class_build_matches_dense_oracle(pres):
    _assert_matches_dense_oracle(pres)


@pytest.mark.parametrize("seed", ORACLE_FUZZ_SEEDS)
def test_per_class_build_matches_dense_oracle_fuzz(seed):
    from adrkit.corpus import random_admissible

    _assert_matches_dense_oracle(random_admissible(seed).presentation)


def test_oracle_fuzz_seeds_cover_nonhomogeneous_relations():
    from adrkit.corpus import random_admissible

    mixed = [
        seed
        for seed in ORACLE_FUZZ_SEEDS
        if any(
            len({len(names) for _, names in rel.terms}) > 1
            for rel in random_admissible(seed).presentation.relations
        )
    ]
    assert len(mixed) == 10


def test_cap_path_in_class_without_relations_is_cap_too_small():
    # x*x = 0 makes the loop nilpotent, but nothing relates the class 1 -> 2,
    # so the length-cap path x*a is not in the ideal span
    q = Quiver(("1", "2"), (Arrow("x", "1", "1"), Arrow("a", "1", "2")))
    pres = AlgebraPresentation(RATIONAL, q, (Relation.monomial(["x", "x"]),), 2)
    with pytest.raises(CapTooSmallError, match=r"path x\*a of length 2"):
        build_algebra(pres)


def _builder_oracle_cases():
    from adrkit.corpus import builtin_entries, preprojective_a

    cases = [pytest.param(e.presentation, id=e.id) for e in builtin_entries()]
    for n in range(2, 9):
        for fld in (FieldSpec.prime(7), RATIONAL):
            pres = preprojective_a(n, fld).presentation
            cases.append(pytest.param(pres, id=f"preproj-a-{n}-{fld.describe()}"))
    return cases


def _assert_matches_builder_oracle(pres: AlgebraPresentation):
    """The sparse builder and the dense per-class one: equal algebras, or the same refusal."""
    try:
        expected = dense_build_algebra(pres)
    except CapTooSmallError as exc:
        with pytest.raises(CapTooSmallError) as info:
            build_algebra(pres)
        assert str(info.value) == str(exc)
        return
    alg = build_algebra(pres)
    assert alg.basis == expected.basis
    assert alg.layers == expected.layers
    assert alg.normal == expected.normal
    assert alg.act == expected.act


@pytest.mark.parametrize("pres", _builder_oracle_cases())
def test_sparse_builder_matches_dense_builder_oracle(pres):
    _assert_matches_builder_oracle(pres)


def test_sparse_builder_matches_dense_builder_oracle_on_fuzz_seeds():
    from adrkit.corpus import random_admissible

    for seed in range(910000, 910150):
        _assert_matches_builder_oracle(random_admissible(seed).presentation)


TWO_LOOPS = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
# loops x, y at 1 and an arrow a: 1 -> 2; the classes (1, 1) and (1, 2) each
# hold length-2 paths
LOOPS_AND_ARROW = Quiver(("1", "2"), (Arrow("x", "1", "1"), Arrow("y", "1", "1"), Arrow("a", "1", "2")))


@pytest.mark.parametrize(
    "pres, named",
    [
        # nothing relates the class 1 -> 2
        (AlgebraPresentation(RATIONAL, Quiver(("1", "2"), (Arrow("x", "1", "1"), Arrow("a", "1", "2"))),
                             (Relation.monomial(["x", "x"]),), 2), "x*a"),
        # x^2 = x^3 is never nilpotent: x^5 is outside the span at cap 5
        (AlgebraPresentation(RATIONAL, LOOP, (Relation.difference(["x", "x"], ["x", "x", "x"]),), 5), "x*x*x*x*x"),
        # x*x is in the span, x*y is not: the first path of the class passes
        (AlgebraPresentation(FieldSpec.prime(7), TWO_LOOPS,
                             (Relation.monomial(["x", "x"]), Relation.difference(["x", "y"], ["y", "x"])), 2), "x*y"),
        # class (1, 1) passes, and in class (1, 2) x*a is in the span but y*a is not
        (AlgebraPresentation(FieldSpec.prime(2), LOOPS_AND_ARROW,
                             tuple(Relation.monomial(w) for w in (["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"], ["x", "a"])),
                             2), "y*a"),
        # the same over Q, with a two-term relation: x*a + y*a is in the span, neither path is
        (AlgebraPresentation(RATIONAL, LOOPS_AND_ARROW,
                             tuple(Relation.monomial(w) for w in (["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"]))
                             + (Relation(((Fraction(1, 2), ("x", "a")), (Fraction(1, 2), ("y", "a")))),),
                             2), "x*a"),
    ],
    ids=["class-without-relations", "cap-too-small", "second-path-of-class", "second-class", "two-term-over-Q"],
)
def test_sparse_builder_names_the_oracles_first_failing_path(pres, named):
    with pytest.raises(CapTooSmallError, match=f"path {named.replace('*', '[*]')} of length {pres.cap} "):
        build_algebra(pres)
    _assert_matches_builder_oracle(pres)


def test_sparse_builder_runs_no_dense_elimination(monkeypatch):
    # the builder reads sparse rows only: no rref, no dense elimination and
    # no dense array of the oracles, on every input of the oracle comparison
    # (that adrkit builds no array at all, numpy_blocked.py checks)
    from adrkit.corpus import random_admissible

    cases = [param.values[0] for param in _builder_oracle_cases()]
    cases += [random_admissible(seed).presentation for seed in range(910000, 910150)]
    calls = []
    for owner, name in (
        (exactlin, "rref"),
        (chain_oracle, "dense_echelon"),
        (builder_oracle, "zeros"),
        (Matrix, "__init__"),
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    for pres in cases:
        build_algebra(pres)
    assert calls == []
    # live-spy control: the dense builder trips the spies
    dense_build_algebra(kxn(3))
    assert {"zeros", "dense_echelon", "__init__"} <= set(calls)


def test_dense_oracles_run_no_sparse_elimination(monkeypatch):
    # the dense builder and the dense tagged reduction share no elimination
    # with the code they check: neither makes an exactlin._SparseEchelon
    from adrkit.corpus import builtin_entries, random_admissible

    cases = [e.presentation for e in builtin_entries()]
    cases += [random_admissible(seed).presentation for seed in range(910000, 910020)]
    made = []
    real = exactlin._SparseEchelon.__init__

    def spy(self, field):
        made.append(field)
        real(self, field)

    monkeypatch.setattr(exactlin._SparseEchelon, "__init__", spy)
    for pres in cases:
        dense_build_algebra(pres)
    rng = random.Random(3)
    for field in (FieldSpec.prime(7), RATIONAL):
        rows = chain_oracle.dense(Matrix.from_rows(field, [[rng.randint(-2, 2) for _ in range(5)] for _ in range(8)]))
        chain_oracle.dense_tag_order_basis(rows, [rng.randint(1, 3) for _ in range(8)], field)
    assert made == []
    # live-spy control: the sparse builder trips the spy
    build_algebra(kxn(3))
    assert made


def _sparse_class(field: FieldSpec):
    """(rows, cols, low): up to 6 sparse rows over up to 6 columns, zero and non-canonical coefficients included."""
    coeff = st.integers(-8, 8) if field.p else st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(1, 6).flatmap(
        lambda cols: st.tuples(
            st.lists(st.dictionaries(st.integers(0, cols - 1), coeff, max_size=cols), max_size=6),
            st.just(cols),
            st.integers(0, cols),
        )
    )


@given(
    case=st.one_of(
        st.tuples(st.just(FieldSpec.prime(2)), _sparse_class(FieldSpec.prime(2))),
        st.tuples(st.just(FieldSpec.prime(7)), _sparse_class(FieldSpec.prime(7))),
        st.tuples(st.just(RATIONAL), _sparse_class(RATIONAL)),
    )
)
@example(case=(FieldSpec.prime(7), ([], 3, 1)))
@example(case=(FieldSpec.prime(7), ([], 3, 3)))
@example(case=(FieldSpec.prime(2), ([{0: 2, 1: 0}, {1: 1, 2: 3}], 3, 1)))
@example(case=(RATIONAL, ([{0: Fraction(0)}, {1: Fraction(1, 2), 2: Fraction(1, 3)}], 3, 1)))
@example(case=(FieldSpec.prime(7), ([{0: 1, 2: 1}, {1: 1}, {2: 1}], 3, 1)))
@settings(max_examples=400, deadline=None)
def test_rank_count_matches_per_path_membership(case):
    # the cap test counts pivots at or after the low columns; it must agree
    # with testing every top unit vector on its own, by dense rank
    field, (rows, cols, low) = case
    grid = [[row.get(c, 0) for c in range(cols)] for row in rows]

    def dense_rank(grid):
        return chain_oracle.dense_rref(Matrix.from_rows(field, grid, cols=cols)).rank

    base = dense_rank(grid)
    members = [dense_rank(grid + [[int(k == c) for k in range(cols)]]) == base for c in range(low, cols)]
    assert _holds_top_columns(rows, cols, low, field) == all(members)


def test_count_paths_matches_enumeration():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        q = Quiver(
            tuple(str(i) for i in range(1, n + 1)),
            tuple(
                Arrow(f"a{t}", str(rng.randint(1, n)), str(rng.randint(1, n)))
                for t in range(rng.randint(0, 3))
            ),
        )
        cap = rng.randint(0, 5)
        counts = _count_paths(q, cap)
        layers = [len(layer) for layer in enumerate_paths(q, cap)]
        # the count stops once no path of the last length extends
        assert counts == layers[: len(counts)]
        assert not any(layers[len(counts):])


def test_path_budget_refuses_before_listing():
    two_loops = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
    with pytest.raises(PresentationError, match="path budget of 200000 at cap=40"):
        enumerate_paths(two_loops, 40)
    # the budget counts letters: at cap 12 the 2^13 - 1 paths hold 12 * 2^13 + 1
    # = 98 305 letters, at cap 13 they hold 212 993
    assert sum(len(layer) for layer in enumerate_paths(two_loops, 12)) == 2**13 - 1
    with pytest.raises(PresentationError, match="hold 212993 letters"):
        enumerate_paths(two_loops, 13)
    with pytest.raises(PresentationError, match=f"cap={PATH_BUDGET + 1} exceeds"):
        enumerate_paths(A2, PATH_BUDGET + 1)


def test_path_budget_counts_letters_not_paths():
    # one loop at cap 100 000 has only 100 001 paths, but they would hold about
    # 5 * 10^9 letters; counting stops as soon as the letters pass the budget
    counts = _count_paths(LOOP, 100_000)
    assert _letters(counts) > PATH_BUDGET >= _letters(counts[:-1])
    assert len(counts) < 1000
    with pytest.raises(PresentationError, match="letters, which already exceed the path budget"):
        enumerate_paths(LOOP, 100_000)
    # (k + 1) letters per path of length k: 3 paths of lengths 0, 1, 2 hold 6
    assert _letters(_count_paths(LOOP, 2)) == 6


def test_label_count_is_the_sum_of_the_loewy_lengths():
    # read off the basis alone, it must equal sum LL(P_i) + sum LL(Q_i) as the
    # modules measure it
    from adrkit.corpus import builtin_entries, random_admissible
    from adrkit.repmod import injective, loewy_length, projective

    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]
    for entry in entries:
        alg = entry.build()
        vertices = range(1, alg.n + 1)
        lengths = [loewy_length(projective(alg, i)) + loewy_length(injective(alg, i)) for i in vertices]
        assert label_count(alg) == sum(lengths), entry.id
        check_label_budget(alg)


def test_label_budget_admits_preprojective_a10():
    # every P_i and Q_i of preprojective A_n has Loewy length n, so its label
    # work is n * 2n^2; A_10, at 2000, must fit (its build is still over the
    # path budget)
    from adrkit.corpus import preprojective_a

    for n in (2, 3, 4, 5):
        alg = preprojective_a(n, FieldSpec.prime(7)).build()
        assert alg.n * label_count(alg) == 2 * n**3
    assert 2 * 10**3 <= LABEL_BUDGET


def _two_loops(big_l: int):
    from adrkit.corpus import truncated_path_algebra

    loops = Quiver(("1",), (Arrow("x1", "1", "1"), Arrow("x2", "1", "1")))
    return truncated_path_algebra(loops, big_l, FieldSpec.prime(7)).build()


def test_hom_unknowns_count_the_unknowns_of_every_hom_system():
    # read off the basis alone, W must equal the unknowns of the systems
    # between all pairs (P_i, P_k) and all pairs (Q_i, Q_k)
    from adrkit.corpus import builtin_entries, random_admissible
    from adrkit.repmod import injective, projective

    entries = builtin_entries() + [random_admissible(s) for s in range(910000, 910030)]
    for entry in entries:
        alg = entry.build()
        vertices = range(1, alg.n + 1)
        want = 0
        for root in (projective, injective):
            dims = [root(alg, i).dims for i in vertices]
            want += sum(sum(x * y for x, y in zip(m, n)) for m in dims for n in dims)
        assert hom_unknowns(alg) == want, entry.id
        check_work_budget(alg)
    # one vertex: every basis path starts and ends there, so W = 2 dim^2
    for big_l in range(2, 6):
        alg = _two_loops(big_l)
        assert hom_unknowns(alg) == 2 * alg.dim**2
    assert hom_unknowns(_two_loops(5)) == 2 * 31**2 == 1922


def test_work_budget_names_the_measure_and_the_flag_that_raises_it():
    # truncated 2 loops over F_7: W is 522 242 at L=9, 2 093 058 at L=10,
    # 8 380 418 at L=11 and 33 538 050 at L=12
    assert [hom_unknowns(_two_loops(big_l)) for big_l in (9, 10, 11, 12)] == [
        522_242, 2_093_058, 8_380_418, 33_538_050
    ]
    check_work_budget(_two_loops(9))
    with pytest.raises(PresentationError) as exc:
        check_work_budget(_two_loops(10))
    assert "W = 2093058" in str(exc.value) and f"work budget of {HOM_WORK_BUDGET}" in str(exc.value)
    assert "--skip-fuzz-corroboration" in str(exc.value)
    check_work_budget(_two_loops(11), hom_routes=False)
    for hom_routes in (True, False):
        with pytest.raises(PresentationError) as exc:
            check_work_budget(_two_loops(12), hom_routes)
        assert "W = 33538050" in str(exc.value) and "--skip" not in str(exc.value)
    assert f"work budget of {WORK_BUDGET}" in str(exc.value)
