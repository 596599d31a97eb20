"""Filtrations read off the graded path basis, against the general chain code.

``projective`` and ``injective`` grade their coordinates by path length, and
the radical series of P_i, the socle series of Q_i, the truncations
P_i/rad^l P_i, the socle submodules soc_j Q_i, the socle series of every
truncation (by the tagged functional pass over P_i), the radical series of
every soc_j Q_i (by the pass Q_i reads, the functional pass over P^op_i,
which is its radical pass) and the rigidity of all of them are read off
that grading.  The oracle is the same module with
its grading dropped, measured by the general chain code of ``chain_oracle``;
its radical or socle chain must be the coordinate spans of the grading.  The library
functions themselves refuse a module without the grading they read.
"""

import random
from bisect import bisect_left

import pytest

import chain_oracle as oracle
from adrkit import repmod
from adrkit.adrcore import LambdaLabel, cartan_RA_formula, cartan_ringel_dual, cartan_SA_formula
from adrkit.corpus import builtin_entries, get_entry, preprojective_a, random_admissible
from adrkit.exactlin import RATIONAL, FieldSpec, Matrix, RrefResult
from adrkit.presentation import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    build_algebra,
)
from adrkit.repmod import (
    Representation,
    _socle_vertex,
    injective,
    is_rigid,
    loewy_length,
    projective,
    radical_chain,
    radical_series,
    simple,
    socle_chain,
    socle_series,
    socle_sub,
    truncate,
)

# the seeds whose sampler drew a relation path - longer path, as pinned in
# tests/test_presentation.py (ORACLE_FUZZ_SEEDS)
MIXED_LENGTH_SEEDS = (400, 941, 1325, 1335, 1568, 2122, 2299, 2347, 2402, 2604)


def _oracle_cases():
    cases = [pytest.param(e.presentation, id=e.id) for e in builtin_entries()]
    for n in (3, 4, 5):
        for fld in (FieldSpec.prime(7), RATIONAL):
            pres = preprojective_a(n, fld).presentation
            cases.append(pytest.param(pres, id=f"preproj-a-{n}-{fld.describe()}"))
    for seed in tuple(range(100)) + MIXED_LENGTH_SEEDS:
        cases.append(pytest.param(random_admissible(seed).presentation, id=f"random-{seed}"))
    return cases


def _assert_coordinate_chain(chain, degrees, radical: bool) -> None:
    """Level l of ``chain`` is spanned, at each vertex, by the coordinates of degree >= l
    (radical) or < l (socle), in reduced echelon form: unit rows at those columns."""
    assert len(chain) == max((d[-1] + 1 for d in degrees if d), default=0) + 1
    for l, spaces in enumerate(chain):
        for v, (space, d) in enumerate(zip(spaces, degrees)):
            c = bisect_left(d, l)
            cols = tuple(range(c, len(d)) if radical else range(c))
            assert space.pivot_cols == cols, (l, v + 1)
            unit_rows = [[int(x == y) for x in range(len(d))] for y in cols]
            assert space.reduced.array().tolist() == unit_rows, (l, v + 1)


@pytest.mark.parametrize("pres", _oracle_cases())
def test_read_offs_match_general_chain_code(pres):
    alg = build_algebra(pres)
    for i in range(1, alg.n + 1):
        p, q = projective(alg, i), injective(alg, i)
        p0, q0 = oracle.ungraded(p), oracle.ungraded(q)
        assert p.radical_degrees is not None and q.socle_degrees is not None
        _assert_coordinate_chain(radical_chain(p0), p.radical_degrees, radical=True)
        _assert_coordinate_chain(socle_chain(q0), q.socle_degrees, radical=False)
        assert loewy_length(p) == loewy_length(p0)
        assert loewy_length(q) == loewy_length(q0)
        assert radical_series(p) == radical_series(p0)
        assert socle_series(p) == oracle.socle_series(p0)
        assert socle_series(q) == oracle.socle_series(q0)
        assert is_rigid(p) == oracle.is_rigid(p0)
        assert is_rigid(q) == oracle.is_rigid(q0)
        bottom = oracle.socle_series(p0).layers[0]
        assert _socle_vertex(p) == (bottom.mult.index(1) + 1 if bottom.total() == 1 else None)

        levels = repmod.series_by_level(p)
        assert len(levels) == loewy_length(p) + 1
        assert levels[0] == oracle.socle_series(oracle.truncate(p0, 0))
        for l in range(1, loewy_length(p) + 2):
            t, t0 = truncate(p, l), oracle.truncate(p0, l)
            assert t == t0
            assert t.radical_degrees is not None and t0.radical_degrees is None
            assert socle_series(t) == oracle.socle_series(t0)
            assert levels[min(l, loewy_length(p))] == oracle.socle_series(t0)
            _assert_coordinate_chain(radical_chain(t0), t.radical_degrees, radical=True)
            assert is_rigid(t) == oracle.is_rigid(t0)
        levels = repmod.series_by_level(q)
        assert len(levels) == loewy_length(q) + 1
        assert levels[0] == radical_series(oracle.socle_sub(q0, 0))
        for j in range(1, loewy_length(q) + 2):
            s, s0 = socle_sub(q, j), oracle.socle_sub(q0, j)
            assert s == s0
            assert s.socle_degrees is not None and s0.socle_degrees is None
            _assert_coordinate_chain(socle_chain(s0), s.socle_degrees, radical=False)
            assert radical_series(s) == radical_series(s0)
            assert levels[min(j, loewy_length(q))] == radical_series(s0)
            assert is_rigid(s) == oracle.is_rigid(s0)


@pytest.mark.parametrize("pres", _oracle_cases())
def test_socle_profile_of_injective_is_opposite_radical_profile(pres):
    # D sends P_i^op/rad^j to soc_j Q_i; both sides on the general chain code
    alg = build_algebra(pres)
    for i in range(1, alg.n + 1):
        socle_q = oracle.socle_series(oracle.ungraded(injective(alg, i)))
        radical_p_op = radical_series(oracle.ungraded(projective(alg.opposite(), i)))
        assert socle_q == radical_p_op


def test_leading_block_checks_invariance():
    # 1 -> 2 with the degrees of P_1 swapped: the "top" would be the
    # coordinate at vertex 2, and the arrow maps the dropped one into it
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (), 2))
    p = projective(alg, 1)
    assert p.radical_degrees == ((0,), (1,))
    bad = Representation(alg, p.dims, p.arrow_maps, radical_degrees=((1,), (0,)))
    with pytest.raises(ValueError, match="arrow-invariant"):
        truncate(bad, 1)
    bad_q = Representation(alg, p.dims, p.arrow_maps, socle_degrees=((0,), (1,)))
    with pytest.raises(ValueError, match="arrow-invariant"):
        socle_sub(bad_q, 1)
    assert socle_sub(Representation(alg, p.dims, p.arrow_maps, socle_degrees=((1,), (0,))), 1).dims == (0, 1)
    with pytest.raises(ValueError, match="not both"):
        Representation(alg, p.dims, p.arrow_maps, radical_degrees=((0,), (1,)), socle_degrees=((1,), (0,)))


def test_library_read_offs_refuse_a_module_without_their_grading():
    # each function reads one grading (truncate: radical, socle_sub: socle)
    # or either (socle_series, is_rigid); the general chain code is no
    # fallback, so a missing grading is an error, not a slower answer
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (), 2))
    p, inj = projective(alg, 1), injective(alg, 2)
    bare = oracle.ungraded(p)
    for call, module, grading in (
        (truncate, bare, "radically graded"),
        (truncate, inj, "radically graded"),
        (socle_sub, bare, "socle-graded"),
        (socle_sub, p, "socle-graded"),
    ):
        for j in (1, 2, 3):  # below, at and beyond the Loewy length
            with pytest.raises(ValueError, match=grading):
                call(module, j)
    for call in (socle_series, is_rigid):
        with pytest.raises(ValueError, match="needs a graded module"):
            call(bare)
    # the general radical chain still takes any module
    assert loewy_length(bare) == 2 and radical_series(bare) == radical_series(p)
    # a simple module is radically graded: degree 0 at its vertex
    s = simple(alg, 2)
    assert s.radical_degrees == ((), (0,))
    assert truncate(s, 1) is s and is_rigid(s)
    assert socle_series(s) == oracle.socle_series(oracle.ungraded(s))


def test_functional_pass_refuses_a_grading_that_is_not_nilpotent():
    # a loop acting as the identity is no module over a bounded algebra; under
    # a radical grading the functional pass must notice, not loop
    q = Quiver(("1",), (Arrow("x", "1", "1"),))
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (Relation.monomial(["x", "x"]),), 2))
    bad = Representation(alg, (1,), {"x": Matrix.identity(RATIONAL, 1)}, radical_degrees=((0,),))
    with pytest.raises(RuntimeError, match="socle did not grow"):
        socle_series(bad)


def test_functional_pass_refuses_a_leading_block_its_grading_misreads():
    # e1, e2 of degree 0 and e3 of degree 1 under a loop with x e1 = e2: the
    # root's pass ends within its Loewy length 2, but the block of degree 0
    # is no semisimple module, so reading its level off the root's pass must
    # fail as the pass over the block itself does; the root's own series
    # stays readable
    q = Quiver(("1",), (Arrow("x", "1", "1"),))
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (Relation.monomial(["x", "x"]),), 2))
    x = Matrix.from_rows(RATIONAL, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    bad = Representation(alg, (3,), {"x": x}, radical_degrees=((0, 0, 1),))
    with pytest.raises(RuntimeError, match="socle did not grow"):
        repmod.series_by_level(bad)
    socle_series(bad)
    with pytest.raises(RuntimeError, match="socle did not grow"):
        socle_series(truncate(bad, 1))


def test_radical_pass_refuses_a_grading_that_is_not_nilpotent():
    # the socle-graded twin: the same loop under a socle grading, which the
    # radical pass must notice, not loop on
    q = Quiver(("1",), (Arrow("x", "1", "1"),))
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (Relation.monomial(["x", "x"]),), 2))
    bad = Representation(alg, (1,), {"x": Matrix.identity(RATIONAL, 1)}, socle_degrees=((0,),))
    with pytest.raises(RuntimeError, match="radical did not shrink"):
        radical_series(bad)


def test_rigidity_containment_failure_is_an_error_under_each_grading(monkeypatch):
    # is_rigid checks one elimination chain against the grading, read off
    # the module's tagged pass (repmod._tagged_pass): the functionals F_j
    # under a radical grading, the radical chain under a socle one.  Q_1
    # runs no pass of its own: it reads the functional pass of P^op_1, which
    # is its radical chain.  A step with the right number of rows but an
    # entry outside the degree < L-j block breaks rad <= soc, which holds in
    # every module: that is a bug, raised, not a verdict of non-rigidity, and
    # named under the module's own grading
    alg = get_entry("nakayama-1-3").build()
    stray = [{0: 1}, {2: 1}]
    p = projective(alg, 1)
    functionals = list(repmod._functional_pass(p))
    assert [len(f[0][0]) for f in functionals] == [3, 2, 1, 0] and is_rigid(p)
    q = injective(alg, 1)
    chain = list(repmod._tagged_pass(q))
    assert chain == list(repmod._functional_pass(projective(alg.opposite(), 1)))
    assert [len(s[0][0]) for s in chain] == [3, 2, 1, 0] and is_rigid(q)
    assert (repmod._radical_pass.__qualname__,) not in q._cache

    functionals[1] = ((stray, functionals[1][0][1]),)
    chain[1] = ((stray, chain[1][0][1]),)
    passes = {id(p): tuple(functionals), id(q): tuple(chain)}
    monkeypatch.setattr(repmod, "_tagged_pass", lambda m: passes[id(m)])
    with pytest.raises(RuntimeError, match=r"rad\^2 not contained in soc_1 at vertex 1"):
        is_rigid(p)
    with pytest.raises(RuntimeError, match=r"rad\^1 not contained in soc_2 at vertex 1"):
        is_rigid(q)


def _duality_algebras():
    for entry in builtin_entries():
        yield entry.id, entry.build()
    for seed in range(300):
        yield f"random-{seed}", random_admissible(seed).build()


def test_cartan_matrices_are_dual_to_the_opposite_ones():
    # D(P_k/rad^l P_k) = soc_l Q^op_k and D(soc_j Q_i) = P^op_i/rad^j P^op_i, so
    # C(R_A)[(i,j),(k,l)] = C(S_{A^op})[[k,l],[i,j]] and
    # C(S_A)[[i,j],[k,l]] = C(R_{A^op})[(k,l),(i,j)]; Q^op_k reads the
    # tagged pass of P_k, so both sides read the same pass, and the
    # identities check the transposes, the labels and the readers (the
    # formula-against-Hom agreement guards the readers)
    for name, alg in _duality_algebras():
        op = alg.opposite()
        pairs = (
            (cartan_RA_formula(alg), cartan_SA_formula(op)),
            (cartan_SA_formula(alg), cartan_RA_formula(op)),
        )
        for mat, dual in pairs:
            assert mat.row_labels == mat.col_labels == dual.row_labels == dual.col_labels, name
            for r, row in enumerate(mat.entries):
                for c, x in enumerate(row):
                    assert x == dual.entries[c][r], (name, mat.row_labels[r], mat.col_labels[c])


def _relabelled(pres: AlgebraPresentation, rng: random.Random):
    """The same algebra with its vertices reordered and its arrows renamed.

    The new names reverse the lexicographic order of the old ones, so paths
    are listed (and relations reduced) in another order.  Returns the new
    presentation, the map old vertex index -> new vertex index and the map
    new arrow name -> old arrow name.
    """
    q = pres.quiver
    order = list(q.vertices)
    rng.shuffle(order)
    old_names = sorted(a.name for a in q.arrows)
    rename = {name: f"e{len(old_names) - k:03d}" for k, name in enumerate(old_names)}
    arrows = [Arrow(rename[a.name], a.source, a.target) for a in q.arrows]
    rng.shuffle(arrows)
    relations = tuple(
        Relation(tuple((c, tuple(rename[x] for x in names)) for c, names in rel.terms))
        for rel in pres.relations
    )
    new = AlgebraPresentation(pres.field, Quiver(tuple(order), tuple(arrows)), relations, pres.cap)
    perm = {i: order.index(v) + 1 for i, v in enumerate(q.vertices, start=1)}
    return new, perm, {b: a for a, b in rename.items()}


def test_relabelling_permutes_all_three_cartan_matrices():
    rng = random.Random(11)
    cases = [(e.id, e.presentation) for e in builtin_entries()]
    cases += [(f"random-{seed}", random_admissible(seed).presentation) for seed in range(20)]
    reordered = 0
    for name, pres in cases:
        alg = build_algebra(pres)
        new_pres, perm, back = _relabelled(pres, rng)
        new_alg = build_algebra(new_pres)
        # the new basis, in old names, comes in another order than the old one
        listed = [tuple(back[x] for x in path.arrows) for path in new_alg.basis if path.arrows]
        reordered += listed != [path.arrows for path in alg.basis if path.arrows]

        def image(label):
            return LambdaLabel(perm[label.i], label.j)

        for fn in (cartan_RA_formula, cartan_ringel_dual, cartan_SA_formula):
            old, new = fn(alg), fn(new_alg)
            assert sorted(map(image, old.row_labels)) == list(new.row_labels), (name, fn.__name__)
            for r in old.row_labels:
                for c in old.col_labels:
                    assert new.entry(image(r), image(c)) == old.entry(r, c), (name, fn.__name__, r, c)
    assert reordered >= 20, reordered
