import dataclasses
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import chain_oracle as oracle
from adrkit import repmod
from adrkit.exactlin import RATIONAL, FieldSpec, Matrix, row_space_basis, rref
from adrkit.presentation import (
    AlgebraPresentation,
    Arrow,
    Quiver,
    Relation,
    build_algebra,
    unsatisfied_relation,
)
from adrkit.repmod import (
    CompositionVector,
    Representation,
    composition_vector,
    hom_dim,
    injective,
    is_nakayama,
    is_rigid,
    is_selfinjective,
    is_uniserial,
    loewy_length,
    projective,
    quotient_representation,
    radical_chain,
    radical_series,
    selfinjective_matching,
    simple,
    socle_chain,
    socle_series,
    socle_sub,
    truncate,
)
from adrkit.corpus import builtin_entries, get_entry, preprojective_a, random_admissible

F7 = FieldSpec.prime(7)


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


def test_projective_examples(kx3, a2, cyc2):
    assert projective(kx3, 1).dims == (3,)
    assert projective(a2, 1).dims == (1, 1)
    assert projective(a2, 2).dims == (0, 1)
    assert projective(cyc2, 1).dims == (1, 1)


def test_injective_examples(kx3, a2, cyc2):
    assert injective(kx3, 1).dims == (3,)
    assert injective(a2, 1).dims == (1, 0)
    assert injective(a2, 2).dims == (1, 1)
    # Q_1 ~ P_2 over the square-zero 2-cycle: same uniserial series
    q1 = injective(cyc2, 1)
    p2 = projective(cyc2, 2)
    assert q1.dims == p2.dims
    assert [l.mult for l in radical_series(q1).layers] == [
        l.mult for l in radical_series(p2).layers
    ]


def test_projectives_and_injectives_satisfy_relations(kx3, a2, cyc2):
    for alg in (kx3, a2, cyc2):
        for i in range(1, alg.n + 1):
            oracle.validate_representation(projective(alg, i))
            oracle.validate_representation(injective(alg, i))


def test_relation_check_reduces_each_term_mod_p():
    # over F_{2^31-1} the canonical coefficients are near p, so a relation of
    # four squares sums four products near 2^62 each: unreduced, they overflow
    # int64 and a relation the algebra satisfies looks violated
    fld = FieldSpec.prime(2**31 - 1)
    names = ("a", "c", "d", "e")
    q = Quiver(("1",), tuple(Arrow(x, "1", "1") for x in names))
    relations = [Relation(((1, (x, x)), (1, ("e", "e")))) for x in "acd"]
    relations.append(Relation(tuple((-k, (x, x)) for k, x in zip((1, 1, 1, 3), names))))
    relations += [Relation.monomial([x, y]) for x, y in product(names, repeat=2) if x != y]
    alg = build_algebra(AlgebraPresentation(fld, q, tuple(relations), 3))
    assert unsatisfied_relation(alg) is None
    oracle.validate_representation(projective(alg, 1))
    oracle.validate_representation(injective(alg, 1))


def test_socle_and_radical_series_examples(kx3, a2):
    assert [l.mult for l in socle_series(simple(kx3, 1)).layers] == [(1,)]
    reg = projective(kx3, 1)
    assert [l.mult for l in socle_series(reg).layers] == [(1,), (1,), (1,)]
    assert [l.mult for l in radical_series(reg).layers] == [(1,), (1,), (1,)]
    p1 = projective(a2, 1)
    assert [l.mult for l in socle_series(p1).layers] == [(0, 1), (1, 0)]
    assert [l.mult for l in radical_series(p1).layers] == [(1, 0), (0, 1)]


def test_loewy_rigid_uniserial(kx3):
    reg = projective(kx3, 1)
    assert loewy_length(reg) == 3
    assert is_rigid(reg)
    assert is_uniserial(reg)
    # semisimple square: rigid but not uniserial
    two = Representation(kx3, (2,), {"a1": Matrix.zeros(RATIONAL, 2, 2)}, radical_degrees=((0, 0),))
    assert loewy_length(two) == 1
    assert is_rigid(two) and oracle.is_rigid(oracle.ungraded(two))
    assert not is_uniserial(two)


def test_representation_rejects_malformed_input(kx3, a2):
    # each case used to be accepted and answered wrongly later: a short
    # grading of P_1 over k[x]/x^3 gave Loewy length 2 and a rigid verdict,
    # an empty one an IndexError, a 2 x 1 map on dims (1, 1) a wrong Hom
    # dimension and a semisimple radical series, a missing arrow a KeyError,
    # maps over another field a Hom dimension of that field
    p = projective(kx3, 1)
    for degrees in (((0, 1),), (), ((0, 2, 1),), ((-1, 0, 1),), ((0, 1, 2), ())):
        for kind in ("radical_degrees", "socle_degrees"):
            with pytest.raises(ValueError, match="grading"):
                Representation(kx3, p.dims, p.arrow_maps, **{kind: degrees})
    one = Matrix.zeros(RATIONAL, 1, 1)
    for dims, maps in (
        ((1, 1), {"a": Matrix.zeros(RATIONAL, 2, 1)}),
        ((1, 1), {"a": Matrix.zeros(F7, 1, 1)}),  # F_7 maps over Q: 7 would read as 0
        ((1, 1), {}),
        ((1, 1), {"b": one}),
        ((1, 1), {"a": one, "b": one}),
        ((1,), {"a": one}),
    ):
        with pytest.raises(ValueError, match="map"):
            Representation(a2, dims, maps)
    # the well-formed module is still accepted, graded either way
    Representation(kx3, p.dims, p.arrow_maps, socle_degrees=p.radical_degrees)


def test_nonrigid_projective_fixture():
    alg = get_entry("nonrigid-shortcut-3").build()
    assert not is_rigid(projective(alg, 1))


def test_nonrigid_instance_found_by_search():
    # the fixture above pins the first instance this search produces
    found = None
    for seed in range(300):
        alg = random_admissible(seed).build()
        if any(not is_rigid(projective(alg, i)) for i in range(1, alg.n + 1)):
            found = seed
            break
    assert found is not None


def test_hom_yoneda_on_projectives(kx3, a2, cyc2):
    for alg in (kx3, a2, cyc2):
        for i in range(1, alg.n + 1):
            p = projective(alg, i)
            for k in range(1, alg.n + 1):
                m = projective(alg, k)
                assert hom_dim(p, m) == m.dims[i - 1]
                q = injective(alg, k)
                assert hom_dim(p, q) == q.dims[i - 1]


def test_end_of_simple_is_one(kx3, a2):
    for alg in (kx3, a2):
        for i in range(1, alg.n + 1):
            assert hom_dim(simple(alg, i), simple(alg, i)) == 1


def test_hom_top_of_projective_into_projective(kx3):
    p = projective(kx3, 1)
    assert hom_dim(truncate(p, 1), p) == 1


def _random_submodule(m: Representation, rng: random.Random):
    """Random arrow-invariant subspaces: closure of random vectors under arrows."""
    alg = m.algebra
    fld = m.field
    rows = [[] for _ in range(alg.n)]

    def space(v):
        if rows[v]:
            return row_space_basis(Matrix(fld, np.vstack(rows[v])))
        return row_space_basis(Matrix.zeros(fld, 0, m.dims[v]))

    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(alg.n)
        if m.dims[v] == 0:
            continue
        if fld.is_prime_field:
            vec = np.array([rng.randrange(fld.p) for _ in range(m.dims[v])], dtype=np.int64)
        else:
            vec = np.empty(m.dims[v], dtype=object)
            for t in range(m.dims[v]):
                vec[t] = Fraction(rng.randint(-2, 2))
        rows[v].append(vec)
    changed = True
    while changed:
        changed = False
        for a in alg.quiver.arrows:
            u, w = alg.quiver.arrow_endpoints(a.name)
            src = space(u - 1)
            if src.rank == 0:
                continue
            image = src.reduced.matmul(m.arrow_maps[a.name].transpose())
            for r in range(image.rows):
                vec = np.asarray(image.array()[r])
                if not oracle.in_row_space(space(w - 1), vec.copy()):
                    rows[w - 1].append(vec)
                    changed = True
    return tuple(space(v) for v in range(alg.n))


def test_hom_from_projective_counts_dimension_on_random_quotients():
    rng = random.Random(5)
    algebras = [
        get_entry("nakayama-2-3").build(),
        get_entry("trunc-a3-3").build(),
        get_entry("preproj-a-2").build(),
        get_entry("trunc-twoloop-2").build(),
    ]
    checked = 0
    while checked < 100:
        alg = rng.choice(algebras)
        i = rng.randint(1, alg.n)
        cover = projective(alg, i)
        sub = _random_submodule(cover, rng)
        quo = quotient_representation(cover, sub)
        for k in range(1, alg.n + 1):
            assert hom_dim(projective(alg, k), quo) == quo.dims[k - 1]
        checked += 1


def test_truncate_socle_sub_examples(kx3, a2):
    p1 = projective(a2, 1)
    top = truncate(p1, 1)
    assert top.dims == (1, 0)
    q1 = injective(a2, 1)
    assert socle_sub(q1, loewy_length(q1)).dims == q1.dims
    reg = projective(kx3, 1)
    t2 = truncate(reg, 2)
    s2 = socle_sub(injective(kx3, 1), 2)
    assert t2.dims == (2,) and s2.dims == (2,)
    assert [l.mult for l in radical_series(t2).layers] == [
        l.mult for l in radical_series(s2).layers
    ]
    assert truncate(reg, 99).dims == reg.dims  # rad^j = 0 beyond the Loewy length


def test_truncate_and_socle_sub_at_the_loewy_length_return_the_module(kx3, cyc2):
    # P_i/rad^j P_i = P_i and soc_j Q_i = Q_i once j >= LL; below LL each
    # call returns one memoized module
    for alg in (kx3, cyc2, preprojective_a(3).build()):
        for i in range(1, alg.n + 1):
            for m, derive in ((projective(alg, i), truncate), (injective(alg, i), socle_sub)):
                ll = loewy_length(m)
                for j in range(ll, ll + 3):
                    assert derive(m, j) is m
                for j in range(1, ll):
                    assert derive(m, j) is derive(m, j) is not m


def test_truncate_loewy_length(kx3):
    reg = projective(kx3, 1)
    for j in (1, 2, 3):
        assert loewy_length(truncate(reg, j)) == j


def test_selfinjective_nakayama_predicates(kx3, a2, cyc2):
    assert is_selfinjective(kx3) and is_nakayama(kx3)
    assert not is_selfinjective(a2)
    assert is_nakayama(a2)
    assert is_selfinjective(cyc2) and is_nakayama(cyc2)
    assert selfinjective_matching(cyc2) == {1: 2, 2: 1}


def test_selfinjective_non_nakayama_preprojective():
    alg = get_entry("preproj-a-3").build()
    assert not is_nakayama(alg)
    assert is_selfinjective(alg)  # preprojective algebras of Dynkin type are


@pytest.mark.parametrize("field", [RATIONAL, F7], ids=["Q", "F7"])
@pytest.mark.parametrize("n", [3, 4])
def test_preprojective_a_is_selfinjective_not_uniserial(n, field):
    # the selfinjectivity test is exact (P_i ~ Q_s iff their dimension vectors
    # agree, s the socle vertex of P_i); these P_i are not uniserial, and the
    # Nakayama permutation of preprojective A_n is i -> n + 1 - i
    alg = preprojective_a(n, field).build()
    assert not all(is_uniserial(projective(alg, i)) for i in range(1, n + 1))
    assert selfinjective_matching(alg) == {i: n + 1 - i for i in range(1, n + 1)}
    assert is_selfinjective(alg)


def test_duality_socle_profile_equals_opposite_radical_profile():
    for entry in builtin_entries():
        alg = entry.build()
        for i in range(1, alg.n + 1):
            socle_q = [l.mult for l in socle_series(injective(alg, i)).layers]
            rad_opp = [
                l.mult for l in radical_series(projective(alg.opposite(), i)).layers
            ]
            assert socle_q == rad_opp


def test_transpose_multiplicity_identity():
    for entry in builtin_entries():
        alg = entry.build()
        for i in range(1, alg.n + 1):
            for j in range(1, alg.n + 1):
                assert (
                    composition_vector(projective(alg, j)).mult[i - 1]
                    == composition_vector(injective(alg, i)).mult[j - 1]
                )


def test_series_sum_to_composition_vector():
    rng = random.Random(9)
    for seed in range(20):
        alg = random_admissible(seed).build()
        for i in range(1, alg.n + 1):
            for m in (projective(alg, i), injective(alg, i)):
                total = composition_vector(m)
                assert socle_series(m).total() == total
                assert radical_series(m).total() == total


def test_radical_contained_in_socle_complement():
    # is_rigid raises if rad^j is ever not inside soc_{L-j}; run it broadly
    for seed in range(30):
        alg = random_admissible(100 + seed).build()
        for i in range(1, alg.n + 1):
            is_rigid(projective(alg, i))
            is_rigid(injective(alg, i))


def test_composition_vector_rejects_negative():
    with pytest.raises(ValueError):
        CompositionVector((-1, 0))


def test_hom_algebra_mismatch_raises(kx3, a2):
    from adrkit.repmod import AlgebraMismatchError

    with pytest.raises(AlgebraMismatchError):
        hom_dim(projective(kx3, 1), projective(a2, 1))


def test_hom_accepts_equal_algebra_built_twice():
    e = get_entry("nakayama-1-2")
    alg_a = build_algebra(e.presentation)
    alg_b = build_algebra(e.presentation)
    assert hom_dim(projective(alg_a, 1), projective(alg_b, 1)) == 2


def test_truncate_socle_sub_index_validation(kx3):
    reg = projective(kx3, 1)
    with pytest.raises(ValueError):
        truncate(reg, 0)
    with pytest.raises(ValueError):
        socle_sub(reg, 0)


def test_semisimple_two_vertices():
    q = Quiver(("1", "2"), ())
    alg = build_algebra(AlgebraPresentation(RATIONAL, q, (), 1))
    assert alg.dim == 2
    assert alg.loewy_length == 1
    assert is_selfinjective(alg)
    assert is_nakayama(alg)


def test_hom_into_injective_counts_multiplicity():
    # dim Hom(M, Q_i) = [M : L_i]; checked on random quotient modules
    rng = random.Random(23)
    algebras = [
        get_entry("nakayama-2-3").build(),
        get_entry("preproj-a-2").build(),
        get_entry("nonrigid-shortcut-3").build(),
    ]
    for _ in range(30):
        alg = rng.choice(algebras)
        cover = projective(alg, rng.randint(1, alg.n))
        quo = quotient_representation(cover, _random_submodule(cover, rng))
        for i in range(1, alg.n + 1):
            assert hom_dim(quo, injective(alg, i)) == quo.dims[i - 1]


@pytest.mark.parametrize(
    "chain, step", [(radical_chain, "_radical_step"), (socle_chain, "_socle_subspaces")]
)
def test_chain_is_computed_once_per_module(monkeypatch, chain, step):
    # a fresh algebra, so no earlier test has filled the module's memo; the
    # chains of P_1 are read off its grading, so take the ungraded quotient
    # P_1/rad^2 P_1, whose chains are computed
    p = projective(get_entry("preproj-a-3").build(), 1)
    m = quotient_representation(p, radical_chain(p)[2])
    assert m.radical_degrees is None and m.socle_degrees is None
    real = getattr(repmod, step)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(repmod, step, counted)
    first = chain(m)
    second = chain(m)
    assert second is first
    assert isinstance(first, tuple)
    assert len(calls) == loewy_length(m) == len(first) - 1


def _kron_constraints(m: Representation, n: Representation) -> np.ndarray:
    """The intertwiner system assembled with Kronecker products: the oracle.

    Same unknowns and rows as ``repmod._hom_constraints``: f_v M_a - N_a f_u
    for each arrow a: u -> v, with f_v M_a = (I (x) M_a^T) vec(f_v) and
    N_a f_u = (N_a (x) I) vec(f_u) for row-major vec.
    """
    alg = m.algebra
    fld = m.field
    offsets = np.cumsum([0] + [n.dims[v] * m.dims[v] for v in range(alg.n)])
    total = int(offsets[-1])
    rows = []
    for a in alg.quiver.arrows:
        u, v = alg.quiver.arrow_endpoints(a.name)
        height = n.dims[v - 1] * m.dims[u - 1]
        if not height:
            continue
        block = fld.zeros((height, total))
        if n.dims[v - 1] * m.dims[v - 1]:
            left = np.kron(np.eye(n.dims[v - 1], dtype=np.int64), m.arrow_maps[a.name].array().T)
            block[:, offsets[v - 1] : offsets[v]] += left
        if n.dims[u - 1] * m.dims[u - 1]:
            right = np.kron(n.arrow_maps[a.name].array(), np.eye(m.dims[u - 1], dtype=np.int64))
            block[:, offsets[u - 1] : offsets[u]] -= right
        rows.append(block)
    arr = np.vstack(rows) if rows else fld.zeros((0, total))
    return Matrix(fld, arr).array()


def _zero_module(alg) -> Representation:
    maps = {a.name: Matrix.zeros(alg.field, 0, 0) for a in alg.quiver.arrows}
    return Representation(alg, (0,) * alg.n, maps)


def _change_basis(m: Representation) -> Representation:
    """An isomorphic copy of m: each M_v in the basis g_v = upper unitriangular all-ones.

    In the bases that projectives come in, a loop acts strictly lower
    triangularly; here the loop maps get nonzero diagonal entries, so the
    overlapping f_v M_a and N_a f_v parts of a loop block both carry weight.
    """
    fld = m.field

    def g(d, inverse=False):
        if inverse:  # (all-ones upper unitriangular)^-1 = I - superdiagonal
            return Matrix(fld, np.eye(d, dtype=np.int64) - np.eye(d, k=1, dtype=np.int64))
        return Matrix(fld, np.triu(np.ones((d, d), dtype=np.int64)))

    maps = {}
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        maps[a.name] = g(m.dims[v - 1]).matmul(m.arrow_maps[a.name]).matmul(g(m.dims[u - 1], inverse=True))
    return Representation(m.algebra, m.dims, maps)


def test_change_basis_is_an_isomorphic_module():
    alg = get_entry("trunc-twoloop-2").build()
    p = projective(alg, 1)
    moved = _change_basis(p)
    oracle.validate_representation(moved)
    assert any(moved.arrow_maps[a].array().diagonal().any() for a in ("x", "y"))
    assert hom_dim(p, moved) == hom_dim(moved, p) == hom_dim(p, p)


def _hom_test_algebras():
    """Builtins over Q and over F_7, then fuzz seeds 0-19 over their own fields."""
    for entry in builtin_entries():
        yield entry.id, entry.build()
        yield f"{entry.id}/F7", build_algebra(dataclasses.replace(entry.presentation, field=F7))
    for seed in range(20):
        yield f"random-{seed}", random_admissible(seed).build()


def _densify(rows: list[dict], unknowns: int, fld) -> np.ndarray:
    """The sparse rows as a dense array, checking every coefficient is canonical."""
    out = fld.zeros((len(rows), unknowns))
    for i, row in enumerate(rows):
        for c, x in row.items():
            assert 0 <= c < unknowns
            if fld.is_prime_field:
                assert type(x) is int and 0 <= x < fld.p, x
            else:
                assert type(x) is Fraction, x
            out[i, c] = x
    return out


def test_hom_constraints_match_kronecker_oracle():
    seen = {"loop_diagonal": False, "zero_in_m": False, "zero_in_n": False}
    fields = set()
    for name, alg in _hom_test_algebras():
        modules = [_zero_module(alg)]
        for i in range(1, alg.n + 1):
            modules += [projective(alg, i), injective(alg, i), simple(alg, i)]
            modules.append(_change_basis(projective(alg, i)))
        loops = [a.name for a in alg.quiver.arrows if a.source == a.target]
        for m in modules:
            for n in modules:
                rows, unknowns = repmod._hom_constraints(m, n)
                got = _densify(rows, unknowns, alg.field)
                want = _kron_constraints(m, n)
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), (name, m.dims, n.dims)
                seen["loop_diagonal"] |= any(
                    m.arrow_maps[a].array().diagonal().any() for a in loops
                ) and got.size > 0
                seen["zero_in_m"] |= any(a == 0 < b for a, b in zip(m.dims, n.dims))
                seen["zero_in_n"] |= any(b == 0 < a for a, b in zip(m.dims, n.dims))
        fields.add(alg.field)
    assert all(seen.values()), seen
    assert {F7, RATIONAL} <= fields


def _random_invertible(fld, d: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A random dense invertible d x d matrix g and its inverse, over fld."""
    while True:
        lo, hi = (0, fld.p - 1) if fld.is_prime_field else (-3, 3)
        rows = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]
        g = Matrix.from_rows(fld, rows, cols=d)
        # row-reduce [g | I]: g is invertible iff the left block reduces to I
        both = Matrix(fld, np.hstack([g.array(), Matrix.identity(fld, d).array()]))
        red = rref(both)
        if red.pivot_cols[:d] == tuple(range(d)):
            return g, Matrix(fld, red.reduced.array()[:, d:])


def _conjugate(m: Representation, rng: random.Random) -> Representation:
    """g M g^-1: M with each M_v re-based by a random dense invertible g_v."""
    fld = m.field
    pairs = [_random_invertible(fld, d, rng) for d in m.dims]
    maps = {}
    for a in m.algebra.quiver.arrows:
        u, v = m.algebra.quiver.arrow_endpoints(a.name)
        maps[a.name] = pairs[v - 1][0].matmul(m.arrow_maps[a.name]).matmul(pairs[u - 1][1])
    return Representation(m.algebra, m.dims, maps)


def test_hom_dim_is_invariant_under_dense_change_of_basis(monkeypatch):
    # Hom(gMg^-1, hNh^-1) is isomorphic to Hom(M, N); in dense bases the
    # intertwiner rows fill in, so the dense tail of the rank runs too
    from adrkit import exactlin

    tails = []
    real = exactlin._rank_array
    monkeypatch.setattr(exactlin, "_rank_array", lambda a, f: tails.append(a.shape) or real(a, f))
    rng = random.Random(2024)
    algebras = [(e.id, e.build()) for e in builtin_entries()]
    algebras += [
        (f"{e.id}/F7", build_algebra(dataclasses.replace(e.presentation, field=F7)))
        for e in builtin_entries()
    ]
    algebras += [(f"random-{seed}", random_admissible(seed).build()) for seed in range(10)]
    fields = set()
    for name, alg in algebras:
        modules = [f(alg, i) for i in range(1, alg.n + 1) for f in (projective, injective)]
        moved = [_conjugate(m, rng) for m in modules]
        for m, m2 in zip(modules, moved):
            for n, n2 in zip(modules, moved):
                assert hom_dim(m2, n2) == hom_dim(m, n), (name, m.dims, n.dims)
        fields.add(alg.field)
    assert {F7, RATIONAL} <= fields
    assert tails, "no Hom system reached the dense tail"


def test_hom_yoneda_on_truncated_projectives_and_socle_submodules():
    # Hom(P_i, M) = e_i M and Hom(M, Q_i) = D(M e_i): both have dimension
    # dim M_i, whatever M is; no formula route is consulted
    for name, alg in _hom_test_algebras():
        modules = []
        for k in range(1, alg.n + 1):
            p, q = projective(alg, k), injective(alg, k)
            modules += [truncate(p, j) for j in range(1, loewy_length(p) + 1)]
            modules += [socle_sub(q, j) for j in range(1, loewy_length(q) + 1)]
        for m in modules:
            for i in range(1, alg.n + 1):
                assert hom_dim(projective(alg, i), m) == m.dims[i - 1], (name, i, m.dims)
                assert hom_dim(m, injective(alg, i)) == m.dims[i - 1], (name, i, m.dims)


def test_hom_route_never_reaches_rref(monkeypatch, kx3):
    # the Hom route must not share its elimination with the formula route
    from adrkit import exactlin

    p, q = projective(kx3, 1), injective(kx3, 1)

    def forbidden(*args):
        raise AssertionError("the Hom route reached the RREF code")

    for owner, name in (
        (exactlin, "rref"),
        (exactlin, "_rref_array"),
        (exactlin, "row_space_basis"),
        (repmod, "row_space_basis"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    assert hom_dim(p, q) == 3
    assert exactlin.rank(Matrix.identity(RATIONAL, 2)) == 2


def test_hom_reads_each_modules_arrow_data_once(monkeypatch):
    # all Hom systems between the projectives and injectives of a fresh
    # algebra: the sparse columns of M_a and the negated rows of N_a are read
    # once per module and arrow, not once per pair of modules
    alg = get_entry("preproj-a-3").build()
    modules = [f(alg, i) for i in range(1, alg.n + 1) for f in (projective, injective)]
    calls = []
    real = repmod._sparse_rows
    monkeypatch.setattr(repmod, "_sparse_rows", lambda a: calls.append(a.shape) or real(a))
    dims = [[hom_dim(m, n) for n in modules] for m in modules]
    # read once per pair, the 36 pairs would read up to 2 * 36 * 4 arrays
    assert len(calls) <= 2 * len(modules) * len(alg.quiver.arrows)
    # the memo changes no answer: Hom(P_i, M) = M_i and Hom(M, Q_i) = M_i
    for k, m in enumerate(modules):
        for i in range(alg.n):
            assert dims[2 * i][k] == dims[k][2 * i + 1] == m.dims[i]


def test_hom_between_disjoint_supports_builds_no_system(monkeypatch, a2):
    def forbidden(*args):
        raise AssertionError("a Hom system was built for modules with disjoint supports")

    s1, s2 = simple(a2, 1), simple(a2, 2)
    # P_2 and P_1 meet only at vertex 2, where Hom(P_2, P_1) = (P_1)_2 lives
    assert hom_dim(projective(a2, 2), projective(a2, 1)) == 1
    monkeypatch.setattr(repmod, "_hom_constraints", forbidden)
    assert hom_dim(s1, s2) == hom_dim(s2, s1) == 0
    assert hom_dim(s1, _zero_module(a2)) == hom_dim(_zero_module(a2), s1) == 0
