"""Arrow maps are stored as sparse rows, and no report builds a dense array.

``exactlin.Matrix`` keeps the nonzero canonical entries of each row and
builds its numpy array only when asked.  ``repmod.projective`` writes its
maps straight from ``act`` and ``repmod.injective`` transposes those rows.
These tests check that a matrix built sparse is the matrix built dense, that
the maps of every P_i and Q_i are those of the dense module builder of
``builder_oracle``, and that neither a report nor the invariant battery
builds a dense array (``dense_spy``).
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adrkit.cli import analyze_presentation
from adrkit.corpus import random_admissible, tagged_invariant_failures
from adrkit.exactlin import RATIONAL, FieldSpec, Matrix
from adrkit.presentation import build_algebra
from adrkit.repmod import injective, projective
from builder_oracle import dense_injective_maps, dense_projective_maps
from dense_spy import dense_spy
from test_theorems import _pin_cases

ROOT = Path(__file__).resolve().parent.parent
F7 = FieldSpec.prime(7)


def _analyze_inputs():
    """The six inputs of the benchmark's ``analyze`` workload, read from ``perfbench/child.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [make() for make in module.ANALYZE_INPUTS.values()]


def test_reports_and_the_battery_build_no_dense_array():
    inputs = _analyze_inputs()
    assert len(inputs) == 6
    with dense_spy() as calls:
        for entry in inputs:
            analyze_presentation(entry.presentation)
        for seed in range(910000, 910150):
            assert tagged_invariant_failures(random_admissible(seed).build()) == [], seed
    assert not calls, dict(calls)


def _twins(field):
    """(dense-built, sparse-built) pairs of the same matrices over ``field``."""
    one, two = field.coerce(1), field.coerce(Fraction(2, 3))
    rows = [[0, one, 0], [two, 0, -one], [0, 0, 0]]
    sparse = [{1: one}, {0: two, 2: field.coerce(-one)}, {}]
    yield Matrix.from_rows(field, rows), Matrix.from_sparse(field, sparse, 3)
    yield Matrix(field, np.array(rows, dtype=object)), Matrix.from_sparse(field, sparse, 3)
    yield Matrix(field, np.array([[0, 1], [5, 0]])), Matrix.from_sparse(field, [{1: one}, {0: field.coerce(5)}], 2)
    yield Matrix.zeros(field, 2, 3), Matrix.from_sparse(field, [{}, {}], 3)
    yield Matrix(field, field.zeros((2, 3))), Matrix.from_sparse(field, [{}, {}], 3)
    yield Matrix(field, field.zeros((0, 4))), Matrix.from_sparse(field, [], 4)
    yield Matrix(field, field.zeros((3, 0))), Matrix.from_sparse(field, [{}, {}, {}], 0)
    yield Matrix.from_rows(field, [], 2), Matrix.zeros(field, 0, 2)
    yield Matrix.identity(field, 3), Matrix.from_sparse(field, [{0: one}, {1: one}, {2: one}], 3)


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=lambda f: f.describe())
def test_a_matrix_built_sparse_is_the_matrix_built_dense(field):
    for dense, sparse in _twins(field):
        assert dense == sparse and hash(dense) == hash(sparse)
        assert dense.shape == sparse.shape and dense.entries == sparse.entries
        assert repr(dense) == repr(sparse) and dense.is_zero() == sparse.is_zero()
        assert [dense.row(r) for r in range(dense.rows)] == [sparse.row(r) for r in range(sparse.rows)]
        assert dense.transpose() == sparse.transpose()
        assert dense.array().dtype == sparse.array().dtype == field.dtype
        assert np.array_equal(dense.array(), sparse.array())
        assert not dense.array().flags.writeable and not sparse.array().flags.writeable
    # an entry off by one is another matrix, however it was built
    assert Matrix.from_sparse(field, [{0: field.one}], 1) != Matrix(field, np.array([[2]]))


def test_module_maps_are_those_of_the_dense_builder():
    # the builtins, seeds 910000-910149 and a disjoint union of three
    fields = set()
    for name, pres in _pin_cases():
        alg = build_algebra(pres)
        fields.add(alg.field.kind)
        for i in range(1, alg.n + 1):
            for module, maps in (
                (projective(alg, i), dense_projective_maps(alg, i)),
                (injective(alg, i), dense_injective_maps(alg, i)),
            ):
                assert set(module.arrow_maps) == set(maps), name
                for arrow, want in maps.items():
                    got = module.arrow_maps[arrow]
                    assert got == want and hash(got) == hash(want), (name, i, arrow)
                    assert all(all(row.values()) for row in got.sparse_rows()), (name, i, arrow)
                    assert got.array().dtype == want.array().dtype
                    assert np.array_equal(got.array(), want.array()), (name, i, arrow)
                    assert not got.array().flags.writeable
    assert fields == {"prime", "rational"}
