"""Arrow maps are stored as sparse rows, and adrkit runs without numpy.

``exactlin.Matrix`` keeps the nonzero canonical entries of each row and
nothing else.  ``repmod.projective`` writes its maps straight from ``act``
and ``repmod.injective`` transposes those rows.  These tests check that a
matrix read from rows or arrays is the matrix built sparse, that the maps of
every P_i and Q_i are those of the dense module builder of
``builder_oracle``, and that the reports and the invariant battery run with
numpy blocked (``numpy_blocked.py``, in a subprocess).
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adrkit.exactlin import RATIONAL, FieldSpec, Matrix
from adrkit.presentation import build_algebra
from adrkit.repmod import injective, projective
from builder_oracle import dense_injective_maps, dense_projective_maps
from chain_oracle import dense, zeros
from test_theorems import _pin_cases

ROOT = Path(__file__).resolve().parent.parent
F7 = FieldSpec.prime(7)


def test_reports_and_the_battery_run_with_numpy_blocked():
    # every builtin through adrkit analyze and 200 fuzz samples through the
    # battery, in a process where import numpy raises
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "numpy_blocked.py")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "fuzz: samples=200 passed=200 failed=0" in done.stdout, done.stdout


def _twins(field):
    """(dense-built, sparse-built) pairs of the same matrices over ``field``."""
    one, two = field.coerce(1), field.coerce(Fraction(2, 3))
    rows = [[0, one, 0], [two, 0, -one], [0, 0, 0]]
    sparse = [{1: one}, {0: two, 2: field.coerce(-one)}, {}]
    yield Matrix.from_rows(field, rows), Matrix.from_sparse(field, sparse, 3)
    yield Matrix(field, np.array(rows, dtype=object)), Matrix.from_sparse(field, sparse, 3)
    yield Matrix(field, np.array([[0, 1], [5, 0]])), Matrix.from_sparse(field, [{1: one}, {0: field.coerce(5)}], 2)
    yield Matrix.zeros(field, 2, 3), Matrix.from_sparse(field, [{}, {}], 3)
    yield Matrix(field, zeros(field, (2, 3))), Matrix.from_sparse(field, [{}, {}], 3)
    yield Matrix.from_rows(field, zeros(field, (0, 4)), 4), Matrix.from_sparse(field, [], 4)
    yield Matrix(field, zeros(field, (3, 0))), Matrix.from_sparse(field, [{}, {}, {}], 0)
    yield Matrix.from_rows(field, [], 2), Matrix.zeros(field, 0, 2)
    yield Matrix.identity(field, 3), Matrix.from_sparse(field, [{0: one}, {1: one}, {2: one}], 3)


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=lambda f: f.describe())
def test_a_matrix_built_sparse_is_the_matrix_built_dense(field):
    for read, sparse in _twins(field):
        assert read == sparse and hash(read) == hash(sparse)
        assert read.shape == sparse.shape and read.entries == sparse.entries
        assert repr(read) == repr(sparse) and read.is_zero() == sparse.is_zero()
        assert [read.row(r) for r in range(read.rows)] == [sparse.row(r) for r in range(sparse.rows)]
        assert read.transpose() == sparse.transpose()
        assert read.sparse_rows() == sparse.sparse_rows()
        assert np.array_equal(dense(read), dense(sparse))
    # an entry off by one is another matrix, however it was built
    assert Matrix.from_sparse(field, [{0: field.one}], 1) != Matrix(field, np.array([[2]]))


@pytest.mark.parametrize("field", [F7, RATIONAL], ids=lambda f: f.describe())
def test_matrix_reads_a_2d_sequence_of_rows(field):
    # rows of any sequence type, arrays included, are read entry by entry
    want = Matrix.from_sparse(field, [{0: field.one}, {1: field.coerce(2)}], 2)
    for data in ([[1, 0], [0, 2]], ((1, 0), (0, 2)), (iter(r) for r in [[1, 0], [0, 2]]), np.array([[1, 0], [0, 2]])):
        assert Matrix(field, data) == want
    # not two-dimensional, ragged, or no row to give the width: ValueError
    bad = ([1, 2], np.array([1, 2]), 5, [[[1], [2]]], np.zeros((2, 2, 2), dtype=np.int64), [[1, 2], [3]], [], zeros(field, (0, 3)))
    for data in bad:
        with pytest.raises(ValueError):
            Matrix(field, data)
    with pytest.raises(ValueError):
        Matrix.from_rows(field, [])
    assert Matrix.from_rows(field, [], 3) == Matrix.zeros(field, 0, 3)


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
                    assert np.array_equal(dense(got), dense(want)), (name, i, arrow)
    assert fields == {"prime", "rational"}
