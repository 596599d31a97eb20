import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adrkit import cli
from adrkit.cli import (
    SchemaError,
    analyze_presentation,
    parse_presentation_doc,
    presentation_to_doc,
)
from adrkit.corpus import builtin_entries, get_entry, preprojective_a, random_admissible
from adrkit.exactlin import FieldSpec
from adrkit.presentation import HOM_WORK_BUDGET, LABEL_BUDGET, WORK_BUDGET, Arrow, Quiver, Relation
from test_repmod import _analyze_inputs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def x3_doc():
    return presentation_to_doc(get_entry("nakayama-1-3").presentation)


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_roundtrip_parse_to_doc():
    for entry in builtin_entries():
        doc = presentation_to_doc(entry.presentation)
        assert parse_presentation_doc(doc) == entry.presentation
        assert presentation_to_doc(parse_presentation_doc(doc)) == doc


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    scale=st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
)
def test_roundtrip_random_presentations(seed, scale):
    # every relation scaled by a drawn nonzero fraction, so "a/b" coefficients
    # and negative ones go through the document too
    pres = random_admissible(seed).presentation
    assume(pres.field.p is None or scale.denominator % pres.field.p)
    pres = dataclasses.replace(
        pres,
        relations=tuple(
            Relation(tuple((scale * c, names) for c, names in rel.terms)) for rel in pres.relations
        ),
    )
    doc = json.loads(json.dumps(presentation_to_doc(pres)))
    assert parse_presentation_doc(doc) == pres
    assert presentation_to_doc(parse_presentation_doc(doc)) == doc


def test_analyze_x3_report_values(tmp_path, capsys):
    path = write_doc(tmp_path, x3_doc())
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 0, err
    report = json.loads(out)
    assert report["matrices"]["cartan_RA"]["entries"] == [
        [1, 1, 1],
        [1, 2, 2],
        [1, 2, 3],
    ]
    assert report["verdicts"]["theorem_c"]["holds"] is True
    assert report["input"] == x3_doc()
    assert report["algebra"]["selfinjective"] is True


def test_analyze_a2_witness(tmp_path, capsys):
    path = write_doc(tmp_path, presentation_to_doc(get_entry("trunc-a2-2").presentation))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    report = json.loads(out)
    verdict = report["verdicts"]["theorem_a"]
    assert verdict["holds"] is False
    witnesses = [c["witness"] for c in verdict["hypotheses"] if c["witness"]]
    assert any("LL(Q_1)=1" in w for w in witnesses)


def test_analyze_field_override_matches(tmp_path, capsys):
    path = write_doc(tmp_path, x3_doc())
    _, out2, _ = run_cli(capsys, "analyze", path, "--field", "p=2")
    _, out7, _ = run_cli(capsys, "analyze", path, "--field", "p=7")
    m2 = json.loads(out2)["matrices"]
    m7 = json.loads(out7)["matrices"]
    assert m2 == m7
    assert json.loads(out2)["algebra"]["field"] == "F_2"


_RATIONAL_INPUTS = [e.presentation for e in builtin_entries()]
_RATIONAL_IDS = [e.id for e in builtin_entries()]


@pytest.mark.parametrize(
    "pres",
    _RATIONAL_INPUTS + [preprojective_a(n).presentation for n in (4, 5, 6)],
    ids=_RATIONAL_IDS + [f"preproj-a-{n}" for n in (4, 5, 6)],
)
def test_analyze_over_q_and_f7_agree(pres):
    # Q runs the integer eliminations, F_7 and F_{2^31-1} the int64 ones, the
    # latter at the top of their range, on the same presentation: every
    # matrix, verdict and algebra field but one agrees
    assert pres.field.p is None
    over_q = analyze_presentation(pres)
    assert over_q["algebra"].pop("field") == "Q"
    for p in (7, 2**31 - 1):
        over_p = analyze_presentation(parse_presentation_doc(presentation_to_doc(pres), FieldSpec.prime(p)))
        assert over_q["matrices"] == over_p["matrices"], p
        assert over_q["verdicts"] == over_p["verdicts"], p
        assert over_p["algebra"].pop("field") == f"F_{p}"
        assert over_q["algebra"] == over_p["algebra"], p


@pytest.mark.parametrize(
    "index, pres",
    list(enumerate(_RATIONAL_INPUTS + [preprojective_a(4).presentation])),
    ids=_RATIONAL_IDS + ["preproj-a-4"],
)
def test_analyze_is_invariant_under_rescaled_relations(index, pres):
    # a relation and any nonzero multiple of it span the same ideal, so
    # scaling each relation by its own drawn fraction changes only the input;
    # the scaled coefficients give the ideal spans non-integral entries
    rng = random.Random(index)
    scales = [
        Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 12))
        for _ in pres.relations
    ]
    scaled = dataclasses.replace(
        pres,
        relations=tuple(
            Relation(tuple((scale * c, names) for c, names in rel.terms))
            for scale, rel in zip(scales, pres.relations)
        ),
    )
    before, after = analyze_presentation(pres), analyze_presentation(scaled)
    assert after["input"] != before["input"] or not pres.relations
    for report in (before, after):
        del report["input"], report["volatile"]
    assert json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True)


def test_analyze_deterministic_modulo_volatile(tmp_path, capsys):
    path = write_doc(tmp_path, x3_doc())
    _, out_a, _ = run_cli(capsys, "analyze", path)
    _, out_b, _ = run_cli(capsys, "analyze", path)
    rep_a = json.loads(out_a)
    rep_b = json.loads(out_b)
    rep_a.pop("volatile")
    rep_b.pop("volatile")
    assert json.dumps(rep_a) == json.dumps(rep_b)


def test_analyze_table_format(tmp_path, capsys):
    path = write_doc(tmp_path, x3_doc())
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "table")
    assert code == 0
    assert "C(R_A)" in out
    assert "theorem_c: holds" in out


def test_analyze_out_file(tmp_path, capsys):
    path = write_doc(tmp_path, x3_doc())
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "analyze", path, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["tool"]["name"] == "adrkit"


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/file.json")
    assert code == 2
    assert "cannot read" in err


def test_analyze_bad_json(tmp_path, capsys):
    contents = {
        "syntax": b"{not json",
        "not-utf8": b"\xff\xfe{\x00}\x00",
        "long-integer": b"1" + b"0" * 5000,  # over the 4300-digit int/str limit
        "deep-nesting": b"[" * 200_000 + b"]" * 200_000,
    }
    for name, content in contents.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 2, name
        assert out == "" and err.startswith("error: "), name


def test_analyze_schema_violation_names_field(tmp_path, capsys):
    doc = x3_doc()
    doc["arrows"][0]["source"] = "9"
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert "$.arrows[0].source" in err


def test_analyze_cap_too_small_hint(tmp_path, capsys):
    doc = x3_doc()
    doc["relations"] = [
        {
            "terms": [
                {"coeff": "1", "path": ["a1", "a1"]},
                {"coeff": "-1", "path": ["a1", "a1", "a1"]},
            ]
        }
    ]
    doc["cap"] = 5
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert "raise the cap" in err


def test_analyze_fraction_coefficients(tmp_path, capsys):
    doc = x3_doc()
    doc["relations"][0]["terms"][0]["coeff"] = "1/2"
    code, out, _ = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 0
    assert json.loads(out)["verdicts"]["theorem_c"]["holds"] is True


def test_internal_inconsistency_exit_code(tmp_path, capsys, monkeypatch):
    from adrkit import adrcore

    def corrupted(alg):
        mat = adrcore.cartan_RA_formula(alg)
        flipped = tuple(
            tuple(x + 1 for x in row) for row in mat.entries
        )
        return adrcore.LabeledMatrix(mat.row_labels, mat.col_labels, flipped)

    monkeypatch.setattr(cli, "cartan_RA_hom", corrupted)
    path = write_doc(tmp_path, x3_doc())
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3
    assert "inconsistency" in err


def test_duality_recheck_failure_exits_3_naming_the_entry(tmp_path, capsys, monkeypatch):
    # C(R_A) must be the transpose of C(S_{A^op}); one entry of the second,
    # bumped, is named by its label pair before any verdict runs
    from adrkit import adrcore, theorems

    def bumped(alg):
        mat = adrcore.cartan_SA_formula(alg)
        entries = [list(row) for row in mat.entries]
        entries[0][1] += 1
        return adrcore.LabeledMatrix(mat.row_labels, mat.col_labels, tuple(map(tuple, entries)))

    path = write_doc(tmp_path, presentation_to_doc(get_entry("preproj-a-3").presentation))
    assert run_cli(capsys, "analyze", path)[0] == 0
    monkeypatch.setattr(theorems, "cartan_SA_formula", bumped)
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 3 and out == ""
    assert err == (
        "internal inconsistency: duality recheck against A^op fails: "
        "C(R_A) vs C(S_{A^op}): not transposed at (1, 2),(1, 1)\n"
    )


def _analyze_without_volatile(capsys, path, *flags) -> dict:
    code, out, _ = run_cli(capsys, "analyze", path, *flags)
    assert code == 0
    report = json.loads(out)
    del report["volatile"]
    return report


def test_skip_corroboration_flag(tmp_path, capsys, monkeypatch):
    # without the Hom routes and the duality recheck the formula route builds
    # the truncation modules itself; the report must not change
    paths = {
        e.id: write_doc(tmp_path, presentation_to_doc(e.presentation), f"{e.id}.json")
        for e in builtin_entries()
    }
    full = {key: _analyze_without_volatile(capsys, path) for key, path in paths.items()}

    def boom(alg):
        raise AssertionError("oracle should not run")

    monkeypatch.setattr(cli, "cartan_RA_hom", boom)
    monkeypatch.setattr(cli, "cartan_SA_hom", boom)
    monkeypatch.setattr(cli, "duality_failures", boom)
    for key, path in paths.items():
        skipped = _analyze_without_volatile(capsys, path, "--skip-fuzz-corroboration")
        assert skipped == full[key], key


def test_corpus_list(capsys):
    code, out, _ = run_cli(capsys, "corpus", "list")
    assert code == 0
    ids = out.split()
    assert "nakayama-2-2" in ids
    assert any(i.startswith("trunc-") for i in ids)
    assert any(i.startswith("preproj-a-") for i in ids)


def test_corpus_emit_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "nak22.json"
    code, _, _ = run_cli(capsys, "corpus", "emit", "nakayama-2-2", "--out", str(out_path))
    assert code == 0
    emitted = json.loads(out_path.read_text())
    code, out, _ = run_cli(capsys, "analyze", str(out_path))
    assert code == 0
    assert json.loads(out)["input"] == emitted


def test_corpus_emit_unknown_id(capsys):
    code, _, err = run_cli(capsys, "corpus", "emit", "no-such-entry")
    assert code == 2
    assert "unknown corpus id" in err


def test_reports_are_written_byte_for_byte_as_json_dumps_indent_2(tmp_path, capsys, monkeypatch):
    # analyze and corpus emit write through one emitter; its bytes are those
    # of json.dumps(..., indent=2) on the report analyze built, for every
    # builtin under three fields and for the perfbench analyze inputs
    reports = []
    real = cli.analyze_presentation

    def kept(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "analyze_presentation", kept)
    out = tmp_path / "out.json"
    runs = [(entry.id, ("--field", field)) for entry in builtin_entries() for field in ("p=2", "p=7", "rational")]
    for entry in builtin_entries():
        assert run_cli(capsys, "corpus", "emit", entry.id, "--out", str(out))[0] == 0
        assert out.read_text() == json.dumps(presentation_to_doc(entry.presentation), indent=2) + "\n"
        path = tmp_path / f"{entry.id}.json"
        path.write_text(out.read_text())
    for k, entry in enumerate(_analyze_inputs()):
        (tmp_path / f"perfbench-{k}.json").write_text(json.dumps(presentation_to_doc(entry.presentation)))
        runs.append((f"perfbench-{k}", ()))
    for name, flags in runs:
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / f"{name}.json"), "--out", str(out), *flags)
        assert code == 0, (name, err)
        assert out.read_text() == json.dumps(reports[-1], indent=2) + "\n", (name, flags)
    assert len(reports) == len(runs)


def test_json_text_matches_json_dumps_on_every_kind_of_value():
    values = [
        {}, [], (), "", 0, -7, 2**70, 0.5, 1e-7, float("inf"), True, False, None,
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": ()},
        [1, True, 2], [1, 2.0], [1, None], (3, 4), [[1, 2], [3]], ["x", 1],
        {"\u00e9\u4e2d\n\"q\"\t\\": "\u00e9\ud83d\ude00\x00", "": [0]},
        {"nested": {"deep": [{"k": [1, [2, [3, {}]]]}]}},
    ]
    for value in values:
        assert cli._json_text(value) == json.dumps(value, indent=2), value


def test_corpus_fuzz_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "corpus", "fuzz", "--samples", "5", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "corpus", "fuzz", "--samples", "5", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "passed=5" in out1


@pytest.mark.parametrize("samples", ["-2", "x"])
def test_corpus_fuzz_rejects_a_bad_sample_count(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["corpus", "fuzz", "--samples", samples])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "corpus", "fuzz", "--samples", "0")
    assert code == 0 and "samples=0 passed=0 failed=0" in out


def test_analyze_unwritable_out_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, x3_doc()), "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_corpus_emit_unwritable_out_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "n.json"
    code, out, err = run_cli(capsys, "corpus", "emit", "nakayama-2-2", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_parse_field_flag_errors():
    with pytest.raises(SchemaError):
        cli._parse_field_flag("banana")
    with pytest.raises(SchemaError):
        cli._parse_field_flag("p=4")


def test_analyze_presentation_skip_flag_works_directly():
    report = analyze_presentation(get_entry("nakayama-1-2").presentation)
    assert report["matrices"]["cartan_ringel_dual"]["entries"] == [[2, 1], [1, 1]]
    assert report["verdicts"]["theorem_b"]["holds"] is True


def disconnected_doc():
    return {
        "field": {"kind": "rational"},
        "vertices": ["1", "2"],
        "arrows": [
            {"name": "x", "source": "1", "target": "1"},
            {"name": "y", "source": "2", "target": "2"},
        ],
        "relations": [
            {"terms": [{"coeff": "1", "path": ["x", "x"]}]},
            {"terms": [{"coeff": "1", "path": ["y", "y", "y"]}]},
        ],
        "cap": 3,
    }


def test_analyze_disconnected_reports_components(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "analyze", write_doc(tmp_path, disconnected_doc()))
    assert code == 0
    report = json.loads(out)
    verdict = report["verdicts"]["theorem_b"]
    assert verdict["applicable"] is False
    assert len(verdict["details"]["components"]) == 2
    assert report["algebra"]["connected"] is False
    # product of selfinjective Nakayama components stays Ringel selfdual
    assert report["verdicts"]["theorem_c"]["holds"] is True


def test_analyze_nonrigid_entry(tmp_path, capsys):
    from adrkit.corpus import get_entry

    doc = presentation_to_doc(get_entry("nonrigid-shortcut-3").presentation)
    code, out, _ = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["theorem_a"]["holds"] is False
    assert report["algebra"]["projective_rigid"] == [False, True, True]
    assert report["algebra"]["injective_rigid"] == [True, True, False]
    assert report["algebra"]["projective_loewy_lengths"] == [3, 2, 1]
    assert report["algebra"]["injective_loewy_lengths"] == [1, 2, 3]


def test_analyze_rational_field_flag(tmp_path, capsys):
    doc = x3_doc()
    doc["field"] = {"kind": "prime", "p": 3}
    path = write_doc(tmp_path, doc)
    code, out, _ = run_cli(capsys, "analyze", path, "--field", "rational")
    assert code == 0
    assert json.loads(out)["algebra"]["field"] == "Q"


def test_analyze_rational_field_with_p_exits_2(tmp_path, capsys):
    # FieldSpec("rational", 5) raises; the document must not silently drop p
    doc = x3_doc()
    doc["field"] = {"kind": "rational", "p": 5}
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert "$.field.p: rational field takes no p" in err


def test_analyze_denominator_vanishing_mod_p(tmp_path, capsys):
    doc = x3_doc()
    doc["relations"][0]["terms"][0]["coeff"] = "1/7"
    message = "$.relations[0].terms[0].coeff: denominator vanishes mod 7"
    over_f7 = dict(doc, field={"kind": "prime", "p": 7})
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, over_f7))
    assert code == 2
    assert message in err
    path = write_doc(tmp_path, doc, "over_q.json")
    code, _, err = run_cli(capsys, "analyze", path, "--field", "p=7")
    assert code == 2
    assert message in err
    code, _, err = run_cli(capsys, "analyze", path, "--field", "p=5")
    assert code == 0, err


@pytest.mark.parametrize(
    "where, set_true",
    [
        ("$.cap", lambda doc: doc.update(cap=True)),
        ("$.field.p", lambda doc: doc.update(field={"kind": "prime", "p": True})),
        (
            "$.relations[0].terms[0].coeff",
            lambda doc: doc["relations"][0]["terms"][0].update(coeff=True),
        ),
    ],
)
def test_analyze_rejects_booleans_as_integers(tmp_path, capsys, where, set_true):
    doc = x3_doc()
    set_true(doc)
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert code == 2
    assert f"{where}: expected" in err
    assert out == ""


def test_analyze_outsized_path_count_exits_2_fast(tmp_path, capsys):
    # two loops at cap 40 would have 2^41 - 1 paths to list
    doc = {
        "field": {"kind": "prime", "p": 7},
        "vertices": ["1"],
        "arrows": [
            {"name": "x", "source": "1", "target": "1"},
            {"name": "y", "source": "1", "target": "1"},
        ],
        "relations": [{"terms": [{"coeff": "1", "path": ["x", "y"]}]}],
        "cap": 40,
    }
    start = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "path budget" in err and "cap=40" in err


def test_analyze_long_single_loop_exits_2_fast(tmp_path, capsys):
    # one loop at cap 100 000 has few paths (100 001) but about 5 * 10^9 letters
    doc = {
        "field": {"kind": "prime", "p": 7},
        "vertices": ["1"],
        "arrows": [{"name": "x", "source": "1", "target": "1"}],
        "relations": [],
        "cap": 100_000,
    }
    start = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "letters" in err and "path budget" in err and "cap=100000" in err


@pytest.mark.parametrize("coeff", ["1e1000000", "1e30000000"])
def test_analyze_exponent_coefficient_exits_2_fast(tmp_path, capsys, coeff):
    # exponent notation would expand to millions of digits; the schema allows only integers and a/b
    doc = x3_doc()
    doc["relations"][0]["terms"][0]["coeff"] = coeff
    start = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, doc))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "$.relations[0].terms[0].coeff" in err


def _arrowless_doc(n: int) -> dict:
    vertices = [str(v) for v in range(1, n + 1)]
    return {"field": {"kind": "prime", "p": 7}, "vertices": vertices, "arrows": [], "relations": [], "cap": 1}


def test_analyze_wide_quiver_exits_2_fast(tmp_path, capsys):
    # 400 vertices hold only 400 letters, but n * (sum LL(P_i) + sum LL(Q_i))
    # is 400 * 800; the label budget refuses it before any module is built
    start = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", write_doc(tmp_path, _arrowless_doc(400)))
    assert time.monotonic() - start < 1.0
    assert code == 2
    assert out == ""
    assert "400 vertices times 800 labels" in err and "is 320000" in err
    assert f"label budget of {LABEL_BUDGET}" in err


def test_label_budget_admits_its_largest_arrowless_quiver(tmp_path, capsys):
    # 100 vertices and 200 labels are exactly the budget; one vertex more is over it
    assert 100 * 200 == LABEL_BUDGET
    code, _, _ = run_cli(capsys, "analyze", write_doc(tmp_path, _arrowless_doc(100)))
    assert code == 0
    code, _, err = run_cli(capsys, "analyze", write_doc(tmp_path, _arrowless_doc(101)))
    assert code == 2 and "is 20402" in err


def _two_loops_doc(big_l: int) -> dict:
    from adrkit.corpus import truncated_path_algebra

    loops = Quiver(("1",), (Arrow("x1", "1", "1"), Arrow("x2", "1", "1")))
    return presentation_to_doc(truncated_path_algebra(loops, big_l, FieldSpec.prime(7)).presentation)


def test_analyze_refuses_an_algebra_over_the_work_budget(tmp_path, capsys):
    # truncated 2 loops has one vertex and 2^L monomial relations: its paths
    # fit the path budget and its labels the label budget, but W, the Hom
    # unknowns over all pairs of roots, is 2 093 058 at L=10 and 33 538 050
    # at L=12; both are refused before any module is built
    path = write_doc(tmp_path, _two_loops_doc(10))
    code, out, err = run_cli(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert "W = 2093058" in err and f"work budget of {HOM_WORK_BUDGET}" in err
    assert "--skip-fuzz-corroboration" in err
    start = time.monotonic()
    path = write_doc(tmp_path, _two_loops_doc(12))
    code, out, err = run_cli(capsys, "analyze", path, "--skip-fuzz-corroboration")
    assert time.monotonic() - start < 5.0
    assert code == 2 and out == ""
    assert "W = 33538050" in err and f"work budget of {WORK_BUDGET}" in err
    assert "--skip-fuzz-corroboration" not in err
