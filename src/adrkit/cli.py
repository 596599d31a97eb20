"""Command-line entry point: analyze presentation files, manage the corpus.

Input schema (JSON object):
  field      {"kind": "prime", "p": 5} or {"kind": "rational"}
  vertices   array of vertex-name strings
  arrows     array of {"name", "source", "target"}
  relations  array of {"terms": [{"coeff": "<integer or a/b>", "path": [...]}]}
  cap        integer nilpotency bound

Exit codes: 0 success, 2 input error (also a negative ``--samples`` or an
unwritable ``--out``), 3 internal inconsistency (an identity backed by a
theorem failed, which should never happen).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .adrcore import (
    NegativeMultiplicityError,
    cartan_RA_formula,
    cartan_RA_hom,
    cartan_ringel_dual,
    cartan_SA_formula,
    cartan_SA_hom,
    theorem_a_hypotheses,
)
from .corpus import GenerationExhaustedError, entry_ids, get_entry, run_fuzz
from .exactlin import RATIONAL, FieldSpec
from .presentation import (
    AlgebraData,
    AlgebraPresentation,
    Arrow,
    PresentationError,
    Quiver,
    Relation,
    build_algebra,
    check_label_budget,
    check_work_budget,
)
from .repmod import is_nakayama, is_selfinjective
from .theorems import (
    InternalInconsistencyError,
    check_opposite_symmetry,
    check_theorem_a,
    check_theorem_b,
    duality_failures,
    ringel_selfdual_verdict,
)


class SchemaError(ValueError):
    """Input file violates the presentation schema; message names the field."""


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}: missing")
    return doc[key]


def _parse_field(doc, path: str) -> FieldSpec:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = _need(doc, "kind", path)
    if kind == "rational":
        if "p" in doc:
            raise SchemaError(f"{path}.p: rational field takes no p")
        return RATIONAL
    if kind == "prime":
        p = _need(doc, "p", path)
        if not isinstance(p, int) or isinstance(p, bool):
            raise SchemaError(f"{path}.p: expected an integer")
        try:
            return FieldSpec.prime(p)
        except ValueError as exc:
            raise SchemaError(f"{path}.p: {exc}")
    raise SchemaError(f"{path}.kind: expected 'prime' or 'rational', got {kind!r}")


# an integer or a/b, at most 4300 digits per part (the default int/str limit)
_COEFF = re.compile(r"([+-]?\d{1,4300})(?:/(\d{1,4300}))?", re.ASCII)


def _parse_coeff(raw, path: str, field: FieldSpec) -> int | Fraction:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        match = _COEFF.fullmatch(raw)
        if match is None or int(match[2] or 1) == 0:
            raise SchemaError(f"{path}: expected an integer or a/b string, got {raw!r}")
        frac = Fraction(int(match[1]), int(match[2] or 1))
        try:
            field.coerce(frac)
        except ZeroDivisionError:
            raise SchemaError(f"{path}: denominator vanishes mod {field.p}")
        return frac.numerator if frac.denominator == 1 else frac
    raise SchemaError(f"{path}: expected an integer or a/b string")


def parse_presentation_doc(doc: dict, field: FieldSpec | None = None) -> AlgebraPresentation:
    """Validate a presentation document; ``field``, if given, replaces its field."""
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")
    doc_field = _parse_field(_need(doc, "field", "$"), "$.field")
    if field is None:
        field = doc_field
    vertices = _need(doc, "vertices", "$")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("$.vertices: expected an array of strings")
    arrows_doc = _need(doc, "arrows", "$")
    if not isinstance(arrows_doc, list):
        raise SchemaError("$.arrows: expected an array")
    arrows = []
    for idx, a in enumerate(arrows_doc):
        path = f"$.arrows[{idx}]"
        if not isinstance(a, dict):
            raise SchemaError(f"{path}: expected an object")
        name = _need(a, "name", path)
        source = _need(a, "source", path)
        target = _need(a, "target", path)
        for key, val in (("name", name), ("source", source), ("target", target)):
            if not isinstance(val, str):
                raise SchemaError(f"{path}.{key}: expected a string")
        if source not in vertices:
            raise SchemaError(f"{path}.source: unknown vertex {source!r}")
        if target not in vertices:
            raise SchemaError(f"{path}.target: unknown vertex {target!r}")
        arrows.append(Arrow(name, source, target))
    relations_doc = _need(doc, "relations", "$")
    if not isinstance(relations_doc, list):
        raise SchemaError("$.relations: expected an array")
    relations = []
    arrow_names = {a.name for a in arrows}
    for ridx, r in enumerate(relations_doc):
        rpath = f"$.relations[{ridx}]"
        if not isinstance(r, dict):
            raise SchemaError(f"{rpath}: expected an object")
        terms_doc = _need(r, "terms", rpath)
        if not isinstance(terms_doc, list) or not terms_doc:
            raise SchemaError(f"{rpath}.terms: expected a non-empty array")
        terms = []
        for tidx, t in enumerate(terms_doc):
            tpath = f"{rpath}.terms[{tidx}]"
            if not isinstance(t, dict):
                raise SchemaError(f"{tpath}: expected an object")
            coeff = _parse_coeff(_need(t, "coeff", tpath), f"{tpath}.coeff", field)
            path_doc = _need(t, "path", tpath)
            if not isinstance(path_doc, list) or not all(isinstance(x, str) for x in path_doc):
                raise SchemaError(f"{tpath}.path: expected an array of arrow names")
            for name in path_doc:
                if name not in arrow_names:
                    raise SchemaError(f"{tpath}.path: unknown arrow {name!r}")
            terms.append((coeff, tuple(path_doc)))
        relations.append(Relation(tuple(terms)))
    cap = _need(doc, "cap", "$")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise SchemaError("$.cap: expected a positive integer")
    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
        return AlgebraPresentation(field, quiver, tuple(relations), cap)
    except PresentationError as exc:
        raise SchemaError(f"$: {exc}")


def presentation_to_doc(p: AlgebraPresentation) -> dict:
    field_doc = {"kind": p.field.kind}
    if p.field.p:
        field_doc["p"] = p.field.p
    return {
        "field": field_doc,
        "vertices": list(p.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in p.quiver.arrows
        ],
        "relations": [
            {
                "terms": [
                    {"coeff": str(coeff), "path": list(names)}
                    for coeff, names in rel.terms
                ]
            }
            for rel in p.relations
        ],
        "cap": p.cap,
    }


def _parse_field_flag(text: str) -> FieldSpec:
    if text == "rational":
        return RATIONAL
    if text.startswith("p="):
        try:
            return FieldSpec.prime(int(text[2:]))
        except ValueError as exc:
            raise SchemaError(f"--field: {exc}")
    raise SchemaError(f"--field: expected 'rational' or 'p=<prime>', got {text!r}")


def analyze_presentation(pres: AlgebraPresentation, skip_corroboration: bool = False) -> dict:
    """Full pipeline: build, label and work budgets, matrices with oracle re-verification, verdicts.

    Unless ``skip_corroboration``, C(R_A) and C(S_A) are rechecked against
    their Hom routes and against the transposed formula matrices of A^op
    (``theorems.duality_failures``); a failed recheck raises
    ``InternalInconsistencyError``.
    """
    start = time.monotonic()
    alg = build_algebra(pres)
    check_label_budget(alg)
    check_work_budget(alg, hom_routes=not skip_corroboration)
    cra = cartan_RA_formula(alg)
    csa = cartan_SA_formula(alg)
    if not skip_corroboration:
        if cra != cartan_RA_hom(alg):
            raise InternalInconsistencyError("C(R_A) failed its Hom-route recheck")
        if csa != cartan_SA_hom(alg):
            raise InternalInconsistencyError("C(S_A) failed its Hom-route recheck")
        witnesses = duality_failures(alg)
        if witnesses:
            raise InternalInconsistencyError(f"duality recheck against A^op fails: {witnesses[0]}")
    crd = cartan_ringel_dual(alg)
    verdicts = {
        "theorem_a": check_theorem_a(alg).to_dict(),
        "theorem_b": check_theorem_b(alg).to_dict(),
        "theorem_c": ringel_selfdual_verdict(alg).to_dict(),
        "opposite_symmetry": check_opposite_symmetry(alg).to_dict(),
    }
    report = {
        "input": presentation_to_doc(pres),
        "algebra": _algebra_summary(alg),
        "matrices": {
            "cartan_RA": cra.to_dict(),
            "cartan_ringel_dual": crd.to_dict(),
            "cartan_SA": csa.to_dict(),
        },
        "verdicts": verdicts,
        "tool": {"name": "adrkit", "version": __version__},
        "volatile": {"wall_time_seconds": round(time.monotonic() - start, 6)},
    }
    return report


def _algebra_summary(alg: AlgebraData) -> dict:
    hyp = theorem_a_hypotheses(alg)
    return {
        "field": alg.field.describe(),
        "dim": alg.dim,
        "loewy_length": alg.loewy_length,
        "connected": alg.connected,
        "vertices": list(alg.quiver.vertices),
        "projective_loewy_lengths": list(hyp.ll_p),
        "injective_loewy_lengths": list(hyp.ll_q),
        "projective_rigid": list(hyp.rigid_p),
        "injective_rigid": list(hyp.rigid_q),
        "nakayama": is_nakayama(alg),
        "selfinjective": is_selfinjective(alg),
    }


def _matrix_table(title: str, mat: dict) -> str:
    head = [""] + [f"({i},{j})" for i, j in mat["col_labels"]]
    row_headers = [f"({i},{j})" for i, j in mat["row_labels"]]
    widths = [max(len(h), 5) for h in head]
    body = []
    for r, row in enumerate(mat["entries"]):
        cells = [row_headers[r]] + [str(x) for x in row]
        body.append(cells)
    for cells in body:
        for c, cell in enumerate(cells):
            widths[c] = max(widths[c], len(cell))
    out = [title + ":"]
    out.append("  " + "  ".join(h.rjust(widths[c]) for c, h in enumerate(head)))
    for cells in body:
        out.append("  " + "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(cells)))
    return "\n".join(out)


def render_table(report: dict) -> str:
    a = report["algebra"]
    lines = [
        f"adrkit {report['tool']['version']} analysis",
        f"field {a['field']}, dim {a['dim']}, Loewy length {a['loewy_length']}, "
        f"connected {a['connected']}, Nakayama {a['nakayama']}, "
        f"selfinjective {a['selfinjective']}",
        f"LL(P_i) = {a['projective_loewy_lengths']}, LL(Q_i) = {a['injective_loewy_lengths']}",
        f"rigid(P_i) = {a['projective_rigid']}, rigid(Q_i) = {a['injective_rigid']}",
        "",
    ]
    lines.append(_matrix_table("C(R_A)", report["matrices"]["cartan_RA"]))
    lines.append("")
    lines.append(_matrix_table("C(R(R_A))", report["matrices"]["cartan_ringel_dual"]))
    lines.append("")
    lines.append(_matrix_table("C(S_A)", report["matrices"]["cartan_SA"]))
    lines.append("")
    for key, verdict in report["verdicts"].items():
        status = "holds" if verdict["holds"] else (
            "not applicable" if not verdict["applicable"] else "does not hold"
        )
        lines.append(f"{key}: {status}")
        for check in verdict["hypotheses"] + verdict["evidence"]:
            mark = "ok" if check["passed"] else "FAIL"
            witness = f" [{check['witness']}]" if check["witness"] else ""
            lines.append(f"    {mark:4} {check['description']}{witness}")
    lines.append("")
    lines.append(f"wall time: {report['volatile']['wall_time_seconds']}s")
    return "\n".join(lines)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for dicts with string keys, lists, tuples and scalars.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, which makes
    several calls per scalar; here a list of ints, such as a Cartan matrix
    row, is written with one join.  Strings are escaped to ASCII as
    ``json.dumps`` escapes them (``encode_basestring_ascii``), and any other
    scalar is ``json.dumps`` of it.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts)
    return "".join(parts)


def _write_json(obj, newline: str, parts: list[str]) -> None:
    """Append the text of ``obj`` to ``parts``; ``newline`` is a line break and the indent of ``obj``'s own line."""
    inner = newline + "  "
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key, value in obj.items():
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        if all(type(x) is int for x in obj):
            parts.append("[" + inner + ("," + inner).join(map(str, obj)) + newline + "]")
            return
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _write_json(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:  # a number, a bool, None, or an empty dict or list
        parts.append(json.dumps(obj))


def _emit(text: str, out: str | None) -> int:
    """Write to ``out`` or stdout; the exit code, 2 if ``out`` cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_analyze(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, an over-long integer literal, deep nesting
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        field = _parse_field_flag(args.field) if args.field else None
        pres = parse_presentation_doc(doc, field)
        report = analyze_presentation(pres, skip_corroboration=args.skip_fuzz_corroboration)
    except (SchemaError, PresentationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInconsistencyError, NegativeMultiplicityError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        return _emit(_json_text(report) + "\n", args.out)
    return _emit(render_table(report) + "\n", args.out)


def cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        for entry_id in entry_ids():
            print(entry_id)
        return 0
    if args.corpus_command == "emit":
        try:
            entry = get_entry(args.id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        doc = presentation_to_doc(entry.presentation)
        return _emit(_json_text(doc) + "\n", args.out)
    if args.corpus_command == "fuzz":
        try:
            summary = run_fuzz(args.samples, args.seed)
        except GenerationExhaustedError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"fuzz: samples={summary['samples']} passed={summary['passed']} "
            f"failed={summary['failed']}"
        )
        for item in summary["first_failures"]:
            print(f"  seed {item['seed']}: {'; '.join(item['failures'])}")
        return 0 if summary["failed"] == 0 else 3
    raise AssertionError("unreachable")


def _count(text: str) -> int:
    """argparse type of ``--samples``: a non-negative decimal integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to :func:`main` and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="adrkit",
        description="Exact Cartan matrices and structure verdicts for ADR algebras "
        "of quiver algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a presentation file")
    pa.add_argument("path", help="presentation JSON file")
    pa.add_argument("--field", help="override the base field: 'rational' or 'p=<prime>'")
    pa.add_argument("--out", help="write the report to a file instead of stdout")
    pa.add_argument("--format", choices=["json", "table"], default="json")
    pa.add_argument(
        "--skip-fuzz-corroboration",
        action="store_true",
        help="skip the Hom-route rechecks of C(R_A) and C(S_A) and their duality "
        "recheck against A^op (faster); the tilting-Hom route to C(R(R_A)) runs "
        "inside theorem A's verdict either way",
    )

    pc = sub.add_parser("corpus", help="builtin corpus utilities")
    csub = pc.add_subparsers(dest="corpus_command", required=True)
    csub.add_parser("list", help="list builtin corpus ids")
    ce = csub.add_parser("emit", help="write a builtin presentation file")
    ce.add_argument("id")
    ce.add_argument("--out")
    cf = csub.add_parser("fuzz", help="run the invariant suite on random algebras")
    cf.add_argument("--samples", type=_count, default=100)
    cf.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so a wrapped or replaced command runs
    return (cmd_analyze if args.command == "analyze" else cmd_corpus)(args)


if __name__ == "__main__":
    sys.exit(main())
