"""Command-line front end.

Verbs: defect, transform, run, classify, verify, higgs.  Documents are
UTF-8 JSON on --input/--output (default stdin/stdout); an input that is
a JSON *list* of documents is processed as a batch.

Exit codes: 0 success / constructed; 2 principled negative result (the
mathematics says no: empty, unconstructible, convention failure);
1 malformed input or a usage error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys

from . import higgs as higgs_mod
from . import katz, moduli
from .docio import (MAX_HIGGS_WEIGHTS, ProblemDocument, check_raw_dim, check_run_terms,
                    parse_document, parse_generate, parse_json, parse_tol, render)
from .errors import (ConventionViolation, ConventionViolationNumeric, DigitLimitExceeded,
                     DocumentError, MaxStepsExceeded, MidconvError, ModeMismatch,
                     NoneffectiveTransform, shown)
from .katz import ConventionReport, NoneffectiveReport, TerminalStatus
from .scalars import GroupMode

OK, NEGATIVE, BAD_INPUT = 0, 2, 1
# a symbolic verify realizes a value exp(2 pi i w) only for |Im w| <= MAX_IMAG, a
# modulus in about [1/1000, 1000]: at 1e4 verify already misses its 1e-8 deviation bound
MAX_IMAG = 1.1


def cmd_defect(doc: ProblemDocument) -> tuple[dict, int]:
    if doc.row_form is None:  # too many generators for dense rows: the objects answer
        vector, beta = doc.vector, doc.convoluter_or_default()
        return {"kind": "defect", "rank": vector.rank, "points": vector.n,
                "defect": katz.defect(vector, beta), "vector_defect": katz.defect(vector),
                "convoluter": beta.to_json()}, OK
    rows, classes, h, v = doc.row_form
    return {
        "kind": "defect",
        "rank": sum(classes[0].values()),
        "points": len(classes),
        "defect": katz.row_defect(classes, [rows.plus(a) for a in h]),
        "vector_defect": katz.row_defect(classes),
        "convoluter": rows.writer()[2](h, v),
    }, OK


def _convention_failure(kind: str, exc: ConventionViolation) -> tuple[dict, int]:
    """The answer to a transform that fails a convention, from the raised report."""
    return {"kind": kind, "status": "ConventionFailure", "convention": exc.convention,
            "report": exc.report.to_json()}, NEGATIVE


def _noneffective(kind: str, report: NoneffectiveReport) -> tuple[dict, int]:
    """The answer to an empty transform, from its NoneffectiveReport."""
    return {"kind": kind, "status": "EmptyNoneffective", "report": report.to_json(),
            "certificate": report.certificate.to_json()}, NEGATIVE


def cmd_transform(doc: ProblemDocument) -> tuple[dict, int]:
    if doc.row_form is None:  # too many generators for dense rows: the objects answer
        try:
            result = katz.kappa(doc.convoluter_or_default(), doc.vector)
        except ConventionViolation as exc:
            return _convention_failure("transform", exc)
        if isinstance(result, NoneffectiveReport):
            return _noneffective("transform", result)
        return {"kind": "transform", "status": "ok", "defect": result.rank - doc.vector.rank,
                "output": result.to_json()}, OK
    rows, *form = doc.row_form
    aim, result = katz.row_step(rows, *form)
    if isinstance(result, ConventionReport):
        return _convention_failure("transform", result.first_violation())
    if isinstance(result, NoneffectiveReport):
        return _noneffective("transform", result)
    return {"kind": "transform", "status": "ok", "defect": aim.defect,
            "output": rows.writer()[1](result)}, OK


def cmd_run(doc: ProblemDocument) -> tuple[dict, int]:
    check_run_terms(doc)
    try:
        trace = katz.run_algorithm((doc.mode, doc.points), doc.max_steps, doc.v_policy)
    except MaxStepsExceeded as exc:  # only a given max_steps can run out
        raise DocumentError(str(exc), "$.max_steps") from None
    out = {"kind": "run", **trace.to_json()}
    negative = trace.status in (TerminalStatus.EMPTY_NONEFFECTIVE,
                                TerminalStatus.CONVENTION_FAILURE)
    return out, (NEGATIVE if negative else OK)


def cmd_classify(doc: ProblemDocument) -> tuple[dict, int]:
    report = moduli.dimension_report(doc.vector)
    out = {"kind": "classify", "report": report.to_json()}
    try:
        tag = moduli.classify_dim2(doc.vector)
        out["family"] = tag if tag is not None else "none"
    except MidconvError as exc:
        out["family"] = "none"
        out["note"] = str(exc)
    return out, OK


def cmd_verify(doc: dict) -> tuple[dict, int]:
    from . import homology  # numpy loads for this verb only

    if "matrices" in doc:
        problem = homology.NumericInstance.from_json(doc)
    elif "generate" in doc:
        problem = homology.generate_instance(**parse_generate(doc),
                                             tol=parse_tol(doc, homology.DEFAULT_TOL))
    else:
        parsed = parse_document(doc)
        if not parsed.assignment:
            raise DocumentError(
                "verify needs 'matrices', 'generate', or classes plus an "
                "'assignment'", "$")
        if parsed.mode is not GroupMode.MULTIPLICATIVE:
            raise DocumentError("symbolic verify needs multiplicative mode", "$.mode")
        check_raw_dim(parsed.vector.n, parsed.vector.rank, "$.classes")
        beta = parsed.convoluter_or_default()
        elems = (*beta.h, *beta.v, *(a for g in parsed.vector for a in g.support()))
        missing = {n for e in elems for n in e.expr.generators()} - parsed.assignment.keys()
        if missing:
            raise DocumentError(f"no value assigned to {shown(sorted(missing))}",
                                "$.assignment")
        for e in (*elems, beta.t):
            try:
                w = e.expr.evaluate(parsed.assignment)
            except OverflowError:  # a coefficient past the float range
                w = complex("nan")
            if not (cmath.isfinite(w) and abs(w.imag) <= MAX_IMAG):
                raise DocumentError(f"a value exp(2 pi i w) in {shown(e.expr.generators())} needs "
                                    f"a finite w with |Im w| <= {MAX_IMAG}", "$.assignment")
        tol = parse_tol(doc, homology.DEFAULT_TOL)
        try:
            problem = homology.symbolic_instance(parsed.vector, beta, parsed.assignment,
                                                 parsed.seed, tol)
        except ValueError:  # moduli off 1 compound over the points
            raise DocumentError("the realized matrices miss their defining relations",
                                "$.assignment") from None
    try:
        report = homology.verify_instance(problem)
    except ConventionViolationNumeric as exc:
        return {"kind": "verify", "status": "ConventionFailure",
                "detail": str(exc)}, NEGATIVE
    # the symbolic prediction raises these two with their reports: answer as `transform`
    except ConventionViolation as exc:
        return _convention_failure("verify", exc)
    except NoneffectiveTransform as exc:
        return _noneffective("verify", exc.report)
    out = {"kind": "verify", "report": report.to_json()}
    return out, (OK if report.ok else NEGATIVE)


def cmd_higgs(doc: ProblemDocument) -> tuple[dict, int]:
    if doc.vector.n * doc.vector.rank > MAX_HIGGS_WEIGHTS:
        raise DocumentError(f"points * rank must be at most {MAX_HIGGS_WEIGHTS} for higgs",
                            "$.classes")
    try:
        data = higgs_mod.construct(doc.vector)
    except (ModeMismatch, DigitLimitExceeded):
        raise  # a wrong mode or an unprintable rational is an error, not an answer
    except MidconvError as exc:
        return {"kind": "higgs", "status": type(exc).__name__,
                "detail": str(exc)}, NEGATIVE
    report = higgs_mod.verify(data, doc.vector)
    forms = higgs_mod.degree_closed_forms(data)
    out = {
        "kind": "higgs",
        "status": "constructed",
        "data": data.to_json(),
        "verify": report.to_json(),
        "degree_forms": {k: str(v) for k, v in forms.items()
                         if not isinstance(v, dict)},
        "degree_forms_match": forms["matches_direct"],
    }
    return out, (OK if report.ok else NEGATIVE)


_SYMBOLIC_VERBS = {
    "defect": cmd_defect,
    "transform": cmd_transform,
    "run": cmd_run,
    "classify": cmd_classify,
    "higgs": cmd_higgs,
}


def _process_one(verb: str, doc: dict, args) -> tuple[dict, int]:
    if not isinstance(doc, dict):
        raise DocumentError("a document must be a JSON object", "$")
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    if args.tol is not None:
        doc = {**doc, "tol": args.tol}
    if verb == "verify":
        return cmd_verify(doc)
    if args.max_steps is not None:
        doc = {**doc, "max_steps": args.max_steps}
    conv = doc.get("convoluter")
    if args.beta_v and isinstance(conv, dict) and conv:
        v = {"same": "same-as-h", "fresh": "fresh"}[args.beta_v]
        doc = {**doc, "convoluter": {**conv, "v": v}}
    parsed = parse_document(doc, "fresh" if args.beta_v == "fresh" and conv is None else "same")
    try:
        return _SYMBOLIC_VERBS[verb](parsed)
    except ModeMismatch as exc:  # the verb does not run in the document's mode
        raise DocumentError(str(exc), "$.mode") from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="midconv",
        description="Middle convolution on local monodromy data: exact "
                    "transforms, rank reduction, dimension analytics, numeric "
                    "verification and Higgs-bundle construction.")
    parser.add_argument("verb", choices=["defect", "transform", "run",
                                         "classify", "verify", "higgs"])
    parser.add_argument("--input", default="-", help="input JSON file or '-'")
    parser.add_argument("--output", default="-", help="output JSON file or '-'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-steps", type=int, default=None)
    parser.add_argument("--beta-v", choices=["same", "fresh"], default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 on --help
        return BAD_INPUT if exc.code else OK

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        payload = parse_json(text)

        if isinstance(payload, list):
            results = [_process_one(args.verb, d, args) for d in payload]
            out_doc = [r[0] for r in results]
            code = max((r[1] for r in results), default=OK)
        else:
            out_doc, code = _process_one(args.verb, payload, args)
    except (MidconvError, OSError) as exc:
        kind = ("input error" if isinstance(exc, (DocumentError, ModeMismatch))
                else "error" if isinstance(exc, MidconvError) else "i/o error")
        print(f"{kind}: {exc}", file=sys.stderr)
        return BAD_INPUT

    text = render(out_doc, exact=args.verb != "verify")  # only verify answers hold floats
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
