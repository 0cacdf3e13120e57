"""Command-line front end.

Verbs: defect, transform, run, classify, verify, higgs.  Documents are
UTF-8 JSON on --input/--output (default stdin/stdout); an input that is
a JSON *list* of documents is processed as a batch.  --seed, --tol and
--max-steps (not for verify) replace the document's values; --beta-v is
``docio.parse_document``'s ``beta_v``.

Exit codes: 0 success / constructed; 2 principled negative result (the
mathematics says no: empty, unconstructible, convention failure);
1 malformed input or a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import higgs as higgs_mod
from . import katz, moduli
from .docio import (MAX_HIGGS_WEIGHTS, ProblemDocument, check_run_terms, parse_document,
                    parse_generate, parse_json, parse_tol, render)
from .errors import (ConventionViolation, ConventionViolationNumeric, DigitLimitExceeded,
                     DocumentError, MaxStepsExceeded, MidconvError, ModeMismatch,
                     NoneffectiveTransform)
from .katz import TerminalStatus
from .scalars import GroupMode

OK, NEGATIVE, BAD_INPUT = 0, 2, 1


def cmd_defect(doc: ProblemDocument) -> tuple[dict, int]:
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


def _noneffective(kind: str, exc: NoneffectiveTransform) -> tuple[dict, int]:
    """The answer to an empty transform, from the raised NoneffectiveReport."""
    return {"kind": kind, "status": "EmptyNoneffective", "report": exc.report.to_json(),
            "certificate": exc.report.certificate.to_json()}, NEGATIVE


def cmd_transform(doc: ProblemDocument) -> tuple[dict, int]:
    rows, *form = doc.row_form
    aim, output = katz.row_step(rows, *form)
    return {"kind": "transform", "status": "ok", "defect": aim.defect,
            "output": rows.writer()[1](output)}, OK


def cmd_run(doc: ProblemDocument) -> tuple[dict, int]:
    check_run_terms(doc)
    try:
        trace = katz.run_algorithm((doc.rows, doc.classes), doc.max_steps,
                                   "fresh" if doc.v == "fresh" else "same")
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


def cmd_verify(doc: dict, beta_v: str | None) -> tuple[dict, int]:
    """Dispatch on the document's kind; ``homology`` checks what it realizes."""
    from . import homology  # numpy loads for this verb only

    if "matrices" in doc:
        problem = homology.NumericInstance.from_json(doc)
    elif "generate" in doc:
        problem = homology.generate_instance(**parse_generate(doc),
                                             tol=parse_tol(doc, homology.DEFAULT_TOL))
    else:
        parsed = parse_document(doc, beta_v)
        if not parsed.assignment:
            raise DocumentError("verify needs 'matrices', 'generate', or classes plus an "
                                "'assignment'", "$")
        if parsed.rows.mode is not GroupMode.MULTIPLICATIVE:
            raise DocumentError("symbolic verify needs multiplicative mode", "$.mode")
        problem = homology.symbolic_instance(parsed.row_form, parsed.assignment, parsed.seed,
                                             parse_tol(doc, homology.DEFAULT_TOL))
    try:
        report = homology.verify_instance(problem)
    except ConventionViolationNumeric as exc:
        return {"kind": "verify", "status": "ConventionFailure",
                "detail": str(exc)}, NEGATIVE
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
    flags = {"seed": args.seed, "tol": args.tol,
             "max_steps": None if verb == "verify" else args.max_steps}
    doc = {**doc, **{key: x for key, x in flags.items() if x is not None}}
    try:
        if verb == "verify":
            return cmd_verify(doc, args.beta_v)
        return _SYMBOLIC_VERBS[verb](parse_document(doc, args.beta_v))
    except ModeMismatch as exc:  # the verb does not run in the document's mode
        raise DocumentError(str(exc), "$.mode") from None
    # the transform, of `transform` and of verify's prediction, raises why it has no answer
    except ConventionViolation as exc:
        return _convention_failure(verb, exc)
    except NoneffectiveTransform as exc:
        return _noneffective(verb, exc)


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
            results = []
            for i, d in enumerate(payload):
                try:
                    results.append(_process_one(args.verb, d, args))
                except DocumentError as exc:  # its path in the batch, not in the document
                    raise DocumentError(exc.message, f"$[{i}]{exc.path[1:]}") from None
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
