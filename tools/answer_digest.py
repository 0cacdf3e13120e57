"""One line per benchmark corpus that fingerprints every answer.

Usage, from the repository root:

    python3 tools/answer_digest.py

For each workload of ``bench/corpus.py`` at seeds 1, 2 and 5 this runs one
pass of ``bench/run.py``'s ``Runner`` over the corpus: every document
goes through ``midconv.cli.main`` in process, every answer is checked by
``bench/checks.py``, and the partner halves of the transform round trips
are built from the forward answers.  Each line gives the document count,
the number of failed documents, the output bytes and a sha256 over the
per-document digests (exit code plus stdout).  A refactor that keeps the
behavioural contract prints the same lines before and after.  Each
answer a checker rejects adds a ``FAIL`` line, and the exit status is
then 1.  So does each answer that is not strict JSON: every single
answer, the tall ones below included, is parsed with a ``parse_constant``
that raises, so a ``NaN``, ``Infinity`` or ``-Infinity`` (which
``json.dumps`` writes for a float that is not finite) fails the digest.

For verify-numeric a second line per seed digests only the structural
answer fields (exit code, ``ok``, ``status``, the raw and middle
dimensions and their expected values) and gives the largest
``max_deviation`` and the largest ``det_product_error``: a change to the
numeric layer that moves only the low digits of those floats keeps that
line and changes the first.  A largest ``max_deviation`` above
``MAX_DEVIATION`` (1e-12; the corpus reads about 1e-14), or a largest
``det_product_error`` above ``MAX_DET_ERROR`` (1e-10; the corpus reads
about 3e-13), adds a ``FAIL`` line, and the exit status is then 1.
CI's comparison with the expected lines cuts both values off, so this
is what guards the precision of the prediction and the measurement.

Each reduce-rigid and small-docs corpus is also run as JSON-list
batches, one per distinct argv, in corpus order.  A batch whose exit code
is not the largest of its documents' single exit codes, or whose answer
is not the canonical rendering of the list of their single answers,
adds a ``FAIL`` line, and the exit status is then 1.  This guards the
batch path (list rendering, memos shared across documents) with no line
of its own.

A line ``small-docs tall`` digests the same way the answers to
documents far taller than the corpus's: ``transform``, ``defect`` and
``transform --beta-v fresh`` on 3 points of rank 100 (additive) and rank
3,000 (both modes), every eigenvalue of multiplicity 1 and a generator of
its own.  An answer that exits nonzero, raises or is not strict JSON
counts as failed.

The last line, ``small-docs library``, digests the library's exact
transform rather than the CLI's: ``katz.defect`` (with and without the twist), ``katz.kappa``
(checked, and with ``check=False``) and ``katz.detect_empty`` on the decoded
vector and twist (``ProblemDocument.vector`` and ``rows.convoluter(h, v)``)
of every seed-1 small-docs ``transform`` and ``defect`` document, and of
each transform's partner document built from that ``kappa`` output; in
additive mode also ``kappa`` and ``check_conventions`` in the de Rham
flavor.

``tools/answer_digest.expected`` holds the reduce-rigid and small-docs
lines (the tall and library lines among them) and the verify-numeric
structure lines up to ``max_deviation``, which CI compares with the
printed ones; the other verify-numeric bytes depend on the BLAS build.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 5)

# BLAS gets the thread count bench/run.py asks for (checked below), set
# before numpy loads: the thread count changes the last digits of verify
THREAD_VARS, BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"
for var in THREAD_VARS:
    os.environ[var] = BLAS_THREADS
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
from midconv import GroupMode, MonodromyVector, cli, katz  # noqa: E402
from midconv.docio import parse_document, render  # noqa: E402
from midconv.errors import ConventionViolation  # noqa: E402

STRUCTURE = ("ok", "raw_dim", "middle_dim", "expected_raw_dim", "expected_middle_dim")
MAX_DEVIATION = 1e-12
MAX_DET_ERROR = 1e-10
TALL = ((100, "additive"), (3000, "multiplicative"), (3000, "additive"))
TALL_ARGV = (["transform"], ["defect"], ["transform", "--beta-v", "fresh"])


def nonjson_problems(answers) -> list[str]:
    """A problem for each (exit code, stdout) answer that is not strict JSON:
    each is parsed with a ``parse_constant`` that refuses NaN, Infinity and
    -Infinity."""
    def refuse(name: str):
        raise ValueError(f"{name} is not JSON")

    problems = []
    for i, (_, out) in enumerate(answers):
        try:
            json.loads(out or "null", parse_constant=refuse)
        except ValueError as exc:
            problems.append(f"answer {i} is not strict JSON: {exc}")
    return problems


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


def structure_line(answers) -> tuple[str, float, float]:
    """Digest of the structural fields of (exit code, stdout) verify
    answers, and their largest deviation and determinant error; the line
    and those two."""
    fields, worst, det_err = [], 0.0, 0.0
    for code, out in answers:
        ans = json.loads(out) if out else {}
        report = ans.get("report", {})
        fields.append((code, ans.get("status"), *(report.get(key) for key in STRUCTURE)))
        worst = max(worst, report.get("max_deviation") or 0.0)
        det_err = max(det_err, report.get("det_product_error") or 0.0)
    return (f"structure sha256 {sha256(fields)} max_deviation {worst:.3e} "
            f"det_product_error {det_err:.3e}", worst, det_err)


def batch_problems(call, docs, answers) -> list[str]:
    """``docs`` run as one batch per argv, by ``call``; a problem for each
    batch that does not answer as its (exit code, stdout) ``answers`` did one
    by one."""
    if len(answers) != len(docs):
        return [f"{len(answers)} single answers for {len(docs)} documents: no batch run"]
    groups, problems = {}, []
    for doc, answer in zip(docs, answers):
        groups.setdefault(tuple(doc.argv), []).append((doc.text, *answer))
    for argv, items in groups.items():
        code, out, _, exc = call(cli, list(argv), f"[{','.join(t for t, _, _ in items)}]")
        want = max(c for _, c, _ in items), render([json.loads(o) for _, _, o in items], exact=True)
        if exc is not None or (code, out) != want:
            problems.append(f"batch {' '.join(argv)} of {len(items)} documents: exit {code} "
                            f"(singles' largest {want[0]}), answer "
                            f"{'equal to' if out == want[1] else 'not'} the list of single answers")
    return problems


def tall_line(call) -> tuple[str, int]:
    """The ``small-docs tall`` line, answering by ``call`` as ``bench/run.py``
    does, and the number of failed answers."""
    digests, out_bytes, failed = [], 0, 0
    for rank, mode in TALL:
        text = json.dumps({"mode": mode, "classes": [
            [{"value": {"const": "0", "exps": {f"p{k}_{i}": "1"}}, "mult": 1}
             for i in range(rank)] for k in range(3)]})
        for argv in TALL_ARGV:
            code, out, _, exc = call(cli, argv, text)
            failed += code != 0 or exc is not None or bool(nonjson_problems([(code, out)]))
            out_bytes += len(out.encode("utf-8"))
            digests.append(hashlib.sha256(f"{code}\n{out}".encode()).hexdigest())
    return (f"small-docs tall: docs {len(digests)} failed {failed} out_bytes {out_bytes} "
            f"sha256 {sha256(digests)}", failed)


def library_answers(beta, vector) -> tuple[list, object]:
    """The library's exact answers for (beta, vector) as JSON values, and the
    checked ``kappa`` output when it is a vector (else None)."""
    def transform(**flags) -> tuple[list, object]:
        try:
            result = katz.kappa(beta, vector, **flags)
        except ConventionViolation as exc:
            return [exc.convention, exc.report.to_json()], None
        return ([type(result).__name__, result.to_json()],
                result if isinstance(result, MonodromyVector) else None)

    empty = katz.detect_empty(beta, vector)
    checked, output = transform()
    answers = [katz.defect(vector, beta), katz.defect(vector), checked,
               transform(check=False)[0], empty and empty.to_json()]
    if vector.mode is GroupMode.ADDITIVE:
        answers += [transform(de_rham=True)[0],
                    katz.check_conventions(beta, vector, de_rham=True).to_json()]
    return answers, output


def library_line() -> str:
    """The ``small-docs library`` line."""
    digests = []

    def digest(doc: dict):
        parsed = parse_document(doc)
        rows, _, h, v = parsed.row_form
        answers, output = library_answers(rows.convoluter(h, v), parsed.vector)
        digests.append(sha256([json.dumps(a, sort_keys=True) for a in answers]))
        return output

    for doc in corpus.build("small-docs", 1):
        if doc.verb in ("transform", "defect") and doc.text:  # a partner's text is made below
            forward = json.loads(doc.text)
            output = digest(forward)
            if doc.partner is not None and output is not None:
                digest(corpus.partner_doc(forward, {"output": output.to_json()}))
    return f"small-docs library: docs {len(digests)} sha256 {sha256(digests)}"


def main() -> int:
    assert (bench_run.THREAD_VARS, bench_run.BLAS_THREADS) == (THREAD_VARS, BLAS_THREADS), \
        "bench/run.py pins BLAS differently"
    call, answers = bench_run.call, []

    def recording_call(*args):
        result = call(*args)
        answers.append(result[:2])
        return result

    bench_run.call = recording_call  # Runner.run_pass looks it up per document
    failed = False
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            docs = corpus.build(workload, seed)
            runner = bench_run.Runner(cli, docs)
            answers.clear()
            runner.run_pass()
            nonjson = nonjson_problems(answers)
            print(f"{workload} seed {seed}: docs {len(docs)} failed {runner.failed} "
                  f"out_bytes {runner.out_bytes} sha256 {sha256(runner.digests)}")
            worst = det_err = 0.0
            if workload == "verify-numeric":
                line, worst, det_err = structure_line(answers)
                print(f"{workload} seed {seed}: {line}")
            batch = batch_problems(call, docs, answers) if workload != "verify-numeric" else []
            for problem in runner.problems + nonjson + batch:
                print(f"  FAIL {problem}")
            if worst > MAX_DEVIATION:
                print(f"  FAIL max_deviation {worst:.3e} > {MAX_DEVIATION:.0e}")
            if det_err > MAX_DET_ERROR:
                print(f"  FAIL det_product_error {det_err:.3e} > {MAX_DET_ERROR:.0e}")
            failed = (failed or runner.failed > 0 or nonjson or batch or worst > MAX_DEVIATION
                      or det_err > MAX_DET_ERROR)
    line, tall_failed = tall_line(call)
    print(line)
    print(library_line())
    return 1 if failed or tall_failed else 0


if __name__ == "__main__":
    sys.exit(main())
