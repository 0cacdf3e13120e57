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
then 1.

For verify-numeric a second line per seed digests only the structural
answer fields (exit code, ``ok``, ``status``, the raw and middle
dimensions and their expected values) and gives the largest
``max_deviation``: a change to the numeric layer that moves only the
low digits of the deviations keeps that line and changes the first.
A largest ``max_deviation`` above ``MAX_DEVIATION`` (1e-12; the corpus
reads about 1e-14) adds a ``FAIL`` line, and the exit status is then 1.
CI's comparison with the expected lines cuts that value off, so this
is what guards the precision of the prediction and the measurement.

``tools/answer_digest.expected`` holds the reduce-rigid and small-docs
lines and the verify-numeric structure lines up to ``max_deviation``,
which CI compares with the printed ones; the other verify-numeric
bytes depend on the BLAS build.
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
from midconv import cli  # noqa: E402

STRUCTURE = ("ok", "raw_dim", "middle_dim", "expected_raw_dim", "expected_middle_dim")
MAX_DEVIATION = 1e-12


def sha256(lines) -> str:
    return hashlib.sha256("\n".join(map(str, lines)).encode()).hexdigest()


def structure_line(answers) -> tuple[str, float]:
    """Digest of the structural fields of (exit code, stdout) verify
    answers, and their largest deviation; the line and that deviation."""
    fields, worst = [], 0.0
    for code, out in answers:
        ans = json.loads(out) if out else {}
        report = ans.get("report", {})
        fields.append((code, ans.get("status"), *(report.get(key) for key in STRUCTURE)))
        worst = max(worst, report.get("max_deviation") or 0.0)
    return f"structure sha256 {sha256(fields)} max_deviation {worst:.3e}", worst


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
            print(f"{workload} seed {seed}: docs {len(docs)} failed {runner.failed} "
                  f"out_bytes {runner.out_bytes} sha256 {sha256(runner.digests)}")
            worst = 0.0
            if workload == "verify-numeric":
                line, worst = structure_line(answers)
                print(f"{workload} seed {seed}: {line}")
            for problem in runner.problems:
                print(f"  FAIL {problem}")
            if worst > MAX_DEVIATION:
                print(f"  FAIL max_deviation {worst:.3e} > {MAX_DEVIATION:.0e}")
            failed = failed or runner.failed > 0 or worst > MAX_DEVIATION
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
