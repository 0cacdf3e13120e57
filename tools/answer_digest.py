"""One line per benchmark corpus that fingerprints every answer.

Usage, from the repository root:

    python3 tools/answer_digest.py

For each workload of ``bench/corpus.py`` at seeds 1 and 2 this runs one
pass of ``bench/run.py``'s ``Runner`` over the corpus: every document
goes through ``midconv.cli.main`` in process, every answer is checked by
``bench/checks.py``, and the partner halves of the transform round trips
are built from the forward answers.  Each line gives the document count,
the number of failed documents, the output bytes and a sha256 over the
per-document digests (exit code plus stdout).  A refactor that keeps the
behavioural contract prints the same lines before and after.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)

# BLAS gets the thread count bench/run.py asks for (checked below), set
# before numpy loads: the thread count changes the last digits of verify
THREAD_VARS, BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"
for var in THREAD_VARS:
    os.environ[var] = BLAS_THREADS
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import corpus  # noqa: E402
import run as bench_run  # noqa: E402
from midconv import cli  # noqa: E402


def main() -> int:
    assert (bench_run.THREAD_VARS, bench_run.BLAS_THREADS) == (THREAD_VARS, BLAS_THREADS), \
        "bench/run.py pins BLAS differently"
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            docs = corpus.build(workload, seed)
            runner = bench_run.Runner(cli, docs)
            runner.run_pass()
            digest = hashlib.sha256("\n".join(map(str, runner.digests)).encode()).hexdigest()
            print(f"{workload} seed {seed}: docs {len(docs)} failed {runner.failed} "
                  f"out_bytes {runner.out_bytes} sha256 {digest}")
            for problem in runner.problems:
                print(f"  FAIL {problem}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
