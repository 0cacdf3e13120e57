"""midconv benchmark: the real CLI verbs on seeded document corpora.

Usage, from the repository root:

    python3 bench/run.py --workload reduce-rigid --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client in one process.  Each
document goes through ``midconv.cli.main([verb, ...])`` in process, one
at a time, after one untimed warm-up document.  The corpus is run in
whole passes while the time allows (at least one); a document's latency
is the median of its passes.  On the 2-CPU reference VM the same
CPU-bound loop mostly runs about 1.5x slower than its fastest, with
brief fast spells; the fastest pass depends on whether a document hit
one, so the median over passes repeats far better (about half the
run-to-run spread of the minimum).  Every answer of the first pass is
checked against an independent known answer (``checks.py``), and every
later pass must reproduce the first pass byte for byte.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; set-up
time comes from fresh ``python -m midconv.cli`` launches.  Timings are
scaled to reference host speed by probes run between the documents and
around the launches (``speed.py``); the raw timings go into the
``meta`` line.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
(from ``spans.py``); their spans go to ``.bench_out/``.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# bench/ is on sys.path as the script's own directory
import checks
import corpus
from spans import PREDICTIONS, Tracer, layer_metrics
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# One BLAS thread: on the 2-CPU reference machine two threads made the
# numeric layer both slower and far noisier (verify at N = 240: 220 ms
# steady with one thread, 265-430 ms with two).
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 5


def call(cli, argv: list, text: str):
    """Run ``cli.main(argv)`` on ``text``; returns (exit code, stdout,
    seconds, exception).  Only the call itself is timed."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    code, exc = None, None
    try:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as err:  # a traceback is a failed document
            exc = err
        dt = time.perf_counter() - t0
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, dt, exc


def max_generators(node) -> int:
    """Largest generator count of any eigenvalue expression in an answer."""
    if isinstance(node, dict):
        best = len(node["exps"]) if isinstance(node.get("exps"), dict) else 0
        return max([best] + [max_generators(v) for v in node.values()])
    if isinstance(node, list):
        return max((max_generators(v) for v in node), default=0)
    return 0


class Runner:
    """Runs passes over one corpus and keeps what the metrics need."""

    def __init__(self, cli, docs):
        self.cli, self.docs = cli, docs
        self.digests: list = [None] * len(docs)
        self.out_bytes = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        # (kind, status) -> first passing (expect, doc, code, answer text);
        # texts, not parsed trees, so the program's collector does not
        # walk the benchmark's keepsakes
        self.samples: dict[tuple, tuple] = {}
        self.steps = self.max_gens = 0

    def _fail(self, i, message):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"doc {i} ({self.docs[i].expect['kind']}): {message}")

    def _first_answer(self, i, code, out):
        doc = self.docs[i]
        try:
            ans = json.loads(out)
        except json.JSONDecodeError:
            return self._fail(i, f"exit {code}, no JSON answer")
        given = json.loads(doc.text)
        problems = checks.check(doc.expect, given, code, ans)
        if problems:
            return self._fail(i, "; ".join(problems[:3]))
        kind = doc.expect["kind"]
        self.samples.setdefault((kind, ans.get("status")), (doc.expect, doc.text, code, out))
        self.steps += len(ans.get("steps", ())) if kind == "run" else 0
        self.max_gens = max(self.max_gens, max_generators(ans))
        if doc.partner is not None:
            doc.partner.text = json.dumps(corpus.partner_doc(given, ans))

    def run_pass(self, tracer=None, speed=None) -> list[float]:
        """One pass over the corpus; returns per-document seconds (None
        for a document that could not be run).  ``speed`` probes the
        host between documents."""
        first = self.digests[0] is None
        latencies = []
        for i, doc in enumerate(self.docs):
            if not doc.text:  # the forward half of its round trip failed
                self.attempted += 1
                self._fail(i, "no partner document")
                latencies.append(None)
                continue
            if tracer is not None:
                tracer.doc = i
            code, out, dt, exc = call(self.cli, doc.argv, doc.text)
            if speed is not None:
                speed.tick()
            self.attempted += 1
            latencies.append(dt)
            if exc is not None:
                self._fail(i, f"raised {type(exc).__name__}: {exc}")
                continue
            digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
            if first:
                self.digests[i] = digest
                self.out_bytes += len(out.encode("utf-8"))
                self._first_answer(i, code, out)
            elif digest != self.digests[i]:
                self._fail(i, "answer differs from the first pass")
        return latencies

    def selftest(self) -> tuple[int, int, list[str]]:
        """Every corruption of a passing answer must be rejected."""
        tried = rejected = 0
        missed = []
        for kind, (expect, text, code, out) in sorted(self.samples.items(), key=str):
            given = json.loads(text)
            for label, bad_code, bad in checks.corruptions(expect, code, json.loads(out)):
                tried += 1
                if checks.check(expect, given, bad_code, bad):
                    rejected += 1
                else:
                    missed.append(f"{kind[0]}: {label}")
        return tried, rejected, missed


def launch_setup(workload: str, env: dict) -> tuple[float, bool]:
    """Wall time of one fresh CLI process on a minimal document."""
    verb, text = corpus.SETUP_DOCS[workload]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "midconv.cli", verb, "--input", "-"],
                          input=text, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=120)
    dt = time.perf_counter() - t0
    ok = proc.returncode == 0 and proc.stdout.strip().startswith("{")
    return dt, ok


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "midconv").glob("*.py")))


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "midconv").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, runner, env) -> dict:
    """Timings both raw and at reference speed: each setup launch and
    each pass is scaled by the probes run around and during it."""
    setups = {"raw": [], "ref": []}

    def launches(count):
        for _ in range(count):
            speed = Speed()
            speed.sample(10)
            dt, ok = launch_setup(args.workload, env)
            speed.sample(10)
            setups["raw"].append(dt)
            setups["ref"].append(dt / speed.slowdown())
            runner.attempted += 1
            runner.failed += not ok

    def scaled_pass():
        speed = Speed()
        speed.sample(1)
        latencies = runner.run_pass(speed=speed)
        slowdown = speed.slowdown()
        return {"ref": [t and t / slowdown for t in latencies], "raw": latencies}

    # half the launches before the passes and half after, so that their
    # median spans the run rather than one stretch of machine load
    launches(SETUP_LAUNCHES // 2)
    passes = timed_passes(args.seconds, [scaled_pass])
    launches(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)

    def timings(key: str) -> dict:
        per_doc = [statistics.median(col) for col in zip(*(p[key] for p in passes))
                   if None not in col]
        return {
            "setup_s": statistics.median(setups[key]),
            "docs_per_s": len(per_doc) / sum(per_doc),
            "doc_ms_p50": statistics.median(per_doc) * 1e3,
            "doc_ms_p90": quantile(per_doc, 90) * 1e3,
        }

    metrics = timings("ref")
    metrics.update({
        "out_bytes": runner.out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - runner.failed / runner.attempted,
    })
    return {"passes": len(passes), "metrics": metrics, "raw": timings("raw")}


def timed_passes(seconds: float, kinds: list) -> list:
    """Run rounds of passes, one pass of each kind per round, while the
    next round still fits in ``seconds``; at least one round runs."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.extend(kind() for kind in kinds)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def per_layer(args, runner, docs) -> dict:
    tracer = Tracer()
    traced_metrics = []

    def traced():
        tracer.reset()
        tracer.install()
        try:
            lat = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced_metrics.append(layer_metrics(tracer)[0])
        return ("traced", sum(filter(None, lat)))

    def untraced():
        return ("untraced", sum(filter(None, runner.run_pass())))

    passes = timed_passes(args.seconds, [untraced, traced])
    plain = min(t for kind, t in passes if kind == "untraced")
    with_trace = min(t for kind, t in passes if kind == "traced")
    metrics = {name: statistics.median(run[name] for run in traced_metrics)
               for name in traced_metrics[0]}
    metrics.update({
        "katz.steps": runner.steps,
        "scalars.max_gens_per_eig": runner.max_gens,
        "higgs.search_docs": sum(1 for d in docs if d.verb == "higgs"
                                 and checks.pmv_defect(d.expect["pmv"]) == 0),
        "bench.trace_overhead_frac": (with_trace - plain) / plain,
        "repo.src_lines": source_lines(),
    })
    _, rows, layer_self = layer_metrics(tracer)
    print(f"per-layer self time, last traced pass ({len(tracer.spans)} spans):")
    for layer, ms in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {ms:12.1f} ms")
    print("spans by name: calls, inclusive ms, self ms")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["incl_ms"]):
        print(f"  {name:40s} {row['calls']:8d} {row['incl_ms']:12.1f} {row['self_ms']:12.1f}")
    print("predictions (per-layer metric -> end-to-end metric it should move):")
    for name, target in PREDICTIONS.items():
        print(f"  {name:32s} -> {target}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
                {"workload": args.workload, "seed": args.seed})
    return {"passes": len(passes), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "midconv" / "cli.py").is_file():
        print(f"error: no midconv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    import numpy
    import scipy
    from midconv import cli

    docs = corpus.build(args.workload, args.seed)
    corpus_digest = hashlib.sha256("\n".join(d.text for d in docs).encode()).hexdigest()[:16]
    warm_verb, warm_text = corpus.SETUP_DOCS[args.workload]
    call(cli, [warm_verb, "--input", "-"], warm_text)

    runner = Runner(cli, docs)
    result = (per_layer(args, runner, docs) if args.trace
              else end_to_end(args, runner, env))
    tried, rejected, missed = runner.selftest()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "docs": len(docs), "passes": result["passes"],
        "raw": result.get("raw"),
        "corpus_digest": corpus_digest, "src_digest": source_digest(),
        "git_commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS), "cpu": cpu_model(),
    }
    print(json.dumps({"meta": meta}))
    for problem in runner.problems:
        print(f"FAIL {problem}")
    for label in missed:
        print(f"SELFTEST corruption accepted: {label}")
    print(f"selftest: {rejected}/{tried} corruptions rejected; "
          f"fail_frac {runner.failed}/{runner.attempted}")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    if {m["name"] for m in wanted} != set(values):
        print(f"error: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0 and tried > 0 and rejected == tried,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
