"""Spans and counters around the package's public functions, from outside.

The tracer replaces each function at the module attribute its caller
looks it up under (``midconv.cli.render`` for the CLI's call into
``docio``, ``midconv.homology.kappa`` for the numeric layer's call into
``katz``) with a wrapper that records a span.  A span carries its
name, start, end, parent span and document id.  Spans stay in memory
and are written out once, when the benchmark ends.  Hot constructors
and methods get a bare call counter instead of a span.

A span is named after the module that defines the function, and that
module is its layer.  A layer's self time is the time inside its spans
that no child span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module whose attribute the caller looks up, attribute, span name)
SPANS = (
    ("midconv.cli", "main", "cli.main"),
    ("midconv.cli", "parse_json", "docio.parse_json"),
    ("midconv.cli", "parse_document", "docio.parse_document"),
    ("midconv.cli", "render", "docio.render"),
    ("midconv.docio", "max_mult_convoluter", "katz.max_mult_convoluter"),
    ("midconv.katz", "run_algorithm", "katz.run_algorithm"),
    ("midconv.katz", "kappa", "katz.kappa"),
    ("midconv.katz", "check_conventions", "katz.check_conventions"),
    ("midconv.katz", "defect", "katz.defect"),
    ("midconv.katz", "detect_empty", "katz.detect_empty"),
    ("midconv.katz", "max_mult_convoluter", "katz.max_mult_convoluter"),
    ("midconv.katz", "AlgorithmTrace.to_json", "katz.AlgorithmTrace.to_json"),
    ("midconv.divisors", "MonodromyVector.to_json", "divisors.MonodromyVector.to_json"),
    ("midconv.moduli", "dimension_report", "moduli.dimension_report"),
    ("midconv.moduli", "classify_dim2", "moduli.classify_dim2"),
    ("midconv.higgs", "dimension_report", "moduli.dimension_report"),
    ("midconv.higgs", "defect", "katz.defect"),
    ("midconv.higgs", "construct", "higgs.construct"),
    ("midconv.higgs", "verify", "higgs.verify"),
    ("midconv.higgs", "degree_closed_forms", "higgs.degree_closed_forms"),
    ("midconv.higgs", "HiggsData.to_json", "higgs.HiggsData.to_json"),
    ("midconv.homology", "generate_instance", "homology.generate_instance"),
    ("midconv.homology", "verify_instance", "homology.verify_instance"),
    ("midconv.homology", "middle_convolution_rep", "homology.middle_convolution_rep"),
    ("midconv.homology", "raw_convolution_rep", "homology.raw_convolution_rep"),
    ("midconv.homology", "ChainSpace.kernel_basis", "homology.ChainSpace.kernel_basis"),
    ("midconv.homology", "match_multisets", "homology.match_multisets"),
    ("midconv.homology", "kappa", "katz.kappa"),
)

# (module, attribute, counter name): too hot for a span each
COUNTS = (
    ("midconv.scalars", "ScalarExpr.__init__", "scalars.expr_builds"),
    ("midconv.scalars", "GroupElement.combine", "scalars.combine_calls"),
    ("midconv.divisors", "EigDivisor.__init__", "divisors.divisor_builds"),
    ("midconv.divisors", "EigDivisor.multiplicity", "divisors.multiplicity_calls"),
    ("midconv.homology", "ChainSpace.__init__", "homology.chain_spaces"),
)

# Each per-layer metric, the end-to-end metric it should move and on
# which workload.  Later performance changes cite these by name.  The
# symbolic prediction (katz.kappa) takes about 30% of verify-numeric, so
# scalars and katz changes are not expected to be flat there.
PREDICTIONS = {
    "cli.self_ms": "doc_ms_p50 on small-docs",
    "docio.parse_ms": "doc_ms_p50 on small-docs",
    "docio.render_ms": "docs_per_s on reduce-rigid",
    "docio.render_bytes": "out_bytes on reduce-rigid",
    "katz.run_algorithm_self_ms": "docs_per_s, doc_ms_p90 on reduce-rigid",
    "katz.kappa_ms": "docs_per_s, doc_ms_p90 on reduce-rigid; doc_ms_p50 on small-docs; "
                     "docs_per_s on verify-numeric (the symbolic prediction)",
    "katz.kappa_calls": "docs_per_s, doc_ms_p90 on reduce-rigid",
    "katz.check_conventions_ms": "docs_per_s, doc_ms_p90 on reduce-rigid",
    "katz.check_conventions_calls": "docs_per_s, doc_ms_p90 on reduce-rigid",
    "katz.steps": "docs_per_s, doc_ms_p90 on reduce-rigid",
    "katz.self_ms": "docs_per_s on reduce-rigid",
    "scalars.expr_builds": "docs_per_s on reduce-rigid; no rise on small-docs",
    "scalars.combine_calls": "docs_per_s on reduce-rigid; no rise on small-docs",
    "scalars.max_gens_per_eig": "docs_per_s on reduce-rigid; no rise on small-docs",
    "divisors.divisor_builds": "docs_per_s on reduce-rigid",
    "divisors.multiplicity_calls": "docs_per_s on reduce-rigid",
    "divisors.self_ms": "docs_per_s on reduce-rigid",
    "moduli.ms": "doc_ms_p50 on small-docs",
    "homology.generate_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.kernel_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.raw_rep_self_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.middle_rep_self_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.match_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.verify_self_ms": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.chain_spaces": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.matrix_dim_max": "docs_per_s, doc_ms_p90 on verify-numeric; flat on reduce-rigid",
    "homology.self_ms": "docs_per_s on verify-numeric",
    "higgs.construct_ms": "doc_ms_p90 on small-docs",
    "higgs.construct_ms_max": "doc_ms_p90 on small-docs",
    "higgs.verify_ms": "doc_ms_p90 on small-docs",
    "higgs.search_docs": "doc_ms_p90 on small-docs",
    "higgs.self_ms": "doc_ms_p90 on small-docs",
    "docio.self_ms": "doc_ms_p50 on small-docs",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Installs span and counter wrappers; ``uninstall`` restores the
    original attributes."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, doc]
        self.counts: dict[str, int] = defaultdict(int)
        self.doc = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        render = name == "docio.render"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.doc])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if render:
                self.counts["docio.render_bytes"] += len(result.encode("utf-8"))
            return result
        return traced

    def _count(self, name, fn):
        counts = self.counts
        chain = name == "homology.chain_spaces"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if chain:  # ChainSpace(self, inst) spans C^(n r)
                dim = args[1].n * args[1].r
                counts["homology.matrix_dim_max"] = max(counts["homology.matrix_dim_max"], dim)
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
                self._saved.append((owner, key, original))
                setattr(owner, key, make(name, original))

    def uninstall(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def dump(self, path, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields": ["name", "start", "end",
                                                          "parent", "doc"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self milliseconds, longest
    single span, and the inclusive time of spans not nested in another
    span of the same layer."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0,
                                                "max_ms": 0.0, "outer_ms": 0.0})
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = (end - start) * 1e3
        row = out[name]
        row["calls"] += 1
        row["incl_ms"] += dur
        row["self_ms"] += dur - child[i] * 1e3
        row["max_ms"] = max(row["max_ms"], dur)
        if parent < 0 or spans[parent][0].split(".")[0] != name.split(".")[0]:
            row["outer_ms"] += dur
    return dict(out)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict, dict]:
    """The per-layer metrics that the spans and counters give, the
    per-name summary and the self time per layer."""
    rows = summarize(tracer.spans)
    get = lambda name, field: rows.get(name, {}).get(field, 0.0)
    layer_self = defaultdict(float)
    for name, row in rows.items():
        layer_self[name.split(".")[0]] += row["self_ms"]
    metrics = {
        "cli.self_ms": get("cli.main", "self_ms"),
        "docio.parse_ms": get("docio.parse_json", "incl_ms") + get("docio.parse_document", "incl_ms"),
        "docio.render_ms": get("docio.render", "incl_ms"),
        "docio.render_bytes": tracer.counts["docio.render_bytes"],
        "katz.run_algorithm_self_ms": get("katz.run_algorithm", "self_ms"),
        "katz.kappa_ms": get("katz.kappa", "incl_ms"),
        "katz.kappa_calls": get("katz.kappa", "calls"),
        "katz.check_conventions_ms": get("katz.check_conventions", "incl_ms"),
        "katz.check_conventions_calls": get("katz.check_conventions", "calls"),
        "moduli.ms": sum(row["outer_ms"] for name, row in rows.items()
                         if name.startswith("moduli.")),
        "homology.generate_ms": get("homology.generate_instance", "incl_ms"),
        "homology.kernel_ms": get("homology.ChainSpace.kernel_basis", "incl_ms"),
        "homology.raw_rep_self_ms": get("homology.raw_convolution_rep", "self_ms"),
        "homology.middle_rep_self_ms": get("homology.middle_convolution_rep", "self_ms"),
        "homology.match_ms": get("homology.match_multisets", "incl_ms"),
        "homology.verify_self_ms": get("homology.verify_instance", "self_ms"),
        "homology.matrix_dim_max": tracer.counts["homology.matrix_dim_max"],
        "higgs.construct_ms": get("higgs.construct", "incl_ms"),
        "higgs.construct_ms_max": get("higgs.construct", "max_ms"),
        "higgs.verify_ms": get("higgs.verify", "incl_ms"),
    }
    for _, _, name in COUNTS:
        metrics[name] = tracer.counts[name]
    for layer in ("docio", "katz", "divisors", "homology", "higgs"):
        metrics[f"{layer}.self_ms"] = layer_self[layer]
    return metrics, rows, dict(layer_self)
