"""What the benchmark measures: workloads, metrics, predictions, harness checks.

This module is the single source of `BENCHMARK.json`.  Regenerate it with

    python3 bench/spec.py

from the repository root.  The prediction table and the harness checks do not
fit the manifest's fixed keys, so they are recorded here only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 40
MIN_OPS = 100  # p90 needs at least ten samples beyond it

WORKLOADS = [
    {"name": "certify-hard",
     "why": "one-trial certify on the three 2+3n entries at n = 5 and 6 (targets of 17 and "
            "20 vars, 8-ary constraints): the oracle's hard-constraint enumeration"},
    {"name": "mixed",
     "why": "soft solves (VCSP, Max-CSP, Max-Cut, 16-22 vars, --all, thresholds, --jobs 2) "
            "plus the other 16 registry entries and lattice/synthesis ops"},
]

# Bounds sit at the largest share allowed: ten seeds of the same code spread
# by up to 0.095 (setup_s by 0.20) on a 2-vCPU virtual machine whose speed
# drifts by a fifth over tens of seconds (see README.md, "Noise").
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]


def _layer(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    # oracle
    _layer("oracle.solve.calls", "count"),
    _layer("oracle.solve.busy_s", "s"),
    _layer("oracle.solve.p50_ms", "ms"),
    _layer("oracle.solve.p90_ms", "ms"),
    _layer("oracle.solve.hard.busy_s", "s"),
    _layer("oracle.solve.soft.busy_s", "s"),
    _layer("oracle.solve.n_le16.busy_s", "s"),
    _layer("oracle.solve.n17_plus.busy_s", "s"),
    _layer("oracle.solve.assignments", "computed_count"),
    _layer("oracle.solve.want_all.calls", "count"),
    _layer("oracle.solve.optimal_set_size", "count"),
    _layer("oracle.solve.jobs2.busy_s", "s"),
    _layer("oracle.solve.errors", "count"),
    _layer("oracle.decide.calls", "count"),
    _layer("oracle.self_s", "s"),
    # reductions
    _layer("reductions.certify.calls", "count"),
    _layer("reductions.certify.busy_s", "s"),
    _layer("reductions.certify.self_s", "s"),
    _layer("reductions.apply.calls", "count"),
    _layer("reductions.apply.busy_s", "s"),
    _layer("reductions.apply.var_ratio", "ratio"),
    _layer("reductions.self_s", "s"),
    # definitions
    _layer("definitions.search_definition.calls", "count"),
    _layer("definitions.search_definition.busy_s", "s"),
    _layer("definitions.eval_wpp.busy_s", "s"),
    _layer("definitions.self_s", "s"),
    # postlattice
    _layer("postlattice.co_clone_of.calls", "count"),
    _layer("postlattice.co_clone_of.busy_s", "s"),
    _layer("postlattice.co_clone_of.p90_ms", "ms"),
    _layer("postlattice.pres_cache.entries", "count"),
    _layer("postlattice.self_s", "s"),
    # relations
    _layer("relations.preserves.calls", "count"),
    _layer("relations.preserves.busy_s", "s"),
    _layer("relations.preserves_symmetric.calls", "count"),
    _layer("relations.preserves_symmetric.busy_s", "s"),
    _layer("relations.classify.busy_s", "s"),
    _layer("relations.budget_errors", "count"),
    _layer("relations.self_s", "s"),
    # valued
    _layer("valued.classify_vcsp.busy_s", "s"),
    _layer("valued.express_neq.calls", "count"),
    _layer("valued.express_neq.busy_s", "s"),
    _layer("valued.verify_neq_expression.busy_s", "s"),
    _layer("valued.self_s", "s"),
    # fileio
    _layer("fileio.parse.busy_s", "s"),
    _layer("fileio.parse.bytes", "bytes"),
    _layer("fileio.emit.busy_s", "s"),
    _layer("fileio.emit.bytes", "bytes"),
    _layer("fileio.self_s", "s"),
    # weakbases and cli
    _layer("weakbases.weak_base.calls", "count"),
    _layer("weakbases.weak_base.busy_s", "s"),
    _layer("cli.main.calls", "count"),
    _layer("cli.main.busy_s", "s"),
    _layer("cli.self_s", "s"),
    # cold start, split (fresh interpreters run with -X importtime)
    _layer("setup.import_numpy_s", "s"),
    _layer("setup.import_coclones_s", "s"),
    _layer("setup.default_resolver_s", "s"),
    # the traced run itself
    _layer("ops.busy_s", "s"),
    _layer("trace.spans", "count"),
    _layer("trace.overhead_s", "s"),
    _layer("trace.overhead_ratio", "ratio"),
]

# Which end-to-end metric each layer metric should move, on which workload.
# "none" rows are null predictions: a change confined to that layer must
# leave the named end-to-end metric unchanged (within its bound) there.
# "small" means the layer is under a fifth of that workload's time, so even
# a large gain there may stay inside the bound; read the traced run.
PREDICTIONS = [
    # layer metric, end-to-end metric, workload, expected effect
    ("oracle.solve.n17_plus.busy_s", "throughput_per_s", "certify-hard", "moves"),
    ("oracle.solve.n17_plus.busy_s", "latency_p90_ms", "certify-hard", "moves"),
    ("oracle.solve.hard.busy_s", "throughput_per_s", "mixed", "small"),
    ("oracle.solve.soft.busy_s", "throughput_per_s", "mixed", "moves"),
    ("oracle.solve.soft.busy_s", "latency_p90_ms", "mixed", "moves"),
    ("oracle.solve.soft.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("oracle.solve.want_all.calls", "peak_rss_mb", "mixed", "moves"),
    ("oracle.solve.jobs2.busy_s", "latency_p90_ms", "mixed", "moves"),
    ("oracle.decide.calls", "throughput_per_s", "mixed", "moves"),
    ("reductions.certify.self_s", "throughput_per_s", "mixed", "small"),
    ("reductions.certify.self_s", "throughput_per_s", "certify-hard", "none"),
    ("reductions.apply.busy_s", "throughput_per_s", "mixed", "small"),
    ("reductions.apply.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("definitions.search_definition.busy_s", "throughput_per_s", "mixed", "small"),
    ("definitions.search_definition.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("definitions.eval_wpp.busy_s", "throughput_per_s", "mixed", "small"),
    ("postlattice.co_clone_of.p90_ms", "latency_p90_ms", "mixed", "small"),
    ("postlattice.pres_cache.entries", "peak_rss_mb", "mixed", "small"),
    ("postlattice.co_clone_of.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("relations.preserves.busy_s", "throughput_per_s", "mixed", "small"),
    ("relations.budget_errors", "failed/attempted", "mixed", "moves"),
    ("relations.classify.busy_s", "throughput_per_s", "mixed", "small"),
    ("valued.express_neq.busy_s", "throughput_per_s", "mixed", "small"),
    ("valued.express_neq.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("fileio.parse.busy_s", "latency_p50_ms", "mixed", "small"),
    ("fileio.emit.busy_s", "throughput_per_s", "certify-hard", "none"),
    ("setup.import_numpy_s", "setup_s", "every workload", "moves"),
    ("setup.import_coclones_s", "setup_s", "every workload", "moves"),
    ("setup.default_resolver_s", "setup_s", "every workload", "moves"),
    ("weakbases.weak_base.busy_s", "setup_s", "every workload", "moves"),
]

# Checks the harness makes on itself in every run; any failure sets
# "correct" to false.
HARNESS_CHECKS = [
    ("percentile_rule", f"at least {MIN_OPS} completed ops, so p90 has ten samples beyond it"),
    ("same_seed_same_corpus", "two fresh generators with the run's seed give the same "
                              "first two blocks, and seed+1 gives different ones"),
    ("golden_digest", "a fixed seed-independent corpus renders to the digest in "
                      "bench/golden.json"),
    ("program_under_test", "coclones is imported from the checkout's src/, nowhere else"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def main() -> int:
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
