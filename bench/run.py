"""Run one workload of the coclones benchmark and print its metrics.

    python3 bench/run.py --workload certify-hard --seed 1 --seconds 40 --trace 0

Run it from a checkout of the repository: it imports coclones from the
checkout's src/ and nowhere else.  One run is one process with cold caches.
It times CLI cold start in fresh interpreters, runs a fixed number of whole
blocks of the workload (about --seconds of work on the reference machine,
and at least 100 completed ops), checks every op's output, and checks a
fixed golden corpus against bench/golden.json.  The last line of stdout is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of bench/spec.py; with
--trace 1 the per-layer ones, taken from spans recorded around calls into
each module.  A run record (and with --trace 1 the spans) goes to
.bench_out/ in the checkout.  `--write-golden` recomputes golden.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

SETUP_LAUNCHES_FIRST = 4  # before the timed loop; then one after each block
SETUP_LAUNCHES = 9  # at least, in all
OVERHEAD_BUDGET_S = 2.0

# Fresh interpreter: time `import coclones.cli` and `default_resolver()`.
PROBE = """\
import json, time
t0 = time.perf_counter()
import coclones.cli
t1 = time.perf_counter()
coclones.cli.default_resolver()
t2 = time.perf_counter()
print(json.dumps({"file": coclones.cli.__file__, "import_s": t1 - t0, "resolver_s": t2 - t1}))
"""


def _under(path: str, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def _launch(importtime: bool) -> dict:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", PROBE]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start probe failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    if not _under(rec["file"], SRC):
        raise RuntimeError(f"cold-start probe imported {rec['file']}, not the checkout's")
    if importtime:
        # lines read "import time: <self us> | <cumulative us> | <module>"
        rec["numpy_s"] = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                rec["numpy_s"] = int(parts[1]) / 1e6
    return rec


def summarise_setup(runs: list[dict], traced: bool) -> dict[str, float]:
    """Medians over the cold-start launches; a traced run splits them."""
    if not traced:
        return {"setup_s": statistics.median(r["import_s"] + r["resolver_s"] for r in runs)}
    return {
        "setup.import_numpy_s": statistics.median(r["numpy_s"] for r in runs),
        "setup.import_coclones_s": statistics.median(r["import_s"] - r["numpy_s"] for r in runs),
        "setup.default_resolver_s": statistics.median(r["resolver_s"] for r in runs),
    }


class Result:
    """What the timed loop saw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds, completed ops only
        self.busy_s = 0.0  # all attempted ops
        self.attempted = 0
        self.blocks = 0
        self.failures: list[dict] = []  # uncaught library exceptions
        self.problems: list[dict] = []  # wrong answers
        self.digest = hashlib.sha256()

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.problems)


def _failure(op, where: str, kind: str, message: str) -> dict:
    return {"op": op.label, "where": where, "kind": kind, "message": message,
            "input": op.detail}


def run_ops(ops, res: Result, where: str, tracer=None) -> None:
    for i, op in enumerate(ops):
        at = f"{where} op {i}"
        if tracer is not None:
            tracer.op = res.attempted
            tracer.active = True
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op", {"label": op.label}):
                    raw = op.run()
            else:
                raw = op.run()
        except Exception as exc:  # counted per op; the run goes on
            res.busy_s += time.perf_counter() - t0
            res.failures.append(_failure(op, at, type(exc).__name__,
                                         "".join(traceback.format_exception_only(exc)).strip()))
            res.digest.update(f"{op.label}\nraised {type(exc).__name__}\n".encode())
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        dt = time.perf_counter() - t0
        res.busy_s += dt
        text, problems = op.verify(raw)
        res.digest.update(f"{op.label}\n{text}\n".encode())
        if problems:
            res.problems.append(_failure(op, at, "wrong answer", "; ".join(problems)))
        else:
            res.latencies.append(dt)


def planned_blocks(wl, seconds: float) -> int:
    """Whole blocks that take about `seconds` of op time on the reference machine."""
    return max(1, round(seconds / wl.BLOCK_SECONDS))


def run_loop(wl, seconds: float, tracer=None, between=None) -> Result:
    """Run the planned blocks, then more until MIN_OPS ops have completed.

    The number of blocks depends on the seed and `seconds` alone, never on
    the clock, so one seed always runs the same ops and fails the same ones.
    `between` is called after each block, outside the timed ops.
    """
    res = Result()
    planned = planned_blocks(wl, seconds)
    while res.blocks < planned or len(res.latencies) < spec.MIN_OPS:
        run_ops(wl.block(res.blocks), res, f"seed {wl.seed} block {res.blocks}", tracer)
        res.blocks += 1
        if between is not None:
            between()
    return res


def corpus_fingerprint(wl_class, seed: int, workdir: Path, blocks: int = 2) -> str:
    h = hashlib.sha256()
    wl = wl_class(seed, workdir)
    for k in range(blocks):
        for op in wl.block(k):
            h.update(f"{op.label}\n{op.detail}\n".encode())
    return h.hexdigest()


def measure_overhead(wl, tracer_class) -> tuple[float, float]:
    """Traced minus untraced wall time of the same already-run ops (block 0)."""
    ops, plain = [], 0.0
    for op in wl.block(0):
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception:
            pass
        plain += time.perf_counter() - t0
        ops.append(op)
        if plain >= OVERHEAD_BUDGET_S:
            break
    tracer = tracer_class()
    tracer.install()
    tracer.active = True
    try:
        t0 = time.perf_counter()
        for op in ops:
            try:
                op.run()
            except Exception:
                pass
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return traced - plain, plain


def golden_digest(wl) -> tuple[str, Result]:
    res = Result()
    run_ops(wl.golden(), res, "golden")
    return res.digest.hexdigest(), res


def write_golden(workloads) -> int:
    digests = {}
    for name, wl_class in sorted(workloads.items()):
        workdir = OUT / f"work-{name}-golden-{os.getpid()}"
        try:
            digest, res = golden_digest(wl_class(0, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res.failed:
            print(f"{name}: golden corpus has failing ops: {res.failures + res.problems}",
                  file=sys.stderr)
            return 1
        digests[name] = digest
        print(f"{name}: {res.attempted} ops, digest {digest}")
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def _quantile_ms(xs: list[float], q: int) -> float:
    if q == 50:
        return statistics.median(xs) * 1000
    return statistics.quantiles(xs, n=10)[q // 10 - 1] * 1000


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402 - needs coclones on sys.path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="recompute bench/golden.json from this checkout and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden(WORKLOADS)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    traced = args.trace == 1
    wl_class = WORKLOADS[args.workload]

    # Cold-start launches are spread over the run, so that their median
    # samples the machine's speed over the run, not over its first seconds.
    _launch(False)  # warm-up: byte-compiles src/ and fills the page cache
    launches = [_launch(traced) for _ in range(SETUP_LAUNCHES_FIRST)]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    checks: dict[str, bool] = {}
    try:
        fp = corpus_fingerprint(wl_class, args.seed, workdir)
        checks["same_seed_same_corpus"] = (
            fp == corpus_fingerprint(wl_class, args.seed, workdir)
            and fp != corpus_fingerprint(wl_class, args.seed + 1, workdir))
        wl = wl_class(args.seed, workdir)
        tracer = None
        if traced:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            res = run_loop(wl, args.seconds, tracer,
                           between=lambda: launches.append(_launch(traced)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        while len(launches) < SETUP_LAUNCHES:
            launches.append(_launch(traced))
        setup = summarise_setup(launches, traced)
        if traced:
            from coclones import postlattice
            layers = tracer.metrics(len(getattr(postlattice, "_pres_cache", {})))
            overhead, overhead_base = measure_overhead(wl, Tracer)
        golden, golden_res = golden_digest(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    want_golden = json.loads(GOLDEN.read_text()).get(args.workload) if GOLDEN.exists() else None
    checks["percentile_rule"] = len(res.latencies) >= spec.MIN_OPS
    checks["golden_digest"] = golden == want_golden and golden_res.failed == 0
    completed = len(res.latencies)

    if traced:
        metrics = {**setup, **layers}
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_ratio"] = overhead / overhead_base
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    else:
        metrics = {
            **setup,
            "throughput_per_s": completed / res.busy_s,
            "latency_p50_ms": _quantile_ms(res.latencies, 50),
            "latency_p90_ms": _quantile_ms(res.latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    correct = all(checks.values()) and not res.problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "blocks": res.blocks,
        "attempted": res.attempted, "completed": completed, "failed": res.failed,
        "busy_s": res.busy_s, "setup_launches": len(launches),
        "digest": res.digest.hexdigest(), "golden_digest": golden,
        "golden_expected": want_golden, "checks": checks,
        "failures": res.failures + res.problems + golden_res.failures + golden_res.problems,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        tracer.dump(OUT / f"spans-{stem}.json", {"workload": args.workload, "seed": args.seed})

    print(f"{args.workload} seed {args.seed}: {res.attempted} ops in {res.blocks} blocks, "
          f"{res.busy_s:.1f} s of op time, {len(res.failures)} raised, {len(res.problems)} wrong")
    print(f"digest {res.digest.hexdigest()}")
    for f in record["failures"][:20]:
        print(f"failed [{f['where']}] {f['op']}: {f['kind']}: {f['message'][:200]}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"record {OUT.name}/run-{stem}.json")
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def _bootstrap() -> int:
    if not (SRC / "coclones" / "__init__.py").is_file():
        print(f"bench: no coclones package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coclones

    if not _under(coclones.__file__, SRC):
        print(f"bench: imported coclones from {coclones.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return main()


if __name__ == "__main__":
    sys.exit(_bootstrap())
