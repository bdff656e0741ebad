"""Span tracing of calls into coclones, installed from outside the library.

Each public function is replaced, at every module attribute its callers look
it up by (for example `coclones.reductions.solve` as well as
`coclones.oracle.solve`), with a wrapper that records one span: name, start,
end, parent span and the op it belongs to, plus a few attributes taken from
the arguments and the result.  Spans stay in memory; `dump` writes them out.

Only the calling thread records spans.  The oracle's worker threads run
private helpers, never a wrapped function, so one stack suffices.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HARD_KINDS = ("SAT", "U-Max-Ones", "W-Max-Ones", "Min-Ones")

# span id, parent id, op index, name, start, end, attributes, error type
ID, PARENT, OP, NAME, START, END, ATTRS, ERROR = range(8)


def _solve_attrs(args, kwargs, result):
    inst = args[0]
    want_all = kwargs.get("want_all", args[2] if len(args) > 2 else False)
    jobs = kwargs.get("jobs", args[3] if len(args) > 3 else 1)
    attrs = {"n": inst.num_vars, "kind": inst.kind, "want_all": bool(want_all),
             "jobs": jobs}
    if result is not None and result.optimal_set is not None:
        attrs["optimal_set"] = len(result.optimal_set)
    return attrs


def _apply_attrs(args, kwargs, result):
    inst = args[1] if len(args) > 1 else kwargs["inst"]
    attrs = {"src_n": inst.num_vars}
    if result is not None:
        attrs["tgt_n"] = result[0].num_vars
    return attrs


def _parse_attrs(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _emit_attrs(args, kwargs, result):
    return {"bytes": len(result)} if result is not None else {}


# span name -> (defining module, function, other modules that import it by name,
#               attribute hook)
SITES = {
    "oracle.solve": ("oracle", "solve", ("reductions", "cli", "definitions", ""),
                     _solve_attrs),
    "oracle.decide": ("oracle", "decide", ("cli", ""), None),
    "reductions.certify": ("reductions", "certify", ("cli", ""), None),
    "reductions.apply": ("reductions", "apply", ("cli:apply_reduction", ""), _apply_attrs),
    "definitions.search_definition": ("definitions", "search_definition",
                                      ("reductions", "cli", ""), None),
    "definitions.eval_wpp": ("definitions", "eval_wpp", ("cli", ""), None),
    "postlattice.co_clone_of": ("postlattice", "co_clone_of", ("cli", ""), None),
    "relations.preserves": ("postlattice", "preserves", (), None),
    "relations.preserves_symmetric": ("postlattice", "preserves_symmetric", (), None),
    "relations.classify_sat": ("relations", "classify_sat", ("cli", ""), None),
    "relations.classify_max_ones": ("relations", "classify_max_ones", ("cli", ""), None),
    "valued.classify_vcsp": ("valued", "classify_vcsp", ("cli", ""), None),
    "valued.express_neq": ("valued", "express_neq", ("cli", ""), None),
    "valued.verify_neq_expression": ("valued", "verify_neq_expression", ("cli", ""), None),
    "fileio.parse_rel": ("fileio", "parse_rel", ("cli",), _parse_attrs),
    "fileio.parse_inst": ("fileio", "parse_inst", ("cli",), _parse_attrs),
    "fileio.parse_cost": ("fileio", "parse_cost", ("cli",), _parse_attrs),
    "fileio.emit_rel": ("fileio", "emit_rel", ("cli",), _emit_attrs),
    "fileio.emit_inst": ("fileio", "emit_inst", ("cli",), _emit_attrs),
    "fileio.emit_cost": ("fileio", "emit_cost", (), _emit_attrs),
    "weakbases.weak_base": ("weakbases", "weak_base", ("instances", "cli", ""), None),
    "cli.main": ("cli", "main", (), None),
}


def _module(short: str):
    return importlib.import_module("coclones" + (f".{short}" if short else ""))


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1
        self.active = False  # the harness records only while an op runs

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else None, self.op, name,
                   0.0, 0.0, None, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = time.perf_counter()
                rec[ERROR] = type(exc).__name__
                if hook is not None:
                    rec[ATTRS] = hook(args, kwargs, None)
                raise
            finally:
                stack.pop()
            rec[END] = time.perf_counter()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A span opened by the harness itself, one per op."""
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.op,
               name, time.perf_counter(), 0.0, attrs, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        try:
            yield
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, (home, attr, users, hook) in SITES.items():
            original = getattr(_module(home), attr)
            wrapper = self._wrap(original, name, hook)
            for site in (home,) + users:
                mod_name, _, local = site.partition(":")
                mod = _module(mod_name)
                local = local or attr
                current = getattr(mod, local, None)
                if current is not original:
                    print(f"trace: {mod.__name__}.{local} is not {home}.{attr};"
                          " not traced there", file=sys.stderr)
                    continue
                self._patched.append((mod, local, original))
                setattr(mod, local, wrapper)

    def uninstall(self) -> None:
        for mod, local, original in reversed(self._patched):
            setattr(mod, local, original)
        self._patched.clear()

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "op", "name", "start", "end", "attrs", "error"]
        with path.open("w") as fh:
            json.dump({"fields": fields, "spans": self.spans, **extra}, fh)

    # -- metrics -----------------------------------------------------------

    def metrics(self, pres_cache_entries: int) -> dict[str, float]:
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child_time = [0.0] * len(spans)
        child_solve_apply = [0.0] * len(spans)
        for s, d in zip(spans, dur):
            p = s[PARENT]
            if p is not None:
                child_time[p] += d
                if s[NAME] in ("oracle.solve", "reductions.apply"):
                    child_solve_apply[p] += d
        by_name: dict[str, list[int]] = defaultdict(list)
        for s in spans:
            by_name[s[NAME]].append(s[ID])

        def calls(name):
            return len(by_name[name])

        def busy(*names, where=None):
            return sum(dur[i] for n in names for i in by_name[n]
                       if where is None or where(spans[i][ATTRS]))

        def pct_ms(name, q):
            xs = [dur[i] * 1000 for i in by_name[name]]
            if not xs:
                return 0.0
            if len(xs) == 1:
                return xs[0]
            return statistics.median(xs) if q == 50 else \
                statistics.quantiles(xs, n=10)[q // 10 - 1]

        def layer_self(layer):
            return sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                       if s[NAME].startswith(layer + "."))

        solves = [spans[i][ATTRS] for i in by_name["oracle.solve"]]
        applies = [spans[i][ATTRS] for i in by_name["reductions.apply"]
                   if spans[i][ERROR] is None]
        src_vars = sum(a["src_n"] for a in applies)
        parse = [n for n in by_name if n.startswith("fileio.parse_")]
        emit = [n for n in by_name if n.startswith("fileio.emit_")]
        m = {
            "oracle.solve.calls": calls("oracle.solve"),
            "oracle.solve.busy_s": busy("oracle.solve"),
            "oracle.solve.p50_ms": pct_ms("oracle.solve", 50),
            "oracle.solve.p90_ms": pct_ms("oracle.solve", 90),
            "oracle.solve.hard.busy_s": busy("oracle.solve", where=lambda a: a["kind"] in HARD_KINDS),
            "oracle.solve.soft.busy_s": busy("oracle.solve", where=lambda a: a["kind"] not in HARD_KINDS),
            "oracle.solve.n_le16.busy_s": busy("oracle.solve", where=lambda a: a["n"] <= 16),
            "oracle.solve.n17_plus.busy_s": busy("oracle.solve", where=lambda a: a["n"] >= 17),
            "oracle.solve.assignments": sum(1 << a["n"] for a in solves),
            "oracle.solve.want_all.calls": sum(1 for a in solves if a["want_all"]),
            "oracle.solve.optimal_set_size": sum(a.get("optimal_set", 0) for a in solves),
            "oracle.solve.jobs2.busy_s": busy("oracle.solve", where=lambda a: a["jobs"] >= 2),
            "oracle.solve.errors": sum(1 for i in by_name["oracle.solve"] if spans[i][ERROR]),
            "oracle.decide.calls": calls("oracle.decide"),
            "oracle.self_s": layer_self("oracle"),
            "reductions.certify.calls": calls("reductions.certify"),
            "reductions.certify.busy_s": busy("reductions.certify"),
            "reductions.certify.self_s": sum(dur[i] - child_solve_apply[i]
                                             for i in by_name["reductions.certify"]),
            "reductions.apply.calls": calls("reductions.apply"),
            "reductions.apply.busy_s": busy("reductions.apply"),
            "reductions.apply.var_ratio": (sum(a["tgt_n"] for a in applies) / src_vars
                                           if src_vars else 0.0),
            "reductions.self_s": layer_self("reductions"),
            "definitions.search_definition.calls": calls("definitions.search_definition"),
            "definitions.search_definition.busy_s": busy("definitions.search_definition"),
            "definitions.eval_wpp.busy_s": busy("definitions.eval_wpp"),
            "definitions.self_s": layer_self("definitions"),
            "postlattice.co_clone_of.calls": calls("postlattice.co_clone_of"),
            "postlattice.co_clone_of.busy_s": busy("postlattice.co_clone_of"),
            "postlattice.co_clone_of.p90_ms": pct_ms("postlattice.co_clone_of", 90),
            "postlattice.pres_cache.entries": pres_cache_entries,
            "postlattice.self_s": layer_self("postlattice"),
            "relations.preserves.calls": calls("relations.preserves"),
            "relations.preserves.busy_s": busy("relations.preserves"),
            "relations.preserves_symmetric.calls": calls("relations.preserves_symmetric"),
            "relations.preserves_symmetric.busy_s": busy("relations.preserves_symmetric"),
            "relations.classify.busy_s": busy("relations.classify_sat",
                                              "relations.classify_max_ones"),
            "relations.budget_errors": sum(
                1 for s in spans if s[NAME].startswith("relations.")
                and s[ERROR] == "PreservationBudgetError"),
            "relations.self_s": layer_self("relations"),
            "valued.classify_vcsp.busy_s": busy("valued.classify_vcsp"),
            "valued.express_neq.calls": calls("valued.express_neq"),
            "valued.express_neq.busy_s": busy("valued.express_neq"),
            "valued.verify_neq_expression.busy_s": busy("valued.verify_neq_expression"),
            "valued.self_s": layer_self("valued"),
            "fileio.parse.busy_s": busy(*parse),
            "fileio.parse.bytes": sum(spans[i][ATTRS]["bytes"] for n in parse for i in by_name[n]),
            "fileio.emit.busy_s": busy(*emit),
            "fileio.emit.bytes": sum(spans[i][ATTRS].get("bytes", 0)
                                     for n in emit for i in by_name[n]),
            "fileio.self_s": layer_self("fileio"),
            "weakbases.weak_base.calls": calls("weakbases.weak_base"),
            "weakbases.weak_base.busy_s": busy("weakbases.weak_base"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.busy_s": busy("cli.main"),
            "cli.self_s": layer_self("cli"),
            "ops.busy_s": busy("op"),
            "trace.spans": len(spans),
        }
        return m

