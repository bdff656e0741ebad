"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1-9 are defined once, in `coclones.acceptance`; this gate runs each
on its own data and time budget.  Each test prints one pass/fail line; run
with `pytest tests/test_acceptance.py -v -s` to see them inline.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

from coclones.acceptance import CRITERIA

# Criterion 8 draws from Random(seed ^ 0x5EED): this seed draws from Random(0xC0FFEE).
SYNTHESIS_SEED = 0xC0FFEE ^ 0x5EED


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _gate(num: int, trials: int, seed: int, budget_s=None):
    """A test running criterion `num` within `budget_s` seconds (None: no limit)."""
    def test():
        start = time.perf_counter()
        check = CRITERIA[num - 1](trials, seed)
        elapsed = time.perf_counter() - start
        in_time = budget_s is None or elapsed < budget_s
        limit = "" if budget_s is None else f" (< {budget_s:g}s)"
        failed = f"; failures: {check.detail}" if check.detail else ""
        _report(num, check.ok and in_time, f"{check.label} in {elapsed:.2f}s{limit}{failed}")
    return test


test_criterion_1_weak_base_goldens = _gate(1, 200, 0, 1.0)
test_criterion_2_coclone_identification = _gate(2, 200, 0, 60.0)
test_criterion_3_dichotomy_cross_validation = _gate(3, 200, 0, 60.0)
test_criterion_4_qpp_gadget_suite = _gate(4, 200, 0)
test_criterion_5_argmax_identity_suite = _gate(5, 200, 0)
test_criterion_6_reduction_certification = _gate(6, 200, 0, 600.0)
test_criterion_7_wpp_composition_gate = _gate(7, 200, 0)
test_criterion_8_synthesis = _gate(8, 500, SYNTHESIS_SEED, 300.0)
test_criterion_9_fneq_baseline = _gate(9, 200, 0)


def test_criterion_10_determinism():
    # two reports in a fresh interpreter: the first on cold caches, the
    # second on what the first left in them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = ("import sys\nfrom coclones.cli import run_selftest\n"
              "sys.exit(max(run_selftest(trials=12, seed=0) for _ in range(2)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=600)
    half = len(proc.stdout) // 2
    cold, warm = proc.stdout[:half], proc.stdout[half:]
    ok = cold == warm and cold.startswith("self-test report") and proc.returncode == 0
    _report(10, ok, f"selftest reports byte-identical on cold and warm caches "
                    f"({len(cold)} bytes), both passing{proc.stderr[-300:]}")
