import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from coclones import cli
from coclones.cli import main, run_selftest
from coclones.fileio import parse_inst, parse_rel


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _run_subprocess(argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "coclones.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)


def test_weakbase_command(tmp_path):
    code, out = run(["weakbase", "IN2"])
    assert code == 0
    rel = parse_rel(out)[0]
    assert rel.arity == 8 and len(rel.tuples) == 6
    code, out = run(["weakbase", "IS12", "2", "-o", str(tmp_path / "w.rel")])
    assert code == 0
    rel = parse_rel((tmp_path / "w.rel").read_text())[0]
    assert rel.name == "R_IS12_2"


def test_classify_commands(tmp_path):
    lang = tmp_path / "lang.rel"
    lang.write_text("relation R13 3\n001\n010\n100\n")
    code, out = run(["classify-maxones", str(lang)])
    assert code == 1 and "NP-hard" in out
    assert out.count("closure") == 3  # one witness per failed closure
    code, out = run(["classify-sat", str(lang)])
    assert code == 1
    eq = tmp_path / "eq.rel"
    eq.write_text("relation eq 2\n00\n11\n")
    assert run(["classify-maxones", str(eq)])[0] == 0
    assert run(["coclone", str(eq)])[1].strip() == "IBF"


def test_solve_and_reduce_round_trip(tmp_path):
    inst = tmp_path / "tri.inst"
    inst.write_text("problem Max-Cut\nvars 3\nc edge 1 2\nc edge 1 3\nc edge 2 3\n")
    code, out = run(["solve", str(inst)])
    assert code == 0 and "optimum: 2" in out
    out_path = tmp_path / "out.inst"
    code, out = run(["reduce", "maxcut_to_vcsp_neq", str(inst), "-o", str(out_path)])
    assert code == 0
    target = parse_inst(out_path.read_text())
    assert target.kind == "VCSP" and target.num_constraints == 3
    code, out = run(["solve", str(out_path)])
    assert code == 0 and "optimum: 1" in out


def test_solve_exit_codes(tmp_path):
    unsat = tmp_path / "u.inst"
    unsat.write_text("problem SAT\nvars 1\nc T 1\nc F 1\n")
    assert run(["solve", str(unsat)])[0] == 1
    missing = run(["solve", str(tmp_path / "nope.inst")])
    assert missing[0] == 2


def test_solve_with_threshold_solves_once(tmp_path, monkeypatch):
    inst = tmp_path / "t.inst"
    inst.write_text("problem U-Max-Ones\nvars 3\nc NAND2 1 2\nthreshold >= 2\n")
    calls = []
    real_solve = cli.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", counting_solve)
    code, out = run(["solve", str(inst), "--all"])
    assert code == 0 and out.endswith("threshold >= 2: met\n")
    assert len(calls) == 1
    inst.write_text("problem U-Max-Ones\nvars 3\nc NAND2 1 2\nthreshold >= 3\n")
    code, out = run(["solve", str(inst)])
    assert code == 1 and out.endswith("threshold >= 3: not met\n")
    assert len(calls) == 2


def test_jobs_below_one_rejected(tmp_path):
    inst = tmp_path / "t.inst"
    inst.write_text("problem SAT\nvars 1\nc T 1\n")
    for argv in (["solve", str(inst), "--jobs", "0"],
                 ["certify", "maxcut_to_vcsp_neq", "--jobs", "-1"],
                 ["selftest", "--jobs", "0"],
                 ["solve", str(inst), "--jobs", "two"]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert code == 2 and out == ""
        assert "argument --jobs:" in err.getvalue()
    assert run(["solve", str(inst), "--jobs", "1"])[0] == 0


def test_wpp_eval_gadget(tmp_path):
    gadget = tmp_path / "g.inst"
    gadget.write_text(
        "problem W-Max-Ones\nvars 8\n"
        "varweights 0 0 0 0 0 0 0 1\n"
        "c R_IN2 7 1 2 6 8 4 5 3\n"
        "project 1 2 3 4 5 6 7 8\n")
    code, out = run(["wpp-eval", str(gadget)])
    assert code == 0
    rel = parse_rel(out)[0]
    assert set(rel.row_strings()) == {"00111001", "01010101", "10001101"}


def test_ppsearch_command(tmp_path):
    target = tmp_path / "eq.rel"
    target.write_text("relation eq 2\n00\n11\n")
    lang = tmp_path / "neq.rel"
    lang.write_text("relation neq 2\n01\n10\n")
    code, out = run(["ppsearch", str(target), str(lang), "--aux", "1", "--atoms", "2"])
    assert code == 0
    assert out.strip() == "neq(x1, y1) & neq(x2, y1)"


def test_vcsp_classify_and_express(tmp_path):
    costs = tmp_path / "d.cost"
    costs.write_text("costfn f_neq 2\n00 1\n10 0\n01 0\n11 1\n")
    code, out = run(["vcsp-classify", str(costs)])
    assert code == 1 and "NP-hard" in out
    out_json = tmp_path / "expr.json"
    code, out = run(["express-neq", str(costs), "-o", str(out_json)])
    assert code == 0 and "verification: exact" in out
    payload = json.loads(out_json.read_text())
    assert payload["alpha1"] == "1/2"
    flat = tmp_path / "flat.cost"
    flat.write_text("costfn c 1\n0 2\n1 2\n")
    assert run(["vcsp-classify", str(flat)])[0] == 0
    assert run(["express-neq", str(flat)])[0] == 1


@pytest.mark.parametrize("command,name,text", [
    ("solve", "bad.inst", "problem SAT\nvars abc\n"),
    ("solve", "bad.inst", "problem SAT\nvars 2\nc OR2 1 x\n"),
    ("coclone", "bad.rel", "relation r two\n00\n"),
    ("classify-sat", "bad.rel", "relation r two\n00\n"),
])
def test_malformed_number_exits_2(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    proc = _run_subprocess([command, str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ")


@pytest.mark.parametrize("flag,value", [("--aux", "9"), ("--atoms", "7")])
def test_search_bounds_past_the_guard_exit_2(tmp_path, flag, value):
    target = tmp_path / "eq.rel"
    target.write_text("relation eq 2\n00\n11\n")
    lang = tmp_path / "neq.rel"
    lang.write_text("relation neq 2\n01\n10\n")
    proc = _run_subprocess(["ppsearch", str(target), str(lang), flag, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: search bounds exceed the budget guard")


@pytest.mark.parametrize("name", ["IS^x_1", "IS^_1", "IS^²_1", "IS1_²"])
def test_malformed_chain_index_exits_2(name):
    # str.isdigit accepts "²", which int() rejects
    proc = _run_subprocess(["weakbase", name])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_weakbase_past_index_4_identifies_back(tmp_path):
    # the weak base of IS^5_1 is 6-ary with 31 tuples; co_clone_of probes h_7
    # on it, C(38, 8) = 48,903,492 tuple multisets, which it never enumerates
    path = tmp_path / "f.rel"
    proc = _run_subprocess(["weakbase", "IS1", "5", "-o", str(path)])
    assert proc.returncode == 0
    proc = _run_subprocess(["coclone", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "IS^5_1\n", "")


def test_certify_command():
    code, out = run(["certify", "maxcut_to_vcsp_neq", "--trials", "5"])
    assert code == 0 and "all agree" in out


def test_usage_errors():
    assert main(["reduce", "nope"]) == 2
    assert main([]) == 2


def test_selftest_deterministic_across_jobs():
    a, b = io.StringIO(), io.StringIO()
    code1 = run_selftest(trials=6, seed=3, jobs=1, out=a)
    code2 = run_selftest(trials=6, seed=3, jobs=8, out=b)
    assert code1 == code2 == 0
    assert a.getvalue() == b.getvalue()
