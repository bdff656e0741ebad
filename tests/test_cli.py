import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from coclones import acceptance, oracle
from coclones.cli import main, run_selftest
from coclones.fileio import emit_inst, parse_inst, parse_rel
from coclones.instances import MAXIMIZING_KINDS, Threshold
from coclones.postlattice import CoCloneId
from coclones.reductions import (
    QWPP_FAMILY,
    REGISTRY,
    Decision,
    ReductionError,
    apply,
    corpus,
    registry_names,
)
from coclones.weakbases import weak_base


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


ROOT = Path(__file__).resolve().parents[1]


def _run_python(args):
    """Run Python in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable] + args,
                          capture_output=True, text=True, env=env, timeout=60)


def _run_subprocess(argv):
    return _run_python(["-m", "coclones.cli"] + argv)


def test_weakbase_command(tmp_path):
    for name, coclone in (("II2", "I2"), ("IN2", "N2")):
        code, out = run(["weakbase", name])
        assert code == 0
        rel, want = parse_rel(out)[0], weak_base(CoCloneId(coclone))
        assert (rel.arity, rel.tuples) == (want.arity, want.tuples)
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


# `reduce` prints the measure map it renders from the entry's declaration,
# then the entry's note if it has one; `apply` renders neither
REDUCE_NOTES = [
    ("maxcutc_to_wmaxones", "problem Max-Cut\nvars 3\nc edge 1 2 w 2\nc edge 2 3 w 3/2\n",
     "maxcutc_to_wmaxones: Max-Cut -> W-Max-Ones [LV, C=1+d]\n"
     "variables: 3 -> 5 (declared n+m)\n"
     "measure: target optimum = source optimum + 0\n"
     "note: XOR3 is pp-definable over R_II2 only with auxiliary variables; "
     "emitting XOR3 as a target primitive\n"),
    ("wmo_qwpp_IL2", "problem W-Max-Ones\nvars 8\nvarweights 1 1/2 0 3 2 1 1/3 0\n"
     "c R_II2 1 2 3 4 5 6 7 8\nc R_II2 2 3 4 5 6 7 8 1\n",
     "wmo_qwpp_IL2: W-Max-Ones -> W-Max-Ones [CV, C=1]\n"
     "variables: 8 -> 8 (declared n)\n"
     "measure: target optimum = source optimum + 106/3\n"
     "note: big-M = 53/6, per-gadget maximum 2\n"),
    ("maxcut_to_vcsp_neq", "problem Max-Cut\nvars 4\nc edge 1 2\nc edge 2 3 w 5/2\n"
     "c edge 3 4\nthreshold >= 3\n",
     "maxcut_to_vcsp_neq: Max-Cut -> VCSP [CV, C=1]\n"
     "variables: 4 -> 4 (declared n)\n"
     "measure: target optimum = 9/2 - source optimum\n"
     "target threshold: <= 3/2\n"),
]


@pytest.mark.parametrize("name,text,want", REDUCE_NOTES, ids=[r[0] for r in REDUCE_NOTES])
def test_reduce_prints_the_entry_note(tmp_path, name, text, want):
    inst = tmp_path / "src.inst"
    inst.write_text(text)
    assert run(["reduce", name, str(inst)]) == (0, want)


def _first_corpus_source(name):
    """The first source `certify` draws for the entry, passed through `chain_before`."""
    rec = REGISTRY[name]
    src = corpus(rec)[0]
    for step in rec.chain_before:
        src, _ = apply(step, src)
    return src


MEASURE_LINE = re.compile(
    r"measure: (?:target optimum = (?:source optimum \+ (?P<plus>\S+)|(?P<minus>\S+) - "
    r"source optimum)|source satisfiable iff target optimum (?P<dir>\S+) (?P<value>\S+))")


@pytest.mark.parametrize("name", registry_names())
def test_reduce_renders_the_declared_measure(tmp_path, name):
    rec = REGISTRY[name]
    src = _first_corpus_source(name)
    decision = isinstance(rec.measure, Decision)
    if not decision:
        src = src.with_threshold(">=" if rec.source_kind in MAXIMIZING_KINDS else "<=", 1)
    path = tmp_path / "src.inst"
    path.write_text(emit_inst(src))
    _, info = apply(name, src)
    code, out = run(["reduce", name, str(path)])
    lines = out.splitlines()
    assert code == 0
    m = MEASURE_LINE.fullmatch(lines[2])
    if decision:
        assert Threshold(m["dir"], Fraction(m["value"])) == info.threshold
    elif info.sign > 0:
        assert Fraction(m["plus"]) == info.value_offset
    else:
        assert Fraction(m["minus"]) == info.value_offset
    # notes state only the big-M of the argmax gadgets and the XOR3 gap
    noted = name in QWPP_FAMILY or name == "maxcutc_to_wmaxones"
    assert [line for line in lines if line.startswith("note: ")] == lines[3:3 + noted]
    # each threshold is printed once: a decision's on the measure line, an
    # affine entry's, mapped from the source's, on a line of its own
    t = info.threshold
    assert [line for line in lines[2:] if re.search(r" [<>]= \S+$", line)] == [
        lines[2] if decision else f"target threshold: {t.direction} {t.value}"]


# each admission rule of the registry, and a wrong source kind: (entry, source
# text, the message)
# (variables are named as the file numbers them, from 1)
_DEGREE_3 = "problem SAT\nvars 3\n" + "c R_II2 3 2 3 3 3 3 3 3\n" * 3
ADMISSION_REJECTS = [
    *[(name, _DEGREE_3, "degree bound violated: variable(s) [2, 3] occur in more than 2 constraints")
      for name in ("sat2_to_umo_IS21", "sat2_to_umo_IL2", "sat2_to_uvcsp2")],
    ("maxones_to_minones", "problem Min-Ones\nvars 2\nvarweights 1 1\nc OR2 1 2\n",
     "source must be unweighted"),
    ("uvcspd_to_minones", "problem VCSP\nvars 2\nc f_neq 1 2 w 2\n", "source must be unweighted"),
    ("maxones_to_minones", "problem Max-Cut\nvars 2\nc edge 1 2\n",
     "maxones_to_minones: source must be a Min-Ones instance, got Max-Cut"),
]


@pytest.mark.parametrize("name,text,message", ADMISSION_REJECTS,
                         ids=[f"{r[0]}-{r[2].split()[0]}" for r in ADMISSION_REJECTS])
def test_apply_and_reduce_reject_a_source_the_entry_does_not_admit(tmp_path, name, text,
                                                                   message):
    with pytest.raises(ReductionError, match=f"^{re.escape(message)}$"):
        apply(name, parse_inst(text))
    path = tmp_path / "src.inst"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["reduce", name, str(path)])
    assert (code, out, err.getvalue()) == (2, "", f"error: {path}: {message}\n")


# a bad or odd number token in each place a file gives one: (place, token,
# exit code, the stderr message after "error: <file>: "); a token that
# parses runs the solve
BAD_TOKEN_FILES = {
    "weight": "problem VCSP\nvars 2\nc f_neq 1 2 w {tok}\n",
    "varweights": "problem W-Max-Ones\nvars 2\nvarweights {tok} 1\nc OR2 1 2\n",
    "threshold": "problem Max-Cut\nvars 2\nc edge 1 2\nthreshold >= {tok}\n",
    "cost name": "problem VCSP\nvars 2\nc cost1_{tok}_1 1\nc f_neq 1 2\n",
}
BAD_TOKENS = [
    *[(place, tok, 2, f"bad number {tok!r} in line {line.format(tok=tok)!r}")
      for place, line in (("weight", "c f_neq 1 2 w {tok}"), ("varweights", "varweights {tok} 1"),
                          ("threshold", "threshold >= {tok}"))
      for tok in ("1/0", "x", "1//2", "1/2/3")],
    ("weight", "-1", 2, "constraint weights must be nonnegative"),
    ("weight", "1.5", 0, None),
    ("weight", "", 2, "bad weight suffix: 'c f_neq 1 2 w'"),
    ("varweights", "-1", 2, "variable weights must be nonnegative"),
    ("varweights", "1.5", 0, None),
    ("varweights", "", 2, "varweights length must equal the variable count"),
    ("threshold", "-1", 0, None),
    ("threshold", "1.5", 1, None),
    ("threshold", "", 2, "bad threshold line: 'threshold >='"),
    *[("cost name", tok, 2, f"unknown cost function 'cost1_{tok}_1'")
      for tok in ("1/0", "x", "1//2", "1/2/3", "-1", "1.5", "")],
]


@pytest.mark.parametrize("place,tok,code,message", BAD_TOKENS)
def test_bad_number_tokens_keep_their_exit_code_and_message(tmp_path, place, tok, code,
                                                            message):
    path = tmp_path / "bad.inst"
    path.write_text(BAD_TOKEN_FILES[place].format(tok=tok))
    err = io.StringIO()
    with redirect_stderr(err):
        got, out = run(["solve", str(path)])
    assert got == code
    assert err.getvalue() == ("" if message is None else f"error: {path}: {message}\n")
    if message is not None:
        assert out == ""


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
    real_solve = oracle.solve

    def counting_solve(*args, **kwargs):
        calls.append(args[0])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "solve", counting_solve)
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
                 ["solve", str(inst), "--jobs", "-1"],
                 ["solve", str(inst), "--jobs", "two"],
                 ["certify", "all", "--trials", "0"],
                 ["certify", "maxcut_to_vcsp_neq", "--trials", "-3"],
                 ["selftest", "--trials", "0"],
                 ["selftest", "--trials", "-3"]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert code == 2 and out == ""
        assert f"argument {argv[-2]}:" in err.getvalue()
    assert run(["solve", str(inst), "--jobs", "1"])[0] == 0


@pytest.mark.parametrize("star", [False, True], ids=["eliminated", "grid"])
def test_solve_report_is_identical_for_any_jobs(tmp_path, star):
    # the ring alone is solved by elimination, which takes no threads; a star
    # into the last variable holds all 21 variables in the elimination table,
    # more than a chunk, so it goes to the grid, two 2^20 chunks
    edges = [(i, (3 * i + 1) % 21, 1 + i % 3) for i in range(21)]
    edges += [(i, 20, 1) for i in range(20)] if star else []
    inst = tmp_path / "cut.inst"
    inst.write_text("problem Max-Cut\nvars 21\n"
                    + "".join(f"c edge {a + 1} {b + 1} w {w}\n" for a, b, w in edges))
    one, two = run(["solve", str(inst), "--jobs", "1"]), run(["solve", str(inst), "--jobs", "2"])
    assert one[0] == 0 and "optimum: " in one[1]
    assert two == one


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


def test_an_empty_project_line_exits_2(tmp_path):
    gadget = tmp_path / "g.inst"
    gadget.write_text("problem W-Max-Ones\nvars 2\nproject\nc OR2 1 2\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["wpp-eval", str(gadget)])
    assert (code, out, err.getvalue()) == (
        2, "", f"error: {gadget}: projection lists no variables\n")


def test_a_gadget_of_another_kind_names_the_file_and_exits_2(tmp_path):
    gadget = tmp_path / "g.inst"
    gadget.write_text("problem SAT\nvars 2\nc OR2 1 2\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["wpp-eval", str(gadget)])
    assert (code, out, err.getvalue()) == (
        2, "", f"error: {gadget}: gadget files must be W-Max-Ones instances\n")


@pytest.mark.parametrize("command", ["vcsp-classify", "express-neq"])
def test_a_cost_file_without_cost_functions_exits_2(tmp_path, command):
    empty = tmp_path / "empty.cost"
    empty.write_text("# no cost function here\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run([command, str(empty)])
    assert (code, out, err.getvalue()) == (2, "", f"error: {empty}: no cost functions found\n")


def test_ppsearch_on_a_target_file_without_relations_exits_2(tmp_path):
    empty = tmp_path / "empty.rel"
    empty.write_text("# no relation here\n")
    lang = tmp_path / "neq.rel"
    lang.write_text("relation neq 2\n01\n10\n")
    proc = _run_subprocess(["ppsearch", str(empty), str(lang)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {empty}: no relations found\n")


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
    # a negative arity is a format error, not a negative shift count
    ("vcsp-classify", "bad.cost", "costfn f -1\n"),
])
def test_malformed_number_exits_2(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    proc = _run_subprocess([command, str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}: ")


# an input that is a directory or not UTF-8 text: (command, file name, text)
UNREADABLE_INPUTS = [
    ("coclone", "x.rel", "relation neq 2\n01\n10\n"),
    ("solve", "x.inst", "problem SAT\nvars 1\n"),
    ("vcsp-classify", "x.cost", "costfn c 1\n0 2\n1 2\n"),
]


@pytest.mark.parametrize("fault", ["directory", "not-utf8"])
@pytest.mark.parametrize("command,name,text", UNREADABLE_INPUTS,
                         ids=[r[0] for r in UNREADABLE_INPUTS])
def test_unreadable_input_exits_2(tmp_path, command, name, text, fault):
    path = tmp_path / name
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff" + text.encode())
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run([command, str(path)])
    assert (code, out) == (2, "")
    if fault == "directory":
        assert err.getvalue() == f"error: {path}: Is a directory\n"
    else:
        assert err.getvalue().startswith(f"error: {path}: ") and "decode" in err.getvalue()


# every command that writes -o: (argv before its input, input file name, text)
OUTPUT_COMMANDS = [
    (["weakbase", "IS1", "2"], None, None),
    (["wpp-eval"], "g.inst", "problem W-Max-Ones\nvars 2\nvarweights 0 1\nc OR2 1 2\nproject 1 2\n"),
    (["reduce", "maxcut_to_vcsp_neq"], "m.inst", "problem Max-Cut\nvars 2\nc edge 1 2\n"),
    (["express-neq"], "d.cost", "costfn f_neq 2\n00 1\n10 0\n01 0\n11 1\n"),
]


@pytest.mark.parametrize("fault", ["missing-directory", "directory"])
@pytest.mark.parametrize("argv,name,text", OUTPUT_COMMANDS, ids=[r[0][0] for r in OUTPUT_COMMANDS])
def test_unwritable_output_exits_2(tmp_path, argv, name, text, fault):
    if name is not None:
        (tmp_path / name).write_text(text)
        argv = argv + [str(tmp_path / name)]
    target, reason = ((tmp_path / "missing" / "out", "No such file or directory")
                      if fault == "missing-directory" else (tmp_path, "Is a directory"))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv + ["-o", str(target)])
    assert (code, err.getvalue()) == (2, f"error: {target}: {reason}\n")
    assert "wrote" not in out


# Every integer token is ASCII digits with no leading zero (and may carry a
# minus sign), and every number token is Fraction's grammar in ASCII without
# '_'; int() and Fraction() read each of these.  ١-٣ are the
# Arabic-Indic digits 1-3.  (command, file name, text, the bad token's line)
OFF_GRAMMAR_TOKENS = [
    ("solve", "x.inst", "problem SAT\nvars 1_0\n", "integer", "1_0", "vars 1_0"),
    ("solve", "x.inst", "problem SAT\nvars ٣\n", "integer", "٣", "vars ٣"),
    ("solve", "x.inst", "problem SAT\nvars 03\n", "integer", "03", "vars 03"),
    ("solve", "x.inst", "problem SAT\nvars 2\nc OR2 +1 2\n", "integer", "+1", "c OR2 +1 2"),
    ("solve", "x.inst", "problem SAT\nvars 2\nc OR2 ٢ 1\n", "integer", "٢",
     "c OR2 ٢ 1"),
    ("solve", "x.inst", "problem SAT\nvars 2\nc OR2 01 2\n", "integer", "01", "c OR2 01 2"),
    ("wpp-eval", "x.inst", "problem W-Max-Ones\nvars 3\nc OR2 1 2\nproject ٣\n",
     "integer", "٣", "project ٣"),
    ("coclone", "x.rel", "relation R 0٢\n00\n", "integer", "0٢",
     "relation R 0٢"),
    ("vcsp-classify", "x.cost", "costfn f 0١\n0 1\n1 0\n", "integer", "0١",
     "costfn f 0١"),
    ("solve", "x.inst", "problem VCSP\nvars 2\nc f_neq 1 2 w 1_0\n", "number", "1_0",
     "c f_neq 1 2 w 1_0"),
    ("solve", "x.inst", "problem VCSP\nvars 2\nc f_neq 1 2 w ٣\n", "number", "٣",
     "c f_neq 1 2 w ٣"),
    ("vcsp-classify", "x.cost", "costfn f 1\n0 1_0\n1 0\n", "number", "1_0", "0 1_0"),
]


@pytest.mark.parametrize("command,name,text,what,tok,line", OFF_GRAMMAR_TOKENS)
def test_a_token_off_its_grammar_exits_2(tmp_path, command, name, text, what, tok, line):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run([command, str(path)])
    assert (code, out, err.getvalue()) == (
        2, "", f"error: {path}: bad {what} {tok!r} in line {line!r}\n")


@pytest.mark.parametrize("argv,flag,tok", [
    (["weakbase", "IS1", "٣"], "n", "٣"),
    (["weakbase", "IS1", "03"], "n", "03"),
    (["certify", "maxcut_to_vcsp_neq", "--trials", "٣"], "--trials", "٣"),
    (["certify", "maxcut_to_vcsp_neq", "--seed", "٣"], "--seed", "٣"),
    (["certify", "maxcut_to_vcsp_neq", "--seed", "0_1"], "--seed", "0_1"),
    (["solve", "{inst}", "--jobs", "٢"], "--jobs", "٢"),
    (["ppsearch", "{rel}", "{rel}", "--aux", "١"], "--aux", "١"),
])
def test_an_argument_off_the_integer_grammar_is_a_usage_error(tmp_path, argv, flag, tok):
    (tmp_path / "t.inst").write_text("problem SAT\nvars 1\nc T 1\n")
    (tmp_path / "eq.rel").write_text("relation eq 2\n00\n11\n")
    argv = [a.format(inst=tmp_path / "t.inst", rel=tmp_path / "eq.rel") for a in argv]
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv)
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("usage: ")
    assert err.getvalue().endswith(f"error: argument {flag}: invalid int value: {tok!r}\n")


@pytest.mark.parametrize("kind,constraint", [
    ("SAT", "c OR2 1 2"),
    ("U-Max-Ones", "c OR2 1 2"),
    ("VCSP", "c f_neq 1 2"),
    ("Max-CSP", "c OR2 1 2"),
    ("Max-Cut", "c edge 1 2"),
])
def test_varweights_on_a_kind_without_them_exits_2(tmp_path, kind, constraint):
    # only W-Max-Ones and Min-Ones weigh their variables; elsewhere the
    # weights used to be ignored, or (U-Max-Ones) silently applied
    path = tmp_path / "weighted.inst"
    path.write_text(f"problem {kind}\nvars 2\nvarweights 5 1\n{constraint}\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["solve", str(path)])
    assert code == 2 and out == ""
    assert err.getvalue().startswith(f"error: {path}: ")
    assert "variable weights" in err.getvalue()


@pytest.mark.parametrize("argv,text,message", [
    # the reductions used to index past the args (IndexError) or drop the weight
    (["reduce", "umo_IL2_to_IL0"], "problem U-Max-Ones\nvars 3\nc R_IL2 1 2 3\n",
     "constraint R_IL2 expects 8 arguments, got 3"),
    (["reduce", "umo_IS21_to_ID2"], "problem U-Max-Ones\nvars 3\nc R_IS1_2 1 2 3 w 5\n",
     "U-Max-Ones constraints carry no weights"),
    (["solve"], "problem SAT\nvars 2\nc OR2 1\n", "constraint OR2 expects 2 arguments, got 1"),
    # rejected before its 2^9 cost table is built, with CostFunction's text
    (["solve"], "problem VCSP\nvars 9\nc fnot_OR9 1 2 3 4 5 6 7 8 9\n",
     "cost function arity 9 out of range"),
    # the weights of a W-Max-Ones instance are its variables'; this one was dropped
    (["solve"], "problem W-Max-Ones\nvars 2\nvarweights 1 1\nc OR2 1 2 w 5\n",
     "W-Max-Ones constraints carry no weights"),
])
def test_unresolvable_constraint_exits_2_after_the_path(tmp_path, argv, text, message):
    path = tmp_path / "x.inst"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv + [str(path)])
    assert (code, out, err.getvalue()) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("name", [
    "cost1_1//2_0", "cost1_1/0_0", "cost1_1_", "cost1_1/2/3_0", "cost0_1",
    "cost9_" + "_".join(["1"] * 512), "cost\u0661_0_1", "cost01_0_1", "fnot_ODD016",
], ids=["double-slash", "zero-denominator", "empty-value", "two-slashes", "arity-0", "arity-9",
        "arity-indic", "arity-zero", "fnot-zero"])
def test_malformed_cost_name_is_an_unknown_cost_function(tmp_path, name):
    path = tmp_path / "x.inst"
    path.write_text(f"problem VCSP\nvars 1\nc {name} 1\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["solve", str(path)])
    assert (code, out, err.getvalue()) == (
        2, "", f"error: {path}: unknown cost function {name!r}\n")


@pytest.mark.parametrize("flag,value", [("--sets", "0"), ("--max-arity", "0"),
                                        ("--max-arity", "9"), ("--max-value", "-1")])
def test_synthesis_sweep_bad_arguments_exit_2(flag, value):
    proc = _run_python([str(ROOT / "scripts" / "synthesis_sweep.py"), flag, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: argument {flag}: " in proc.stderr


SWEEP_SETS_3_SEED_3 = """\
3 random sets (seed 3):
  NP-hard              2
  P via (1)            1
synthesis case split:
  o(0,0)=o(1,1), o(0,1)<o(1,0)                                 1
  o(1,1)<o(0,0)                                                1
verification failures: 0
"""


def test_synthesis_sweep_reads_integers_by_the_numeral_rule():
    sweep = str(ROOT / "scripts" / "synthesis_sweep.py")
    for flag, value in (("--seed", "\u0663"), ("--max-value", "0_4")):
        proc = _run_python([sweep, "--sets", "1", flag, value])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")
    proc = _run_python([sweep, "--sets", "3", "--seed", "3"])
    assert (proc.returncode, proc.stdout) == (0, SWEEP_SETS_3_SEED_3)


@pytest.mark.parametrize("flag,value", [("--aux", "9"), ("--atoms", "7"),
                                        ("--aux", "-1"), ("--atoms", "0")])
def test_search_bounds_past_the_guard_exit_2(tmp_path, flag, value):
    target = tmp_path / "eq.rel"
    target.write_text("relation eq 2\n00\n11\n")
    lang = tmp_path / "neq.rel"
    lang.write_text("relation neq 2\n01\n10\n")
    proc = _run_subprocess(["ppsearch", str(target), str(lang), flag, value])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: search bounds outside the budget guard")


@pytest.mark.parametrize("name", ["IS^x_1", "IS^_1", "IS^²_1", "IS1_²", "IS^\u0663_1",
                                  "IS1_\u0663", "IS^03_1", "IS1_03"])
def test_malformed_chain_index_exits_2(name):
    # str.isdigit accepts "²", which int() rejects; int() reads the
    # Arabic-Indic 3 (\u0663), but a chain index is ASCII with no leading zero
    proc = _run_subprocess(["weakbase", name])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("ref,args", [
    ("OR\u0663", 3), ("OR007", 7), ("Rf_\u0661_2", 3), ("R_IS1_\u0663", 4), ("R_IS^03_1", 4),
], ids=["OR-indic", "OR-zeros", "Rf-indic", "weak-base-indic", "weak-base-zero"])
def test_relation_names_take_only_ascii_numerals_without_leading_zeros(tmp_path, ref, args):
    # \u0661 and \u0663 are the Arabic-Indic digits 1 and 3, which int() reads
    path = tmp_path / "x.inst"
    path.write_text(f"problem SAT\nvars {args}\nc {ref} "
                    + " ".join(str(i + 1) for i in range(args)) + "\n", encoding="utf-8")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["solve", str(path)])
    assert (code, out, err.getvalue()) == (2, "", f"error: {path}: unknown relation {ref!r}\n")


@pytest.mark.parametrize("text,flags,message", [
    ("problem SAT\nvars 21\nc OR2 1 21\n", ["--all"],
     "instance has 21 variables, oracle cap is 20"),
    ("problem Max-Cut\nvars 2\nc edge 1 2 w 2305843009213693952\n", [],
     "objective magnitude exceeds the exact int64 budget"),
], ids=["enumeration-cap", "int64-budget"])
def test_an_oracle_cap_names_the_file_and_exits_2(tmp_path, text, flags, message):
    # the edge weight is 2^61, past the oracle's exact int64 budget
    path = tmp_path / "x.inst"
    path.write_text(text)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["solve", str(path), *flags])
    assert (code, out, err.getvalue()) == (2, "", f"error: {path}: {message}\n")


def test_weak_base_past_the_arity_cap_exits_2(tmp_path):
    # the weak base of IS^30_1 is 31-ary, past the relation cap, which is
    # checked before its 2^31 masks are enumerated
    inst = tmp_path / "big.inst"
    inst.write_text("problem SAT\nvars 1\nc R_IS1_30" + " 1" * 31 + "\n")
    for argv, prefix in ((["weakbase", "IS1", "30"], "error: "),
                         (["solve", str(inst)], f"error: {inst}: ")):
        proc = _run_subprocess(argv)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(prefix) and "R_IS1_30 has arity 31" in proc.stderr


def test_weakbase_past_index_4_identifies_back(tmp_path):
    # the weak base of IS^5_1 is 6-ary with 31 tuples; co_clone_of probes h_7
    # on it, C(38, 8) = 48,903,492 tuple multisets, which it never enumerates
    path = tmp_path / "f.rel"
    proc = _run_subprocess(["weakbase", "IS1", "5", "-o", str(path)])
    assert proc.returncode == 0
    proc = _run_subprocess(["coclone", str(path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "IS^5_1\n", "")


@pytest.mark.parametrize("argv,defs,what", [
    # T is unary: same tuple mask 1, other arity
    (["solve", "a.inst"], "relation T 3\n100\n", "relation 'T'"),
    # OR2 built from its name has three tuples
    (["solve", "b.inst"], "relation OR2 2\n01\n", "relation 'OR2'"),
    # the weak base that the reduction is written for
    (["reduce", "sat2_to_umo_IL2", "a.inst"], "relation R_II2 8\n00000001\n",
     "relation 'R_II2'"),
    (["solve", "c.inst"], "costfn cost1_0_1 1\n0 1\n1 0\n", "cost function 'cost1_0_1'"),
    (["solve", "c.inst"], "costfn fnot_OR2 2\n00 0\n01 1\n10 1\n11 1\n",
     "cost function 'fnot_OR2'"),
])
def test_defs_cannot_redefine_a_builtin_name(tmp_path, argv, defs, what):
    (tmp_path / "a.inst").write_text("problem SAT\nvars 1\nc T 1\n")
    (tmp_path / "b.inst").write_text("problem U-Max-Ones\nvars 2\nc OR2 1 2\n")
    (tmp_path / "c.inst").write_text("problem VCSP\nvars 2\nc cost1_0_1 1\n")
    path = tmp_path / ("d.cost" if defs.startswith("costfn") else "d.rel")
    path.write_text(defs)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv[:-1] + [str(tmp_path / argv[-1]), "--defs", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue() == f"error: {path}: conflicting definitions for {what}\n"


def test_defs_may_repeat_a_builtin_definition(tmp_path):
    inst = tmp_path / "b.inst"
    inst.write_text("problem U-Max-Ones\nvars 2\nc OR2 1 2\n")
    defs = tmp_path / "d.rel"
    defs.write_text("relation OR2 2\n01\n10\n11\n")
    code, out = run(["solve", str(inst), "--defs", str(defs)])
    assert code == 0 and "optimum: 2" in out


@pytest.mark.parametrize("argv", [["IBF", "3"], ["IS_1", "2"], ["IS1_2", "3"],
                                  ["IS^2_1", "3"]])
def test_weakbase_rejects_an_index_it_cannot_use(argv):
    # a non-chain family, a chain limit, and names that carry their own index
    err = io.StringIO()
    with redirect_stderr(err):
        assert run(["weakbase"] + argv) == (2, "")
    assert err.getvalue() == (f"error: {argv[0]} takes no index argument (got {argv[1]}); "
                              "only a chain family such as IS1 does\n")


@pytest.mark.parametrize("argv", [["IS1", "3"], ["IS1_3"], ["IS^3_1"]])
def test_weakbase_reads_a_chain_index_either_way(argv):
    code, out = run(["weakbase"] + argv)
    assert code == 0 and out.startswith("relation R_IS1_3 4\n")


def test_certify_command():
    code, out = run(["certify", "maxcut_to_vcsp_neq", "--trials", "5"])
    assert code == 0 and "all agree" in out


def test_usage_errors():
    assert main(["reduce", "nope"]) == 2
    assert main([]) == 2


def test_sequential_main_calls_share_no_state(tmp_path):
    # the parser is built once per process; --defs in one call must not
    # carry over to the next
    defs = tmp_path / "x.rel"
    defs.write_text("relation x 2\n01\n10\n")
    inst = tmp_path / "x.inst"
    inst.write_text("problem U-Max-Ones\nvars 2\nc x 1 2\n")
    code, out = run(["solve", str(inst), "--defs", str(defs)])
    assert code == 0 and "optimum: 1" in out
    err = io.StringIO()
    with redirect_stderr(err):
        assert run(["solve", str(inst)])[0] == 2
    assert "unknown relation 'x'" in err.getvalue()
    with redirect_stderr(err):
        assert run(["reduce", "nope", str(inst)])[0] == 2
    listed = re.findall(r"\w+", err.getvalue().split("unknown reduction 'nope'")[-1])
    assert set(registry_names()) <= set(listed)


def test_unknown_reduction_lists_the_registry():
    for argv in (["certify", "nope"], ["reduce", "nope", "missing.inst"]):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(argv)[0] == 2
        assert err.getvalue().startswith("error: unknown reduction 'nope' (choose from ")
        assert set(registry_names()) <= set(re.findall(r"\w+", err.getvalue()))


# The commands that never vectorise run without numpy, every certify and
# every hard-kind solve among them; a fresh interpreter shows what a
# `coclones` process loads.
_NUMPY_LOADED = "import sys; print('numpy' in sys.modules)"
_COCLONES_LOADED = "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'coclones')))"
# what `import coclones.cli` loads: the data layer and the CLI, no theory module
_DATA_LAYER = ["coclones", "coclones.cli", "coclones.fileio", "coclones.instances",
               "coclones.relations"]


def test_cli_import_and_resolver_load_no_numpy():
    proc = _run_python(["-c", "import coclones.cli; coclones.cli.default_resolver(); "
                        + _NUMPY_LOADED + "; print('json' in sys.modules); "
                        + _COCLONES_LOADED])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["False", "False", " ".join(_DATA_LAYER)]


def _main_in_process(argv):
    """Run `main(argv)` in a fresh interpreter: (returncode, stderr, [numpy
    loaded, the coclones modules loaded]), the last two lines of stdout,
    below any report that bypasses the redirect (`selftest`'s)."""
    script = ("import contextlib, io, sys\nfrom coclones.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    print(main({argv!r}), file=sys.stderr)\n"
              + _NUMPY_LOADED + "\n" + _COCLONES_LOADED)
    proc = _run_python(["-c", script])
    return proc.returncode, proc.stderr, proc.stdout.splitlines()[-2:]


# the solver stack that `solve`, `reduce` and `certify` load
_SOLVER = ["oracle", "truthtables"]
_REGISTRY = _SOLVER + ["definitions", "reductions"]


def test_non_vectorising_commands_run_without_numpy(tmp_path):
    lang = tmp_path / "lang.rel"
    lang.write_text("relation R13 3\n001\n010\n100\n")
    costs = tmp_path / "d.cost"
    costs.write_text("costfn f_neq 2\n00 1\n10 0\n01 0\n11 1\n")
    cut = tmp_path / "cut.inst"
    cut.write_text("problem Max-Cut\nvars 3\nc edge 1 2\nc edge 2 3\n")
    # a path of OR2 and NAND2 on 20 variables: the hard kinds past the cut
    hard = tmp_path / "hard.inst"
    hard.write_text("problem U-Max-Ones\nvars 20\n" + "".join(
        f"c {'OR2' if i % 3 else 'NAND2'} {i} {i + 1}\n" for i in range(1, 20)))
    # each command in its own process: its exit code and the modules it loads
    commands = [(["weakbase", "IS1", "3"], 0, ["postlattice", "weakbases"]),
                (["coclone", str(lang)], 0, ["postlattice"]),
                (["classify-sat", str(lang)], 1, []),
                (["classify-maxones", str(lang)], 1, []),
                (["vcsp-classify", str(costs)], 1, ["valued"]),
                (["express-neq", str(costs)], 0, ["valued"]),
                # its 2+3n targets are U-Max-Ones instances of 11-20 variables
                (["certify", "umo_II2_to_IN2"], 0, _REGISTRY + ["postlattice", "weakbases"]),
                (["reduce", "maxcut_to_vcsp_neq", str(cut)], 0, _REGISTRY),
                (["selftest", "--trials", "2"], 0,
                 _REGISTRY + ["acceptance", "postlattice", "valued", "weakbases"]),
                (["solve", str(hard)], 0, _SOLVER)]
    for argv, code, loads in commands:
        loaded = sorted(_DATA_LAYER + [f"coclones.{m}" for m in loads])
        assert _main_in_process(argv) == (0, f"{code}\n", ["False", " ".join(loaded)]), argv[0]


def test_a_soft_kind_solve_past_the_cut_loads_numpy(tmp_path):
    # a star of 21 variables holds all of them in the elimination table at
    # its last step, more than a chunk, so it goes to the grid, in `arrays`
    soft = tmp_path / "star.inst"
    soft.write_text("problem Max-Cut\nvars 21\n" + "".join(
        f"c edge {i} 21\n" for i in range(1, 21)))
    loaded = sorted(_DATA_LAYER + ["coclones.arrays"] + [f"coclones.{m}" for m in _SOLVER])
    assert _main_in_process(["solve", str(soft)]) == (0, "0\n", ["True", " ".join(loaded)])


def test_a_soft_kind_solve_by_elimination_loads_no_numpy(tmp_path):
    # a cycle of 16 Max-Cut edges goes to elimination, on Python ints, with
    # or without its optimal set
    soft = tmp_path / "soft.inst"
    soft.write_text("problem Max-Cut\nvars 16\n" + "".join(
        f"c edge {i} {i % 16 + 1}\n" for i in range(1, 17)))
    loaded = sorted(_DATA_LAYER + [f"coclones.{m}" for m in _SOLVER])
    for flags in ([], ["--all"]):
        assert _main_in_process(["solve", str(soft)] + flags) == (0, "0\n",
                                                                 ["False", " ".join(loaded)])


def test_the_solver_stack_loads_no_numpy():
    # numpy is paid for only where a route vectorises, never on import
    proc = _run_python(["-c", "import coclones.reductions, coclones.acceptance; "
                        + _NUMPY_LOADED])
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_selftest_deterministic_across_runs():
    # the second run meets the caches the first one filled
    a, b = io.StringIO(), io.StringIO()
    code1 = run_selftest(trials=6, seed=3, out=a)
    code2 = run_selftest(trials=6, seed=3, out=b)
    assert code1 == code2 == 0
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("argv", [["certify", "all", "--jobs", "2"],
                                  ["certify", "maxcut_to_vcsp_neq", "--jobs", "2"],
                                  ["selftest", "--jobs", "2"]])
def test_jobs_only_on_solve(argv):
    # certify and selftest never solve an instance of more than 20 variables,
    # where --jobs would split the enumeration
    proc = _run_subprocess(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --jobs 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_selftest_reports_a_failing_criterion(monkeypatch):
    a, b = io.StringIO(), io.StringIO()
    assert run_selftest(trials=2, seed=0, out=a) == 0
    failing = acceptance.Check("argmax identities", False, "R_II2 over R_IN2")
    criteria = list(acceptance.CRITERIA)
    criteria[4] = lambda trials, seed: failing
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
    assert run_selftest(trials=2, seed=0, out=b) == 1
    want = a.getvalue().splitlines()
    want[5] = "  argmax identities ........................... FAIL  [R_II2 over R_IN2]"
    want[-1] = "result: FAIL"
    assert b.getvalue().splitlines() == want
