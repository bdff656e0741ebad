#!/usr/bin/env python3
"""Run the mutation catalog: every mutant must fail the tests named to kill it.

Each entry of the catalog (`scripts/mutants.json` by default) holds an `id`, a
`file` relative to the repository root, a `snippet` that occurs exactly once
in that file, its `replacement`, and the pytest ids of the `tests` that must
kill it.  The runner copies what the tests read (src/, tests/, scripts/,
README.md and pyproject.toml) into a temporary directory, runs the union of
the entries' tests there once, and runs each entry's tests on a copy with
its replacement applied.  If that union fails, it runs each entry's tests
on an unmutated copy instead, so one entry's failing test does not make the
others stale.  The runs take os.cpu_count() pytest processes at a time.  An
entry may instead hold `equivalent`, the reason its replacement cannot
change any result; its tests are then the ones it survives, and the runner
only checks its snippet.  It prints one line per entry, in catalog order:

    killed      every named test passes on the copy and fails on the mutant
    survived    a named test passes on the mutant
    equivalent  the snippet occurs once; the line gives the entry's reason
    stale       the snippet does not occur exactly once, or the named tests
                do not all pass on the unmutated copy (an unknown id among
                them)

and exits 1 if any entry survived or is stale.

    python3 scripts/mutants.py [--catalog PATH] [ID ...]
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")
FAILED = re.compile(r"^FAILED (\S+)", re.M)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=skip)
        else:
            shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests: list[str]) -> tuple[int, set[str]]:
    """Run `tests` on the copy at `tree`: pytest's exit code and the failed ids."""
    path = [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, set(FAILED.findall(proc.stdout))


def _run(tests: list[str], entry: Optional[dict] = None) -> tuple[int, set[str]]:
    """`_pytest` of `tests` on a fresh copy, with `entry`'s replacement applied if given."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        if entry is not None:
            target = tree / entry["file"]
            target.write_text(target.read_text().replace(entry["snippet"], entry["replacement"]))
        return _pytest(tree, tests)


def _snippet(entry: dict) -> Optional[tuple[str, str]]:
    """The verdict that the snippet alone gives, if any, and why."""
    found = (ROOT / entry["file"]).read_text().count(entry["snippet"])
    if found != 1:
        return "stale", f"the snippet occurs {found} times in {entry['file']}"
    if "equivalent" in entry:
        return "equivalent", entry["equivalent"]
    return None


def _verdict(entry: dict, clean: tuple[int, set[str]], mutant: tuple[int, set[str]]
             ) -> tuple[str, str]:
    """The verdict on one entry from its tests' runs unmutated and mutated."""
    code, failed = clean
    if code != 0:
        return "stale", (f"unmutated, pytest exits {code}; failed: "
                         + (", ".join(sorted(failed)) or "-"))
    code, failed = mutant
    if code not in (0, 1):
        return "stale", f"on the mutant, pytest exits {code}"
    passed = [t for t in entry["tests"] if t not in failed]
    if passed:
        return "survived", "passes " + ", ".join(passed)
    return "killed", f"{len(failed)} of {len(entry['tests'])} named tests fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--catalog", type=Path, default=ROOT / "scripts" / "mutants.json")
    parser.add_argument("ids", nargs="*", help="run only these entries")
    args = parser.parse_args(argv)
    catalog = json.loads(args.catalog.read_text())
    unknown = set(args.ids) - {e["id"] for e in catalog}
    if unknown:
        parser.error(f"unknown mutant ids: {', '.join(sorted(unknown))}")
    entries = [e for e in catalog if not args.ids or e["id"] in args.ids]
    early = {e["id"]: _snippet(e) for e in entries}
    tested = [e for e in entries if early[e["id"]] is None]
    verdicts = []
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        union = pool.submit(_run, sorted({t for e in tested for t in e["tests"]}))
        mutants = {e["id"]: pool.submit(_run, e["tests"], e) for e in tested}
        clean = {e["id"]: union for e in tested}
        if tested and union.result()[0] != 0:
            clean = {e["id"]: pool.submit(_run, e["tests"]) for e in tested}
        for entry in entries:
            key = entry["id"]
            verdict, why = early[key] or _verdict(entry, clean[key].result(),
                                                  mutants[key].result())
            verdicts.append(verdict)
            print(f"{verdict:10} {key}: {why}", flush=True)
    print(f"{len(entries)} mutants: " + ", ".join(
        f"{verdicts.count(v)} {v}" for v in ("killed", "equivalent", "survived", "stale")))
    return 0 if verdicts.count("survived") + verdicts.count("stale") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
