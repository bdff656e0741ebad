#!/usr/bin/env python3
"""Run the mutation catalog: every mutant must fail the tests named to kill it.

Each entry of the catalog (`scripts/mutants.json` by default) holds an `id`, a
`file` relative to the repository root, a `snippet` that occurs exactly once
in that file, its `replacement`, and the pytest ids of the `tests` that must
kill it.  For each entry the runner copies what the tests read (src/,
tests/, scripts/, README.md and pyproject.toml) into a temporary directory,
runs the entry's tests there, applies the replacement and runs them again.
It prints one line per entry:

    killed    every named test passes on the copy and fails on the mutant
    survived  a named test passes on the mutant
    stale     the snippet does not occur exactly once, or the named tests do
              not all pass on the unmutated copy (an unknown id among them)

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
from pathlib import Path

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


def _run(entry: dict) -> tuple[str, str]:
    """The verdict on one catalog entry, and why."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        target = tree / entry["file"]
        text = target.read_text()
        found = text.count(entry["snippet"])
        if found != 1:
            return "stale", f"the snippet occurs {found} times in {entry['file']}"
        code, failed = _pytest(tree, entry["tests"])
        if code != 0:
            return "stale", (f"unmutated, pytest exits {code}; failed: "
                             + (", ".join(sorted(failed)) or "-"))
        target.write_text(text.replace(entry["snippet"], entry["replacement"]))
        code, failed = _pytest(tree, entry["tests"])
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
    verdicts = []
    for entry in entries:
        verdict, why = _run(entry)
        verdicts.append(verdict)
        print(f"{verdict:9} {entry['id']}: {why}", flush=True)
    print(f"{len(entries)} mutants: " + ", ".join(
        f"{verdicts.count(v)} {v}" for v in ("killed", "survived", "stale")))
    return 0 if verdicts.count("killed") == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
