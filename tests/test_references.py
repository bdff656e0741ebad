"""Every definition in src/coclones is named somewhere outside itself.

A coarse word scan over the .py files of src/, bench/ and scripts/, outside
the lines of the definition itself.  A top-level function or class counts as
referenced when its name appears as a word.  A method counts only through
attribute access (`.name`) or an identifier string (`"name"`, as `getattr`
reads), since a method name such as `rows` is also a common local name.  The
tests do not count, so a helper that only they reach shows up here and moves
into them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coclones"
SCANNED = sorted(p for top in ("src", "bench", "scripts") for p in (ROOT / top).rglob("*.py"))
WORD = re.compile(r"\w+")
ATTRIBUTE = re.compile(r"[.\"'](\w+)")  # a name after a dot or a quote

# "module.name" -> why it stays though nothing above names it
ALLOWED: dict[str, str] = {}


def definitions(path: Path):
    """(name, first line, last line) of each top-level function and class of
    a module, and of each method as "Class.method"; the dunder methods Python
    calls itself are left out."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in (node, *members):
            if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))):
                first = min([n.lineno] + [d.lineno for d in n.decorator_list])
                name = n.name if n is node else f"{node.name}.{n.name}"
                yield name, first, n.end_lineno


def unreferenced(scanned=SCANNED, package=PACKAGE) -> list[str]:
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in scanned}
    counters = {pattern: Counter(w for text in lines.values() for line in text
                                 for w in pattern.findall(line))
                for pattern in (WORD, ATTRIBUTE)}
    out = []
    for path in sorted(package.glob("*.py")):
        for qualified, first, last in definitions(path):
            pattern = ATTRIBUTE if "." in qualified else WORD
            name = qualified.rpartition(".")[2]
            own = sum(pattern.findall(line).count(name) for line in lines[path][first - 1:last])
            if counters[pattern][name] == own:
                out.append(f"{path.stem}.{qualified}")
    return out


def test_every_definition_is_named_outside_itself():
    found = unreferenced()
    assert [name for name in found if name not in ALLOWED] == []
    assert set(ALLOWED) <= set(found)  # an entry whose name came back into use goes
