"""Every definition in src/coclones is named somewhere outside itself.

A coarse word scan: a function, class or method counts as referenced when
its name appears as a word in a .py file of src/, bench/ or scripts/, outside
the lines of its own definition.  The tests do not count, so a helper that
only they reach shows up here and moves into them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coclones"
SCANNED = sorted(p for top in ("src", "bench", "scripts") for p in (ROOT / top).rglob("*.py"))
WORD = re.compile(r"\w+")

# "module.name" -> why it stays though nothing above names it
ALLOWED: dict[str, str] = {}


def definitions(path: Path):
    """(name, first line, last line) of each top-level function and class of
    a module, and of each method; the dunder methods Python calls itself are
    left out."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in (node, *members):
            if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))):
                first = min([n.lineno] + [d.lineno for d in n.decorator_list])
                yield n.name, first, n.end_lineno


def unreferenced(scanned=SCANNED, package=PACKAGE) -> list[str]:
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in scanned}
    words = Counter(w for text in lines.values() for line in text for w in WORD.findall(line))
    out = []
    for path in sorted(package.glob("*.py")):
        for name, first, last in definitions(path):
            own = sum(WORD.findall(line).count(name) for line in lines[path][first - 1:last])
            if words[name] == own:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_definition_is_named_outside_itself():
    found = unreferenced()
    assert [name for name in found if name not in ALLOWED] == []
    assert set(ALLOWED) <= set(found)  # an entry whose name came back into use goes
