"""Every definition in src/coclones is used somewhere outside itself.

A scan of the syntax trees of the .py files of src/, bench/ and scripts/,
outside the lines of the definition itself.  Only code counts as a use: a
name, an attribute, an import or its alias, and the words of a string
constant that is not a docstring, as the tracer's site strings name what
they wrap.  Docstrings and comments do not count.  A top-level function or
class counts as used when its name is one of those words.  A method counts
only through attribute access (`.name`) or a string word at the start of the
string or after a dot (`"name"`, as `getattr` reads), since a method name
such as `rows` is also a common local name.  The tests do not count, so a
helper that only they reach shows up here and moves into them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coclones"
SCANNED = sorted(p for top in ("src", "bench", "scripts") for p in (ROOT / top).rglob("*.py"))
WORD = re.compile(r"\w+")
LEADING = re.compile(r"(?:^|\.)(\w+)")  # a word that starts the string or follows a dot

# "module.name" -> why it stays though nothing above uses it
ALLOWED: dict[str, str] = {}


def definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level function and class of
    a module, and of each method as "Class.method"; the dunder methods Python
    calls itself are left out."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for n in (node, *members):
            if (isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (n.name.startswith("__") and n.name.endswith("__"))):
                first = min([n.lineno] + [d.lineno for d in n.decorator_list])
                name = n.name if n is node else f"{node.name}.{n.name}"
                yield name, first, n.end_lineno


def uses(tree: ast.Module):
    """(line, word, whether a method is used by it) for every use in the code
    of a module."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, True
        elif isinstance(node, ast.alias):
            for name in filter(None, (*node.name.split("."), node.asname)):
                yield node.lineno, name, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            leading = set(LEADING.findall(node.value))
            for word in WORD.findall(node.value):
                yield node.lineno, word, word in leading


def unreferenced(scanned=SCANNED, package=PACKAGE) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in scanned}
    found = {p: list(uses(tree)) for p, tree in trees.items()}
    # a function or class is used by any use of its name, a method only by
    # an attribute or a leading string word
    counters = {method: Counter(word for got in found.values() for _, word, as_method in got
                                if as_method or not method)
                for method in (False, True)}
    out = []
    for path in sorted(package.glob("*.py")):
        for qualified, first, last in definitions(trees[path]):
            method = "." in qualified
            name = qualified.rpartition(".")[2]
            own = sum(1 for line, word, as_method in found[path]
                      if word == name and first <= line <= last and (as_method or not method))
            if counters[method][name] == own:
                out.append(f"{path.stem}.{qualified}")
    return out


def test_every_definition_is_named_outside_itself():
    found = unreferenced()
    assert [name for name in found if name not in ALLOWED] == []
    assert set(ALLOWED) <= set(found)  # an entry whose name came back into use goes
