"""Every public module-level function and class of the package, and every
public method and property of its classes, is reached from outside its
own definition: from package code, from the benchmark under
``perfbench/``, or from the acceptance criteria.  A name that only unit
tests use is dead weight, so this gate fails on it.

A member is matched by name alone: it counts as reached when ``.name``
or the string ``"name"`` is read, whatever object it is read from."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qalinks").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def _references(path: Path) -> list[tuple[str, int, bool]]:
    """(identifier, line, read as an attribute) for every name in the
    code, and every string literal that is exactly an identifier (the
    benchmark's tracer looks functions and methods up by name); comments
    and docstrings do not count."""
    out = []
    lines = io.StringIO(path.read_text()).readline
    prev = None
    for tok in tokenize.generate_tokens(lines):
        if tok.type == tokenize.NAME:
            out.append((tok.string, tok.start[0], prev == "."))
        elif tok.type == tokenize.STRING:
            text = tok.string.strip("\"'")
            if text.isidentifier():
                out.append((text, tok.start[0], True))
        prev = tok.string
    return out


def _public_definitions(path: Path):
    """(names, first line, last line) per public module-level function or
    class, names being (name,), and per public method or property of a
    module-level class, names being (class name, member name)."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield (node.name,), node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield (node.name, item.name), item.lineno, item.end_lineno


def test_every_public_definition_is_reached():
    refs = [(path, word, line, attr) for path in READERS
            for word, line, attr in _references(path)]
    spans = {(path.stem, *names): (path, first, last) for path in PACKAGE
             for names, first, last in _public_definitions(path)}

    def inside(path, line, keys):
        return any(path == p and a <= line <= b
                   for p, a, b in (spans[k] for k in keys))

    def reads(key, word, attr):
        # key is (module, name) or, for a member, (module, class, name);
        # a member is read only as an attribute or a string
        return word == key[-1] and (attr or len(key) == 2)

    # a name used only inside unreached definitions is unreached too
    unreached: set = set()
    while True:
        found = {key for key in spans
                 if not any(reads(key, word, attr)
                            and not inside(path, line, {key})
                            and not inside(path, line, unreached)
                            for path, word, line, attr in refs)}
        if found == unreached:
            break
        unreached = found
    assert unreached == set()
