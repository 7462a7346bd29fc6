"""Every public module-level function and class of the package is reached
from outside its own definition: from package code, from the benchmark
under ``perfbench/``, or from the acceptance criteria.  A name that only
unit tests use is dead weight, so this gate fails on it."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "qalinks").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

EXEMPT = {
    # builds braid-closure fixtures for the oracle and braiding tests
    ("seifert_oracle", "braid_closure"),
}


def _references(path: Path) -> list[tuple[str, int]]:
    """(identifier, line) for every name in the code, and every string
    literal that is exactly an identifier (the benchmark's tracer looks
    functions up by name); comments and docstrings do not count."""
    out = []
    lines = io.StringIO(path.read_text()).readline
    for tok in tokenize.generate_tokens(lines):
        if tok.type == tokenize.NAME:
            out.append((tok.string, tok.start[0]))
        elif tok.type == tokenize.STRING:
            text = tok.string.strip("\"'")
            if text.isidentifier():
                out.append((text, tok.start[0]))
    return out


def _public_definitions(path: Path):
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.lineno, node.end_lineno


def test_every_public_definition_is_reached():
    refs = [(path, word, line) for path in READERS
            for word, line in _references(path)]
    spans = {(path.stem, name): (path, first, last) for path in PACKAGE
             for name, first, last in _public_definitions(path)}

    def inside(path, line, keys):
        return any(path == p and a <= line <= b
                   for p, a, b in (spans[k] for k in keys))

    # a name used only inside unreached definitions is unreached too
    unreached: set = set()
    while True:
        found = {key for key in spans
                 if not any(word == key[1] and not inside(path, line, {key})
                            and not inside(path, line, unreached)
                            for path, word, line in refs)}
        if found == unreached:
            break
        unreached = found
    # the exemptions are exactly what is left, so none goes stale
    assert unreached == EXEMPT
