"""Mutation run over the checks of ``qa.validate_certificate``.

Each ``return False`` in the function becomes ``pass``, one at a time, in
a temporary copy of the repository.  The tier-1 suite runs against each
mutant, stopping at its first failure, and the mutants no test kills are
listed.  Extra arguments go to pytest.  The file name keeps pytest from
collecting it: each mutant costs up to a full tier-1 run.

    python tests/mutate_replay.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QA = Path("src", "qalinks", "qa.py")


def return_false_lines(text: str) -> list[tuple[int, str]]:
    """Each ``return False`` in validate_certificate: its line number and
    the condition of the ``if`` it sits in."""
    fn = next(node for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.FunctionDef)
              and node.name == "validate_certificate")
    return sorted((ret.lineno, ast.get_source_segment(text, node.test))
                  for node in ast.walk(fn) if isinstance(node, ast.If)
                  for ret in node.body if isinstance(ret, ast.Return)
                  and isinstance(ret.value, ast.Constant)
                  and ret.value.value is False)


def main(pytest_args: list[str]) -> int:
    text = (ROOT / QA).read_text()
    lines = text.splitlines(keepends=True)
    targets = return_false_lines(text)
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        for no, condition in targets:
            mutant = list(lines)
            mutant[no - 1] = mutant[no - 1].replace("return False", "pass", 1)
            (copy / QA).write_text("".join(mutant))
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *pytest_args],
                cwd=copy, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            killed = run.returncode != 0
            if not killed:
                survivors.append(no)
            print(f"qa.py:{no} {'killed' if killed else 'SURVIVED'}: "
                  f"if {' '.join(condition.split())}", flush=True)
    print(f"{len(survivors)} of {len(targets)} mutants survive")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
