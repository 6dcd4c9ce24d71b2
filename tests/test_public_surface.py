"""The root package exports what its users import, the demos run, and
the library holds no code that only the tests use.

Every name in `hydroclosures.__all__` must resolve, and every name that a
demo or the README's library example imports from `hydroclosures` must be
in `__all__`; each demo must also run to completion as a script, and the
README's example must print what its comments say. Every
public top-level function and class of `src/hydroclosures` must have a
user outside the tests; reference formulas that only tests read live in
`tests/oracles.py`.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hydroclosures

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "demos").glob("*.py")) + [README]
LIBRARY = sorted((ROOT / "src" / "hydroclosures").glob("*.py"))
# the interpreter with this one's development mode and warning options, so
# that a run under `python -X dev -W error` holds the subprocesses to them too
PYTHON = [sys.executable, *(["-X", "dev"] if sys.flags.dev_mode else []),
          *(f"-W{option}" for option in sys.warnoptions)]
# kept for the waterbag contour oracle in `compare` and the linear-theory
# oracle on the roadmap, which will be their first callers
NO_USER_YET = {"waterbag_normal_map", "multidelta_inverse_map"}


def source_code(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


def referenced_names(tree: ast.AST) -> set:
    """Names used as a `Name` or an `Attribute` anywhere in `tree` except
    inside the definition of a function or class of that name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def root_imports(code: str) -> set:
    return {alias.name for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module == "hydroclosures"
            for alias in node.names}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_public_surface(path):
    missing = [name for name in hydroclosures.__all__ if not hasattr(hydroclosures, name)]
    assert not missing
    code = source_code(path)
    imported = root_imports(code)
    assert imported, f"{path.name} imports nothing from hydroclosures"
    assert imported <= set(hydroclosures.__all__), imported - set(hydroclosures.__all__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    script = [str(path)] if path.suffix == ".py" else ["-c", code]
    run = subprocess.run([*PYTHON, *script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    if path.suffix == ".md":
        # the first two prints carry their output as a comment, up to any ':'
        said = re.findall(r"^print\(.*\)\s+# ([^:\n]*)", code, re.M)[:2]
        assert said == ["1 * nu2*nu3^2", "True"]
        assert run.stdout.splitlines()[:2] == said


def test_library_holds_no_test_only_code():
    public = {node.name for path in LIBRARY for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    # `__init__` only re-exports, by import and by the strings of `__all__`
    users = ([p for p in LIBRARY if p.name != "__init__.py"] + SOURCES
             + sorted((ROOT / "perfbench").glob("*.py")))
    used = set().union(*(referenced_names(ast.parse(source_code(p))) for p in users))
    assert sorted(public - used) == sorted(NO_USER_YET)


EXACT_COMMANDS = [
    ["verify", "--family", "burby", "--level", "3"],
    ["verify", "--family", "waterbag", "--heights", "1,1,-2"],
    ["verify", "--family", "waterbag", "--heights", "1,-3,3,1,-1,-1"],
    ["verify", "--family", "generic", "--mu2", "nu1^2*nu2"],
    ["closure", "show", "--family", "fourfield", "--kappa", "1/2"],
    ["closure", "casimir", "--family", "burby", "--level", "2"],
    ["closure", "eos", "--family", "multidelta", "--mu", "0.36,0.324"],
]


def test_exact_commands_never_import_the_solver():
    # verify and closure run on the exact engine; numpy and sim belong to
    # simulate and compare, and loading them would double start-up. The
    # waterbag certificate is verify's alone: importing cli leaves it out.
    # Importing cli builds no argument parser either: the first main call
    # builds it, and every later call of the process reuses it.
    script = (
        "import contextlib, io, json, sys\n"
        "from hydroclosures import cli\n"
        "at_start = ['hydroclosures.certificate' in sys.modules,\n"
        "            cli._parser.cache_info().currsize]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {EXACT_COMMANDS!r}]\n"
        "print(json.dumps([codes, at_start, cli._parser.cache_info().misses,\n"
        "                  sorted({'numpy', 'hydroclosures.sim'} & set(sys.modules))]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([*PYTHON, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, at_start, builds, loaded = json.loads(run.stdout)
    assert codes == [0] * len(EXACT_COMMANDS)
    assert at_start == [False, 0]
    assert builds == 1
    assert loaded == []
