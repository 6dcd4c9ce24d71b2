"""The root package exports what its users import, and the demos run.

Every name in `hydroclosures.__all__` must resolve, and every name that a
demo or the README's library example imports from `hydroclosures` must be
in `__all__`; each demo must also run to completion as a script.
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


def source_code(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


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
    if path.suffix == ".py":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr


EXACT_COMMANDS = [
    ["verify", "--family", "burby", "--level", "3"],
    ["verify", "--family", "waterbag", "--heights", "1,1,-2"],
    ["verify", "--family", "generic", "--mu2", "nu1^2*nu2"],
    ["closure", "show", "--family", "fourfield", "--kappa", "1/2"],
    ["closure", "casimir", "--family", "burby", "--level", "2"],
    ["closure", "eos", "--family", "multidelta", "--mu", "0.36,0.324"],
]


def test_exact_commands_never_import_the_solver():
    # verify and closure run on the exact engine; numpy and sim belong to
    # simulate and compare, and loading them would double start-up
    script = (
        "import contextlib, io, json, sys\n"
        "from hydroclosures import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {EXACT_COMMANDS!r}]\n"
        "print(json.dumps([codes, sorted({'numpy', 'hydroclosures.sim'} & set(sys.modules))]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    codes, loaded = json.loads(run.stdout)
    assert codes == [0] * len(EXACT_COMMANDS)
    assert loaded == []
