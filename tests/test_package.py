"""The package holds one construction per quantity, and nothing that only tests read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import bcslab

PACKAGE = Path(bcslab.__file__).parent


def _public_definitions(tree):
    """The public module-level functions and classes of `tree`, and the public methods of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                item for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def test_every_public_name_is_read_in_the_package():
    # a public module-level function or class, or a public method or property
    # of a public class, must be loaded somewhere in src/bcslab outside its
    # own definition; __init__'s re-exports and string literals (check names)
    # do not count, so an oracle, twin or constructor that only tests call
    # belongs in tests/conftest.py
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    loads = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((module, node.attr, node.lineno))
    unread = []
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (m == module and line in own) for m, name, line in loads):
                unread.append(f"{module}:{node.name}")
    assert trees
    assert unread == []


def test_importing_the_package_and_cli_leaves_scipy_linalg_unloaded():
    # no scipy module at all: scipy.sparse cost about 0.19 s of start-up and 24 MB per process,
    # and scipy.linalg 0.2 s and 10 MB; the operators are fock.XorOp and exp(K) reads numpy's eigh
    code = "import sys, bcslab, bcslab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert out.stdout.strip() == "[]"


def test_verify_writes_the_golden_reports_where_scipy_cannot_be_imported(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise ImportError, as on a host without scipy
    golden = PACKAGE.parents[1] / "tests" / "golden" / "ac10"
    out = tmp_path / "out"
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import bcslab.cli\n"
        f"code = bcslab.cli.main(['verify', '--config', {str(golden / 'config.json')!r}, '--out', {str(out)!r}])\n"
        # numpy.ma costs about 8 ms to import, and nothing in a pass needs it
        "assert 'numpy.ma' not in sys.modules, 'a verify pass imported numpy.ma'\n"
        "sys.exit(code)"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert run.returncode == 0, run.stderr
    for name in ("report.json", "report.csv"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name
