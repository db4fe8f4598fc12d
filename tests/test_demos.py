"""Smoke tests: every demo script runs to completion with small flags, and the
private names README.md cites still exist."""

import ast
import fnmatch
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cstarkit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SMALL_FLAGS = {
    "chsh_values.py": [],
    "norm_enumeration.py": ["--budget", "100"],
    "rounding_walkthrough.py": [],
    "seesaw_walkthrough.py": ["--iters", "5"],
    "semidecision_walkthrough.py": ["--budget", "200"],
    "witness_repair.py": [],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(SMALL_FLAGS)


@pytest.mark.parametrize("name", sorted(SMALL_FLAGS))
def test_demo_runs(name):
    # the demos import the same cstarkit sources as this test session
    src = str(Path(cstarkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name), *SMALL_FLAGS[name]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stderr


def _readme_private_names():
    """Each backticked span of README.md outside code fences that starts with a
    private name, as that (possibly dotted) name; a * in it is a wildcard."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    return sorted({match[0] for span in spans
                   if (match := re.match(r"(?:[A-Za-z]\w*\.)*_[\w*]+", span))})


def test_readme_private_names_exist():
    """Every private name README.md cites in backticks is an attribute of some
    cstarkit module (or of an object one names), so a helper rename cannot
    leave the README stale.  `_draw_*` stands for any name it matches."""
    modules = [cstarkit] + [importlib.import_module(f"cstarkit.{info.name}")
                            for info in pkgutil.iter_modules(cstarkit.__path__)
                            if info.name != "__main__"]
    names = _readme_private_names()
    assert len(names) >= 5, names
    stale = []
    for name in names:
        *path, last = name.removeprefix("cstarkit.").split(".")
        owners = modules
        for part in path:
            owners = [getattr(owner, part) for owner in owners if hasattr(owner, part)]
        if not any(fnmatch.fnmatchcase(attr, last) for owner in owners for attr in dir(owner)):
            stale.append(name)
    assert stale == []


def _private_definitions(tree):
    """(name, node) per module-level private function, class and constant of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_private_definitions_are_referenced():
    """Every module-level private function, class and constant of cstarkit is read
    somewhere in cstarkit outside its own definition, as a name or an attribute;
    a docstring mention does not count, so a helper a refactor left unused fails."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(cstarkit.__file__).parent.glob("*.py"))}
    reads = [(module, node) for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))
             and not isinstance(node.ctx, ast.Store)]
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if not any((node.id if isinstance(node, ast.Name) else node.attr) == name
                       and not (where == module and id(node) in inside)
                       for where, node in reads):
                dead.append(f"{module}:{name}")
    assert dead == []
