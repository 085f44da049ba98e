"""Every name a vecoff module imports is read, exported or allow-listed,
every function and class it defines is run by the package or listed,
and a module loads only what it imports.

The scan reads each module under ``src/vecoff`` with ``ast``. A name an
import binds passes when the module reads it somewhere (annotations
count, string annotations included), lists it in ``__all__``, or when
``ALLOWED`` gives the reason it stays: a deliberate re-export with no
``__all__`` to name it, or a module attribute that something outside
``src/`` reaches through the module.
A top-level function or class passes when another top-level statement of
the package loads it, by name or as an attribute, or when ``UNREAD``
gives the reason it stays: code only tests call belongs in the tests.
The packages re-export nothing, so importing one module must not load
the rest; fresh interpreters check that.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vecoff"
MODULES = sorted(SRC.rglob("*.py"))

# (module path relative to src/vecoff, imported name): why the module
# imports a name it does not read
ALLOWED: dict[tuple[str, str], str] = {
    ("heuristics.py", "attach_comm_times"): "perfbench/tracer.py wraps this module attribute",
    ("rl/envs.py", "attach_comm_times"): "perfbench/tracer.py wraps this module attribute",
}

# (module path relative to src/vecoff, top-level name): why nothing in
# src/ runs it and it stays there
UNREAD: dict[tuple[str, str], str] = {
    ("config.py", "cross_validate"): (
        "perfbench/bench.py re-checks configs whose sections it reassigned"
    ),
    ("config.py", "save_config"): "the README's documented way to write a config",
    ("heuristics.py", "RandomScheduler"): "gate 11 fuzzes the engine with it",
    ("heuristics.py", "brute_force_oracle"): "gate 01 bounds the swarm by it",
    ("rl/envs.py", "ToyTwoActionEnv"): "gate 07 checks the learning signal on it",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, each with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Names the module loads, plus those named in string annotations."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names |= _read(ast.parse(c.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str, rel: str = "") -> list[tuple[str, int]]:
    """(name, line) for each imported name that nothing reads or exports."""
    tree = ast.parse(source)
    keep = _read(tree) | _exported(tree) | {name for path, name in ALLOWED if path == rel}
    return sorted(
        ((name, line) for name, line in _imported(tree).items() if name not in keep),
        key=lambda item: item[1],
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    rel = path.relative_to(SRC).as_posix()
    assert unused_imports(path.read_text(), rel) == []


def test_allow_list_holds_only_unread_imports():
    for rel, name in ALLOWED:
        source = (SRC / rel).read_text()
        tree = ast.parse(source)
        assert name in _imported(tree), f"{rel} no longer imports {name}"
        assert name not in _read(tree) | _exported(tree), f"{rel} reads {name}: unlist it"


def test_scan_sees_through_exports_and_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Any, Sequence\n"
        "from .m import Exported, Dead\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Sequence[int]') -> Any:\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [("os", 2), ("Dead", 4)]


def _defined(tree: ast.Module) -> list[ast.stmt]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)]


def _loaded(node: ast.AST) -> set[str]:
    """Names ``node`` reads, and the attributes it reads off anything."""
    attrs = (n for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return _read(node) | {n.attr for n in attrs if isinstance(n.ctx, ast.Load)}


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each top-level function or class in ``sources``
    (module path to text) that no other top-level statement loads."""
    trees = {rel: ast.parse(source) for rel, source in sources.items()}
    loads = [(stmt, _loaded(stmt)) for tree in trees.values() for stmt in tree.body]
    return sorted(
        (rel, node.name)
        for rel, tree in trees.items()
        for node in _defined(tree)
        if not any(node.name in names for stmt, names in loads if stmt is not node)
    )


PACKAGE = {path.relative_to(SRC).as_posix(): path.read_text() for path in MODULES}


def test_src_defines_only_what_it_runs():
    assert [d for d in unread_definitions(PACKAGE) if d not in UNREAD] == []


def test_unread_list_holds_only_unread_definitions():
    unread = unread_definitions(PACKAGE)
    for rel, name in UNREAD:
        defined = [node.name for node in _defined(ast.parse(PACKAGE[rel]))]
        assert name in defined, f"{rel} no longer defines {name}"
        assert (rel, name) in unread, f"src/ runs {rel} {name}: unlist it"


def test_definition_scan_sees_attributes_and_annotations():
    sources = {
        "a.py": (
            "class Attr: pass\n"
            "class Ann: pass\n"
            "def used(): return 1\n"
            "def dead(): return used()\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
        ),
        "b.py": "from . import a\ndef f(x: 'Ann'):\n    return a.Attr\nf(0)\n",
    }
    assert unread_definitions(sources) == [("a.py", "dead"), ("a.py", "recursive")]


def modules_loaded_by(module: str) -> list[str]:
    """Every module a fresh interpreter holds after ``import module``."""
    code = f"import json, sys; import {module}; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return json.loads(proc.stdout)


def test_engine_loads_only_its_own_imports():
    loaded = modules_loaded_by("vecoff.engine")
    ours = [m for m in loaded if m == "vecoff" or m.startswith("vecoff.")]
    assert ours == ["vecoff", "vecoff.channel", "vecoff.domain", "vecoff.engine"]
    assert "numpy" not in loaded


TRAINERS = {"vecoff.rl.dqn", "vecoff.rl.ppo", "vecoff.rl.envs", "vecoff.rl.training"}


def test_encoding_does_not_load_the_trainers():
    assert set(modules_loaded_by("vecoff.rl.encoding")) & TRAINERS == set()


def test_config_does_not_load_the_trainers():
    assert set(modules_loaded_by("vecoff.config")) & TRAINERS == set()
