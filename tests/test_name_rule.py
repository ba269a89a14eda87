"""The name rule of the `numerics` docstring, checked on the source.

A module-level public name in `src/dsact`, and a public method of a
class there, exists only if engine code, the CLI or the benchmark
(`perfbench/`) uses it, or if it is a judge the tests hold production
to. The scan parses every module with `ast` and counts a name as used
when it appears as a loaded name, an attribute or a string constant (the
benchmark's tracer names its targets by string) anywhere in `src/dsact`
or `perfbench/` outside its own definition.
Imports are not uses. The package namespace re-exports nothing, so each
name has one import path.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dsact"

# public names that only the tests call: each is an independent check of
# what production computes, not a named wrapper of production code
JUDGES = {
    "finite_diff_grad",
    "numeric_soft_q",
    "point_robot_reference_action",
    "ReplayBuffer.contents",  # the held rows, against which eviction order is checked
    "PendulumEnv.mechanical_energy",  # the integrator's energy drift over a free swing
    "SoftQTable.std_at",  # the chain's exact return std from a state, the oracle for a learned sigma
    "SoftQTable.make_policy",  # the soft-optimal sampler that cross-checks mc_true_q
}


def _uses(node: ast.AST) -> Counter:
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            used[sub.value] += 1
    return used


def _definitions(tree: ast.Module):
    """(name, node) for each public name bound at module level, and
    ("Class.method", node) for each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            yield from ((f"{node.name}.{m.name}", m) for m in methods)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def unused_public_names() -> list[str]:
    modules = {p: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    used = Counter()
    for tree in modules.values():
        used += _uses(tree)
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        used += _uses(ast.parse(p.read_text(), str(p)))
    unused = []
    for path, tree in modules.items():
        for name, node in _definitions(tree):
            bare = name.rpartition(".")[2]
            if used[bare] - _uses(node)[bare] == 0:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_is_used_or_a_judge():
    unused = [name for name in unused_public_names() if name.partition(".")[2] not in JUDGES]
    assert unused == []


def test_package_namespace_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # the docstring
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__version__"]:
            continue
        bound.append(ast.unparse(node).splitlines()[0])
    assert bound == []
