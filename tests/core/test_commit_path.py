"""The kernel's commit path rewrites rows in place and never reshapes.

A commit reaches :class:`repro.core.scheduler._SystemKernel` through
``note_commit`` and is applied by ``_refresh``, ``_build`` and
``_fold``: rows overwrite their preallocated table rows, and a block
re-sums its constants over its own column range.  Concatenating or
deduplicating arrays, or restricting and extending row stacks, would
bring back per-commit allocations that grow with the rows touched, so
this test fails on any such call in those methods.
"""

import ast
from pathlib import Path

import repro

SCHEDULER = Path(repro.__file__).resolve().parent / "core" / "scheduler.py"

#: Methods a commit runs through.
COMMIT_PATH = {"note_commit", "_refresh", "_build", "_fold"}

#: ``np.<name>`` calls that reshape arrays.
NUMPY_RESHAPES = {"concatenate", "unique"}

#: Row-stack methods that copy every kept row.
STACK_RESHAPES = {"restricted", "extended"}


def _reshaping_calls():
    tree = ast.parse(SCHEDULER.read_text(encoding="utf-8"))
    (kernel,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_SystemKernel"
    ]
    methods = {
        node.name: node
        for node in kernel.body
        if isinstance(node, ast.FunctionDef) and node.name in COMMIT_PATH
    }
    assert set(methods) == COMMIT_PATH
    sites = []
    for name, method in sorted(methods.items()):
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ):
                continue
            func = node.func
            receiver = func.value.id if isinstance(func.value, ast.Name) else None
            if (
                receiver in ("np", "numpy") and func.attr in NUMPY_RESHAPES
            ) or func.attr in STACK_RESHAPES:
                sites.append(f"{name}:{node.lineno} .{func.attr}")
    return sites


def test_commit_path_makes_no_reshaping_call():
    assert _reshaping_calls() == []
