"""Scheduling one sweep candidate is written once: ``jobs.evaluate``.

The engine's in-process executor and the pool workers' ``run_job`` both
reach the scheduler through :func:`repro.parallel.jobs.evaluate`, which
applies the job's deadline and fault directive.  A second function in
``repro.parallel`` that enters ``_deadline`` or calls ``inject_fault``
would be a second copy of that path, free to drift from the first, so
this test fails on any such function.
"""

import ast
from pathlib import Path

import repro

PARALLEL = Path(repro.__file__).resolve().parent / "parallel"

#: The one function allowed to schedule a candidate, as ``module.name``.
EVALUATE = "jobs.evaluate"

#: Names whose use marks a function as scheduling a candidate.
CANDIDATE_HOOKS = {"_deadline", "inject_fault"}


def _called_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _functions_scheduling_a_candidate():
    found = set()
    for path in sorted(PARALLEL.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and _called_name(node) in CANDIDATE_HOOKS:
                    found.add(f"{path.stem}.{function.name}")
    return found


def test_only_evaluate_schedules_a_candidate():
    assert _functions_scheduling_a_candidate() == {EVALUATE}
