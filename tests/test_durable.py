"""The durable-write module, and that it is the only one.

Every byte ``repro`` needs to survive a crash goes through
:mod:`repro.durable`; the crash-point enumeration in
tests/service/test_crash_points.py is complete only while that holds.
"""

import ast
from pathlib import Path

import repro
from repro import durable

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

#: ``(module, function)`` calls that make data durable.
DURABLE_CALLS = {("os", "fsync"), ("os", "replace"), ("tempfile", "mkstemp")}


def _durable_call_sites():
    sites = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path.name == "durable.py" and path.parent == PACKAGE_ROOT:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
            ):
                names.append((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.extend((node.module, alias.name) for alias in node.names)
            for name in names:
                if name in DURABLE_CALLS:
                    where = path.relative_to(PACKAGE_ROOT.parent)
                    sites.append(f"{where}:{node.lineno} {'.'.join(name)}")
    return sites


def test_only_the_durable_module_makes_data_durable():
    assert _durable_call_sites() == []


def test_append_adds_whole_records(tmp_path):
    path = str(tmp_path / "log.jsonl")
    durable.append(path, b'{"a": 1}\n')
    durable.append(path, b'{"b": 2}\n')
    assert durable.load_jsonl_tolerant(path) == ([{"a": 1}, {"b": 2}], 0)


def test_append_after_a_torn_record_starts_a_new_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": ')  # a crash tore the second record
    durable.append(str(path), b'{"c": 3}\n')
    assert durable.load_jsonl_tolerant(str(path)) == ([{"a": 1}, {"c": 3}], 1)


def test_replace_swaps_the_bytes_and_leaves_no_temp_file(tmp_path):
    path = str(tmp_path / "payload.json")
    durable.replace(path, b"old")
    durable.replace(path, b"new")
    assert (tmp_path / "payload.json").read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["payload.json"]


def test_replace_overwrites_a_temp_file_a_crash_left(tmp_path):
    path = str(tmp_path / "payload.json")
    Path(durable.temp_path(path)).write_bytes(b"half a payl")
    durable.replace(path, b"whole")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["payload.json"]
    assert (tmp_path / "payload.json").read_bytes() == b"whole"
