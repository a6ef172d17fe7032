"""What each entry point imports, pinned as an upper bound.

Package exports resolve on first access (``repro._lazy``), so an entry
point loads only the modules it runs.  Each entry below is imported in
a fresh interpreter, which reports the ``repro`` modules it loaded,
their source lines, and which of a few heavy modules it pulled in.
These counts are exact: they do not depend on the host, its speed or
the hash seed, so they hold a start-up change to account where wall
times cannot.

A change that lowers a count lowers its pin; one that raises a count
says why.  The commands that need no scheduling (``--help``, ``check``,
``info``, ``serve``, ``jobs`` and the ``--server`` thin client) also
run in an interpreter that refuses to import numpy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGE_ROOT = Path(SRC) / "repro"

#: Entry -> (code run after ``import repro``, max modules, max lines).
PINS = {
    "import": ("", 2, 155),
    "cli": ("import repro.cli", 6, 1995),
    "load_problem": ("from repro.api import load_problem", 17, 2422),
    "periods": ("import repro.core.periods", 15, 1842),
    "preflight": ("import repro.validation.preflight", 19, 3046),
    "service": (
        "from repro.service import LocalSession\nLocalSession(sys.argv[1])",
        13,
        2531,
    ),
}

#: Entry -> modules it must not load.
ABSENT = {
    "import": ("numpy", "repro.core", "repro.obs"),
    "cli": (
        "numpy",
        "repro.api",
        "repro.core",
        "repro.core.scheduler",
        "repro.parallel.engine",
        "repro.analysis.static",
        "repro.analysis.absint",
        "repro.sim",
        "repro.rtl",
        "repro.service",
        "concurrent.futures.process",
        "http.server",
    ),
    "load_problem": ("numpy", "repro.core.scheduler", "repro.scheduling"),
    "periods": ("numpy",),
    "preflight": ("numpy",),
    "service": ("numpy", "repro.core.scheduler"),
}

PROBE = """import json, sys
import repro
{entry}
names = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
lines = 0
for name in names:
    with open(sys.modules[name].__file__, encoding="utf-8") as handle:
        lines += len(handle.read().splitlines())
print(json.dumps({{"modules": names, "lines": lines, "loaded": sorted(sys.modules)}}))
"""


def _run_probe(code, *argv):
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def _surface(entry, tmp_path):
    return _run_probe(PROBE.format(entry=entry), str(tmp_path / "state"))


@pytest.mark.parametrize("name", sorted(PINS))
def test_entry_point_import_surface_is_bounded(name, tmp_path):
    entry, max_modules, max_lines = PINS[name]
    surface = _surface(entry, tmp_path)
    assert len(surface["modules"]) <= max_modules, surface["modules"]
    assert surface["lines"] <= max_lines
    loaded = set(surface["loaded"])
    assert [module for module in ABSENT[name] if module in loaded] == []


def _package_table_imports():
    """``from <package> import <export>`` sites inside ``src/repro``.

    A name taken from a package ``__init__`` rather than from its
    defining module goes through the lazy ``__getattr__`` at import time
    and reaches type checkers as ``Any``.  Importing a submodule itself
    (``from ..obs import counters``) is fine.
    """
    sites = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                base = parts[: len(parts) - node.level]
                target = base + (node.module.split(".") if node.module else [])
            else:
                target = node.module.split(".")
            folder = Path(SRC, *target)
            if not (folder / "__init__.py").exists():
                continue
            for alias in node.names:
                if not (folder / f"{alias.name}.py").exists() and not (
                    folder / alias.name / "__init__.py"
                ).exists():
                    where = path.relative_to(SRC)
                    sites.append(f"{where}:{node.lineno} {alias.name}")
    return sites


def test_internal_code_imports_from_defining_modules():
    assert _package_table_imports() == []


#: Runs CLI commands in an interpreter that refuses to import numpy.
#: ``serve`` binds port 0; its ``serve_forever`` returns at once, so the
#: command goes straight to its shutdown.
NO_NUMPY_PROBE = """import contextlib, io, json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is refused in this probe")
        return None

sys.meta_path.insert(0, RefuseNumpy())
from repro.cli import main
from repro.service.server import ServiceServer

ServiceServer.serve_forever = lambda self: None
example, state, missing = sys.argv[1:]
commands = {
    "help": ["--help"],
    "check": ["check", example],
    "info": ["info", example],
    "serve": ["serve", "--state", state, "--address", "127.0.0.1:0"],
    "jobs": ["jobs", "--gc", "--state-dir", state, "--max-cache-bytes", "0"],
    "remote": ["schedule", example, "--server", missing],
}
results = {}
for name, argv in commands.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results[name] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
print(json.dumps(results))
"""


def test_argparse_time_commands_run_without_numpy(tmp_path):
    example = Path(SRC).parent / "examples" / "paper_system.sys"
    results = _run_probe(
        NO_NUMPY_PROBE,
        str(example),
        str(tmp_path / "state"),
        str(tmp_path / "no-daemon.sock"),
    )
    for name in ("help", "check", "info", "serve", "jobs"):
        assert results[name]["code"] == 0, results[name]
    address = results["serve"]["stdout"].split("listening on ", 1)[1].split()[0]
    assert int(address.rsplit(":", 1)[1]) > 0  # port 0 was bound
    remote = results["remote"]
    assert remote["code"] == 2
    assert remote["stderr"].startswith("error [SERVE]: cannot reach"), remote
