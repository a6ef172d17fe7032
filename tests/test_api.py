"""Public API surface tests: everything advertised is importable and wired."""

import importlib
import os
import subprocess
import sys

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_snippet(self):
        """The README quickstart must work verbatim."""
        from repro import ModuloSystemScheduler
        from repro.workloads import paper_assignment, paper_periods, paper_system

        system, library = paper_system()
        scheduler = ModuloSystemScheduler(library)
        assignment = paper_assignment(library)
        # Keep the test fast: only the two small diffeq processes.
        small = repro.SystemSpec(name="mini")
        for name in ("p4", "p5"):
            small.add_process(system.process(name))
        small_assignment = repro.ResourceAssignment(library)
        small_assignment.make_global("multiplier", ["p4", "p5"])
        result = scheduler.schedule(
            small, small_assignment, repro.PeriodAssignment({"multiplier": 15})
        )
        assert "multiplier" in result.summary()

    def test_exceptions_form_hierarchy(self):
        for name in (
            "GraphError",
            "SpecificationError",
            "ResourceError",
            "InfeasibleError",
            "PeriodError",
            "SchedulingError",
            "VerificationError",
            "BindingError",
            "SimulationError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)


def _table_packages():
    """Every ``repro`` package that declares an export table."""
    root = os.path.dirname(os.path.abspath(repro.__file__))
    names = []
    for folder, _dirs, files in os.walk(root):
        if "__init__.py" in files:
            relative = os.path.relpath(folder, os.path.dirname(root))
            names.append(relative.replace(os.sep, "."))
    packages = [importlib.import_module(name) for name in sorted(names)]
    return [package for package in packages if hasattr(package, "_EXPORTS")]


TABLE_PACKAGES = _table_packages()


class TestLazyExports:
    def test_every_reexporting_package_has_a_table(self):
        assert len(TABLE_PACKAGES) == 16

    @pytest.mark.parametrize("package", TABLE_PACKAGES, ids=lambda p: p.__name__)
    def test_exports_are_the_defining_modules_objects(self, package):
        exported = set()
        for submodule, names in package._EXPORTS.items():
            module = importlib.import_module(f"{package.__name__}.{submodule}")
            for name in names:
                assert getattr(package, name) is getattr(module, name), name
            exported.update(names)
        assert exported <= set(package.__all__)
        for name in set(package.__all__) - exported:
            assert getattr(package, name) is sys.modules[f"{package.__name__}.{name}"]

    @pytest.mark.parametrize("package", TABLE_PACKAGES, ids=lambda p: p.__name__)
    def test_dir_and_star_import_cover_all(self, package):
        assert set(package.__all__) <= set(dir(package))
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    @pytest.mark.parametrize("package", TABLE_PACKAGES, ids=lambda p: p.__name__)
    def test_unknown_name_is_an_attribute_error(self, package):
        with pytest.raises(AttributeError) as caught:
            package.no_such_export  # noqa: B018
        assert not isinstance(caught.value, ImportError)
        assert not hasattr(package, "no_such_export")

    def test_submodule_imports_do_not_shadow_same_named_exports(self):
        """``repro.core.verify`` names a function and a module; importing
        the module first must leave the package attribute the function."""
        code = (
            "import repro.core.verify, repro.core.auto_assignment\n"
            "import repro.workloads.paper_system, repro.workloads.random_dfg\n"
            "import repro.core, repro.workloads\n"
            "from repro.core.verify import verify\n"
            "from repro.workloads.paper_system import paper_system\n"
            "assert repro.core.verify is verify\n"
            "assert repro.workloads.paper_system is paper_system\n"
            "assert callable(repro.core.auto_assignment)\n"
            "assert callable(repro.workloads.random_dfg)\n"
        )
        _run_fresh(code)

    def test_subpackages_resolve_as_attributes(self):
        """``import repro`` loads no subpackage, yet ``repro.analysis.x``
        still works, as it did when every package imported eagerly."""
        code = (
            "import sys\n"
            "import repro\n"
            "assert 'repro.analysis' not in sys.modules\n"
            "from repro.analysis.attribution import attribute\n"
            "assert repro.analysis.attribute is attribute\n"
            "assert repro.ir.systemio is sys.modules['repro.ir.systemio']\n"
        )
        _run_fresh(code)


def _run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
