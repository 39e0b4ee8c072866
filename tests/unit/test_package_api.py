"""Tests for the top-level package API and exports."""

import ast
import importlib
import pathlib
import re

import pytest


class TestTopLevel:
    def test_version(self):
        import repro
        assert repro.__version__

    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        # The flow advertised in repro.__doc__ must actually run.
        from repro.core import TimberDesign, TimberStyle
        from repro.processor import MEDIUM_PERFORMANCE, generate_processor

        graph = generate_processor(MEDIUM_PERFORMANCE, num_stages=3,
                                   ffs_per_stage=40, seed=1)
        design = TimberDesign(graph=graph, style=TimberStyle.FLIP_FLOP,
                              percent_checking=30.0)
        summary = design.summary()
        assert summary["margin_percent"] == pytest.approx(10.0)


SUBPACKAGES = [
    "repro.circuit", "repro.sim", "repro.sequential", "repro.timing",
    "repro.variability", "repro.pipeline", "repro.core", "repro.power",
    "repro.processor", "repro.baselines", "repro.analysis",
]


class TestSubpackageExports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert getattr(module, name) is not None, (
                f"{module_name}.{name} exported but missing")

    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip()


#: Every ``REPRO_*`` environment switch the package reads.  A new switch
#: has to be added here on purpose.
ENV_SWITCHES = {"REPRO_SCALAR_KERNELS", "REPRO_OBS",
                "REPRO_WARM_CACHE_SIZE", "REPRO_CACHE_DIR"}


class TestEnvironmentSwitches:
    def test_repro_switches_are_pinned(self):
        import repro

        names = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)):
                    names.add(node.value)
        assert names == ENV_SWITCHES
