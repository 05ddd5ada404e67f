"""Public API surface checks: exports, docstrings, version."""

import importlib
import inspect

import pytest

import repro
from suite_helpers import run_fresh_python

SUBPACKAGES = ["repro.arch", "repro.accel", "repro.cost", "repro.mapping",
               "repro.train", "repro.workloads", "repro.core",
               "repro.experiments", "repro.utils"]
# Facades that resolve their names on first access (repro.utils.lazy).
LAZY_FACADES = ["repro", "repro.core", "repro.core.strategies", "repro.train",
                "repro.workloads"]


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolvable(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, module_name

    def test_public_callables_documented(self):
        """Every public class/function re-exported at top level carries a
        docstring (deliverable (e): doc comments on every public item)."""
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append(name)
        assert not undocumented, undocumented

    @pytest.mark.parametrize("module_name", LAZY_FACADES)
    def test_lazy_facade_names_are_the_defining_objects(self, module_name):
        facade = importlib.import_module(module_name)
        for name in facade.__all__:
            if name == "__version__":
                continue
            defining = importlib.import_module(facade._EXPORTS[name],
                                               module_name)
            assert getattr(facade, name) is getattr(defining, name), name

    @pytest.mark.parametrize("module_name", LAZY_FACADES)
    def test_lazy_facade_unknown_attribute_raises(self, module_name):
        facade = importlib.import_module(module_name)
        with pytest.raises(AttributeError, match="no_such_name"):
            facade.no_such_name

    def test_lazy_facade_star_import(self):
        namespace = {}
        exec("from repro.core import *", namespace)
        assert set(repro.core.__all__) <= set(namespace)

    def test_lazy_facades_fresh_dir_and_submodule_fallback(self):
        """Before any name is resolved, dir() already lists __all__, and
        ``from repro.core import client`` imports the submodule (the
        facade's __getattr__ must refuse the name so the import system
        falls back)."""
        result = run_fresh_python("""
            import sys
            import repro, repro.core, repro.workloads

            for facade in (repro, repro.core, repro.workloads):
                missing = set(facade.__all__) - set(dir(facade))
                assert not missing, (facade.__name__, missing)
            assert "repro.core.client" not in sys.modules
            from repro.core import client
            assert client is sys.modules["repro.core.client"]
        """)
        assert result.returncode == 0, result.stderr

    def test_public_methods_documented(self):
        """Public methods of the main entry-point classes are documented."""
        for cls in (repro.NASAIC, repro.CostModel, repro.RNNController,
                    repro.AccuracySurrogate, repro.MappingProblem):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    assert inspect.getdoc(member), f"{cls.__name__}.{name}"


class TestLayering:
    """The bottom-up dependency rule from CONTRIBUTING.md."""

    ORDER = {"utils": 0, "arch": 1, "accel": 1, "cost": 2, "mapping": 3,
             "train": 4, "workloads": 4, "core": 5, "experiments": 6}

    def test_no_upward_imports(self):
        import ast
        from pathlib import Path
        src = Path(repro.__file__).parent
        violations = []
        for path in src.rglob("*.py"):
            rel = path.relative_to(src)
            if len(rel.parts) < 2:
                continue  # top-level modules (cli) may import anything
            layer = rel.parts[0]
            if layer not in self.ORDER:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if not node.module or not node.module.startswith("repro."):
                    continue
                target = node.module.split(".")[1]
                if target not in self.ORDER:
                    continue
                if self.ORDER[target] > self.ORDER[layer]:
                    violations.append(f"{rel}: imports {node.module}")
        assert not violations, violations


class TestColdImport:
    def test_cli_import_loads_only_what_commands_run(self):
        """``import repro.cli`` must not load scipy or the serving /
        fuzzing / scenario-generation stack: search and mc never touch
        them, and every cold process would pay for them."""
        unwanted = ["scipy", "asyncio", "repro.core.server",
                    "repro.core.client", "repro.core.differential",
                    "repro.core.faults", "repro.workloads.generator"]
        result = run_fresh_python(f"""
            import sys
            import repro.cli
            print(sorted(set({unwanted!r}) & set(sys.modules)))
        """)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_serve_status_does_not_load_the_daemon(self, tmp_path):
        """``repro serve --status`` only probes a socket; polling it in a
        loop must not pay for asyncio and the daemon each time."""
        result = run_fresh_python(f"""
            import sys
            from repro.cli import main

            assert main(["serve", "--status", "--socket",
                         {str(tmp_path / "nobody.sock")!r}]) == 1
            print(sorted({{"asyncio", "repro.core.server"}}
                         & set(sys.modules)))
        """)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    # Loaded by no cold search or mc: the campaign runner and its pool,
    # the zoo and its regressors, the store, and numpy.ma (np.unique).
    NEVER_IN_A_RUN = ["multiprocessing", "concurrent.futures", "numpy.ma",
                      "repro.core.campaign", "repro.core.strategies.zoo",
                      "repro.train.regressors", "repro.core.store"]

    @pytest.mark.parametrize("argv, also_absent", [
        (["mc", "--workload", "W3", "--runs", "8"],
         ["repro.core.controller", "repro.core.reinforce"]),
        (["search", "--workload", "W1", "--episodes", "1", "--hw-steps",
          "1", "--progress", "0"], []),
    ])
    def test_cold_run_loads_only_what_it_runs(self, argv, also_absent):
        unwanted = self.NEVER_IN_A_RUN + also_absent
        result = run_fresh_python(f"""
            import sys
            from repro.cli import main

            main({argv!r})
            print(sorted(set({unwanted!r}) & set(sys.modules)))
        """)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_package_import_loads_no_multiprocessing(self):
        result = run_fresh_python("""
            import sys
            import repro
            print("multiprocessing" in sys.modules)
        """)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_campaign_help_lists_strategies_without_loading_them(self):
        """``--strategies`` help renders every registered campaign
        strategy from the registry alone, and ``_STRATEGY_CHOICES`` stays
        the live registry view ``tests/test_strategies.py`` relies on."""
        result = run_fresh_python("""
            import contextlib, io, sys
            from repro import cli
            from repro.core.strategies.registry import (
                StrategyNames, strategy_names)

            assert isinstance(cli._STRATEGY_CHOICES, StrategyNames)
            assert cli._STRATEGY_CHOICES == strategy_names(
                campaign_only=True)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \\
                    contextlib.suppress(SystemExit):
                cli.main(["campaign", "--help"])
            help_text = "".join(out.getvalue().split())
            print([name for name in strategy_names(campaign_only=True)
                   if repr(name) not in help_text])
            print(sorted({"repro.core.strategies.zoo", "repro.core.search",
                          "repro.core.evolution"} & set(sys.modules)))
        """)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines() == ["[]", "[]"]
