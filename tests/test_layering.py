"""Import layering: the digital path does not load the analog stack.

The logic half of the pipeline (circuits, logic, atpg, the logic fault
universes, campaign and service) runs without the TIG-SiNWFET compact
model, the SPICE solver or TCAD-lite, and so without scipy.  These
checks keep it that way:

* in a fresh interpreter, the digital entry points leave the analog
  modules unimported, the campaign runner leaves the service layer
  unimported, and a SPICE cell screen loads no scipy (the compact
  model is numpy only);
* statically, no module under ``logic/``, ``atpg/``, ``circuits/`` or
  ``campaign/`` imports the analog packages, the service layer or the
  analysis layer at module level (function-local imports, such as the
  CLI's ``serve`` verb, are allowed);
* every public name of the lazily initialised packages still resolves;
* the slow reference implementations stay test oracles: no module under
  ``src/repro`` imports ``oracles`` or ``tests``, and the removed PODEM
  engine switch stays removed from the library, the CLI and the job
  service;
* no public callable of ``repro.atpg`` takes an ``engine`` or ``mode``
  argument: the batched fault simulator picks its path from the size
  of the problem;
* the analog stack has one engine: no public callable of
  ``repro.spice``, ``repro.gates`` or ``repro.analysis.sweeps`` takes an
  ``engine`` or ``mode`` argument, the scalar Newton methods are gone
  from ``MNASystem`` and the table model from ``repro.device``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the digital path must not load.
ANALOG = (
    "scipy",
    "repro.device",
    "repro.spice",
    "repro.tcad",
    "repro.gates.builder",
    "repro.core.detection",
)

#: Packages whose modules may not import :data:`FORBIDDEN_IMPORTS` at
#: module level.  ``repro.analysis`` sits above all of them (its
#: experiment drivers run campaigns), so it is forbidden too.
DIGITAL_PACKAGES = ("logic", "atpg", "circuits", "campaign")
FORBIDDEN_IMPORTS = (
    "repro.device",
    "repro.spice",
    "repro.tcad",
    "repro.service",
    "repro.analysis",
)


def _fresh_modules(*imports: str, then: str = "") -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``imports`` and the
    statements ``then``."""
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in imports)
        + then
        + "print('\\n'.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


def _under(modules: set[str], prefix: str) -> list[str]:
    return sorted(
        m for m in modules if m == prefix or m.startswith(prefix + ".")
    )


class TestFreshInterpreter:
    def test_digital_entry_points_leave_the_analog_stack_unloaded(self):
        modules = _fresh_modules(
            "repro.campaign.cli", "repro.atpg", "repro.faults",
            "repro.service.api",
        )
        assert "repro.campaign.cli" in modules
        loaded = {p: _under(modules, p) for p in ANALOG}
        assert not any(loaded.values()), loaded

    def test_campaign_runner_does_not_import_the_service_layer(self):
        modules = _fresh_modules("repro.campaign.runner")
        assert "repro.obs" in modules
        assert not _under(modules, "repro.service")

    def test_physical_universes_register_without_the_solver(self):
        modules = _fresh_modules("repro.faults")
        assert "repro.faults.physical" in modules
        assert not any(_under(modules, p) for p in ANALOG)

    def test_cell_screen_loads_no_scipy(self):
        # scipy serves only TCAD-lite and device-free linear solves.
        modules = _fresh_modules(
            "repro.core.detection", "repro.spice",
            then=(
                "from repro.core.detection import screen_cell_faults\n"
                "from repro.faults import circuit_faults_for_cell\n"
                "from repro.gates.library import get_cell\n"
                "cell = get_cell('NAND2')\n"
                "screen_cell_faults(cell, circuit_faults_for_cell(cell)[:1])\n"
            ),
        )
        assert "repro.device.tig_model" in modules
        assert not _under(modules, "scipy")

    def test_obs_imports_only_the_standard_library(self):
        tree = ast.parse((SRC / "repro" / "obs.py").read_text())
        roots = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
        assert roots <= set(sys.stdlib_module_names), roots


def _module_level_imports(tree: ast.Module):
    """``(lineno, module)`` for every import that runs at import time:
    the module body and class bodies, through ``if``/``try``/``with``
    blocks, but not function bodies or ``if TYPE_CHECKING:`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.lineno, node.module
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING",
        ):
            pending.extend(node.orelse)
        else:
            pending.extend(ast.iter_child_nodes(node))


def _digital_sources() -> list[Path]:
    return sorted(
        path
        for package in DIGITAL_PACKAGES
        for path in (SRC / "repro" / package).rglob("*.py")
    )


class TestStaticLayering:
    def test_scan_covers_every_digital_package(self):
        scanned = {p.relative_to(SRC / "repro").parts[0]
                   for p in _digital_sources()}
        assert scanned == set(DIGITAL_PACKAGES)

    @pytest.mark.parametrize(
        "path", _digital_sources(),
        ids=lambda p: str(p.relative_to(SRC / "repro")),
    )
    def test_no_module_level_import_of_analog_or_service(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bad = [
            f"line {lineno}: {module}"
            for lineno, module in _module_level_imports(tree)
            if any(
                module == f or module.startswith(f + ".")
                for f in FORBIDDEN_IMPORTS
            )
        ]
        assert not bad, bad

    def test_scanner_sees_what_it_must(self):
        tree = ast.parse(
            "import repro.spice\n"
            "from repro.device import cache\n"
            "if True:\n"
            "    from repro.tcad import mesh\n"
            "class A:\n"
            "    from repro.service import api\n"
            "if TYPE_CHECKING:\n"
            "    from repro.device.defects import DeviceDefect\n"
            "def f():\n"
            "    from repro.service.api import serve_forever\n"
        )
        found = sorted(module for _, module in _module_level_imports(tree))
        assert found == [
            "repro.device", "repro.service", "repro.spice", "repro.tcad",
        ]


@pytest.mark.parametrize(
    "package",
    ["repro.gates", "repro.core", "repro.device", "repro.analysis",
     "repro.faults"],
)
def test_public_names_resolve(package):
    if package == "repro.analysis":
        # The analysis layer's names reach TCAD-lite, and so scipy,
        # which the digital-path CI job lacks.
        pytest.importorskip("scipy", reason="TCAD-lite needs scipy")
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing
    assert sorted(module.__all__) == sorted(set(module.__all__))


def test_unknown_package_attribute_raises():
    import repro.gates

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.gates.no_such_name


class TestOraclesStayInTests:
    def test_no_library_module_imports_the_test_oracles(self):
        bad = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                bad.extend(
                    f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[0] in ("oracles", "tests")
                )
        assert not bad, bad

    @pytest.mark.parametrize("module", ["repro.atpg", "repro.atpg.podem"])
    def test_serial_checks_and_engine_list_are_gone(self, module):
        names = dir(importlib.import_module(module))
        leftover = [
            n for n in names
            if n.startswith("detects_") or n == "PODEM_ENGINES"
        ]
        assert not leftover, leftover

    def test_cli_has_no_engine_flag(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--engine", "legacy"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert "--engine" in result.stderr

    def test_service_engine_field_is_a_constant(self, tmp_path):
        import threading

        from repro.service.api import (
            ServiceClient,
            ServiceHTTPError,
            create_server,
        )
        from repro.service.jobs import JobManager

        manager = JobManager(tmp_path / "state", job_workers=1).start()
        server = create_server(manager, port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            with pytest.raises(ServiceHTTPError) as err:
                client.submit({"circuits": ["c17"], "engine": "legacy"})
            assert err.value.code == 400
            job = client.submit({
                "circuits": ["c17"], "fault_classes": ["stuck_at"],
                "engine": "compiled",
            })
            assert client.wait(job["id"])["state"] == "done"
            assert client.status(job["id"])["spec"]["engine"] == "compiled"
        finally:
            server.shutdown()
            thread.join(5.0)
            server.server_close()
            manager.stop(drain=False)


def test_circuit_fault_universe_still_registered():
    from repro.circuits import c17
    from repro.faults import get_universe

    universe = get_universe("circuit_fault")
    network = c17()
    sites = universe.enumerate(network)
    assert sites
    assert universe.stats(network).n_faults == len(sites)


#: Modules whose public callables may not take an engine or mode knob:
#: the ATPG layer (one batched fault simulator, one PODEM) and the
#: analog stack.
DIGITAL_API = ("repro.atpg",)
ANALOG_API = ("repro.spice", "repro.gates", "repro.analysis.sweeps")
KNOBS = ("engine", "mode")


def _api_callables(packages):
    """``(qualified name, callable)`` for every public function and class
    defined in ``packages`` (packages with all their submodules), and
    every public method of those classes."""
    modules = []
    for name in packages:
        module = importlib.import_module(name)
        modules.append(module)
        if hasattr(module, "__path__"):
            modules.extend(
                importlib.import_module(info.name)
                for info in pkgutil.iter_modules(module.__path__, name + ".")
            )
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or (
                getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{attr}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{attr}", obj
                for method, fn in inspect.getmembers(obj, inspect.isroutine):
                    if not method.startswith("_"):
                        yield f"{module.__name__}.{attr}.{method}", fn


def _knobs(fn) -> list[str]:
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins without a signature
        return []
    return [name for name in parameters if name in KNOBS]


def test_no_atpg_callable_takes_an_engine_or_mode():
    api = dict(_api_callables(DIGITAL_API))
    # The scan reaches the fault-sim drivers and the ATPG entry points.
    for name in (
        "repro.atpg.fault_sim.stuck_at_detection_words",
        "repro.atpg.fault_sim.parallel_stuck_at_simulation",
        "repro.atpg.fault_sim.polarity_detection_words",
        "repro.atpg.fault_sim.parallel_polarity_simulation",
        "repro.atpg.fault_sim.stuck_open_detection_words",
        "repro.atpg.fault_sim.parallel_stuck_open_simulation",
        "repro.atpg.podem.run_stuck_at_atpg",
        "repro.atpg.polarity_atpg.run_polarity_atpg",
    ):
        assert name in api, name
    # A result record's fields are data, not knobs (``PolarityTest.mode``
    # says whether a test is a voltage or an IDDQ test).
    bad = {
        name: _knobs(fn) for name, fn in api.items()
        if _knobs(fn) and not dataclasses.is_dataclass(fn)
    }
    assert not bad, bad


class TestOneAnalogEngine:
    def test_no_public_callable_takes_an_engine_or_mode(self):
        api = dict(_api_callables(ANALOG_API))
        # The scan reaches the solvers, the characterisation helpers,
        # the sweep and the methods of the result classes.
        for name in (
            "repro.spice.batched.solve_dc_sweep",
            "repro.spice.dc.solve_dc",
            "repro.spice.transient.run_transient",
            "repro.gates.characterize.dc_truth_table",
            "repro.analysis.sweeps.vcut_sweep",
            "repro.spice.mna.MNASystem.linear_solve",
        ):
            assert name in api, name
        bad = {name: _knobs(fn) for name, fn in api.items() if _knobs(fn)}
        assert not bad, bad

    def test_knob_scan_flags_a_knob(self):
        def sweep(circuit, mode="exact", *, engine="batched"):
            return circuit

        assert _knobs(sweep) == ["mode", "engine"]

    def test_scalar_newton_is_gone(self):
        from repro.spice.mna import MNASystem

        for name in ("solve_newton", "solve_dc_continuation"):
            assert not hasattr(MNASystem, name), name

    def test_table_model_is_gone(self):
        import repro.device

        for name in ("TableModel", "cached_table_model"):
            assert name not in repro.device.__all__, name
            assert not hasattr(repro.device, name), name
        with pytest.raises(ImportError):
            importlib.import_module("repro.device.table_model")
