"""Import layering: the digital path does not load the analog stack.

The logic half of the pipeline (circuits, logic, atpg, the logic fault
universes, campaign and service) runs without the TIG-SiNWFET compact
model, the SPICE solver or TCAD-lite, and so without scipy.  These
checks keep it that way:

* in a fresh interpreter, the digital entry points leave the analog
  modules unimported, and the campaign runner leaves the service
  layer unimported;
* statically, no module under ``logic/``, ``atpg/``, ``circuits/`` or
  ``campaign/`` imports the analog packages, the service layer or the
  analysis layer at module level (function-local imports, such as the
  CLI's ``serve`` verb, are allowed);
* every public name of the lazily initialised packages still resolves;
* the slow reference implementations stay test oracles: no module under
  ``src/repro`` imports ``oracles`` or ``tests``, and the removed PODEM
  engine switch stays removed from the library, the CLI and the job
  service.
"""

from __future__ import annotations

import ast
import importlib
import os
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


def _fresh_modules(*imports: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``imports``."""
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in imports)
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
    if package != "repro.faults":
        # Resolving the analog packages' names imports the compact
        # model, and so scipy, which the digital-path CI job lacks.
        pytest.importorskip("scipy", reason="the analog stack needs scipy")
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
