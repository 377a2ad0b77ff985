"""Import hygiene: light commands start without NumPy, package exports
resolve on first use, and every module imports on its own.

Nothing here is timed.  A command's start-up cost is checked through
what a fresh interpreter has loaded once it exits, which is the same on
every host; the interpreter has to be fresh because this one already
holds NumPy and every layer."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.results import ResultStore
from repro.service import CampaignService, serving
from repro.suite import SuiteRunner

from test_suite import tiny_suite

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: what a light command may not load: NumPy and the layers built on the
#: lane engine
HEAVY = (
    "numpy",
    "repro.faultsim",
    "repro.circuits.parallel",
    "repro.scenarios.engine",
    "repro.suite.runner",
)

#: what ``--version``, ``results export``, ``store stats`` and ``submit``
#: may not load either: the design, scenario and suite layers that only
#: other commands' parsers and handlers need
DESIGN_LAYERS = (
    "repro.core",
    "repro.design",
    "repro.scenarios",
    "repro.memory",
    "repro.suite",
)

#: ``python -m repro ARGS`` that reports, as the last line of stderr,
#: its exit code and every module it loaded
PROBE = """\
import json, runpy, sys
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}),
      file=sys.stderr)
"""


def fresh_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_URL", None)
    return subprocess.run(
        [sys.executable, *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def run_light(cwd, *argv, forbidden=HEAVY):
    """Run ``repro ARGV`` in a fresh interpreter; returns its stdout
    after checking that it exited 0 and loaded no ``forbidden`` module
    or package."""
    done = fresh_python(["-c", PROBE, *argv], cwd)
    status = json.loads(done.stderr.splitlines()[-1])
    assert status["exit"] == 0, done.stderr
    heavy = [
        name
        for name in status["modules"]
        if any(name == h or name.startswith(h + ".") for h in forbidden)
    ]
    assert not heavy, f"`repro {' '.join(argv)}` loaded {heavy}"
    return done.stdout


def run_lightest(cwd, *argv):
    """:func:`run_light` that also refuses the :data:`DESIGN_LAYERS`."""
    return run_light(cwd, *argv, forbidden=HEAVY + DESIGN_LAYERS)


# -- (a) light commands start without NumPy ----------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("imports") / "store")
    SuiteRunner(store=root).run(tiny_suite())
    return root


class TestLightCommands:
    def test_version(self, tmp_path):
        assert run_lightest(tmp_path, "--version").startswith("repro ")

    def test_store_commands(self, tmp_path, store):
        key = ResultStore(store).keys()[0]
        out = tmp_path / "export.jsonl"
        listing = run_light(tmp_path, "results", "ls", "--store", store)
        assert key[:12] in listing
        run_lightest(
            tmp_path, "results", "export", key[:12], "--store", store,
            "--out", str(out),
        )
        assert out.read_text().strip()
        assert "campaigns" in run_lightest(
            tmp_path, "store", "stats", "--store", store
        )
        assert "store ok" in run_light(
            tmp_path, "store", "verify", "--store", store
        )

    def test_service_client_commands(self, tmp_path):
        root = str(tmp_path / "served")
        with CampaignService(root, workers=1) as service:
            with serving(service) as url:
                job = json.loads(
                    run_lightest(
                        tmp_path, "submit", "smoke", "--wait", "--json",
                        "--quiet", "--url", url,
                    )
                )
                assert job["state"] == "done"
                assert job["job_id"] in run_light(
                    tmp_path, "jobs", "--url", url
                )
                assert "done" in run_light(
                    tmp_path, "jobs", job["job_id"], "--url", url
                )
                fetched = json.loads(
                    run_light(
                        tmp_path, "fetch", job["result_keys"][0],
                        "--url", url,
                    )
                )
                assert fetched["key"] == job["result_keys"][0]


# -- (b) package exports -----------------------------------------------------


PACKAGES = ["repro"] + sorted(
    name
    for _, name, is_package in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    )
    if is_package
)


def declared_imports(package):
    """``{name: module}`` for every name the package's ``__init__``
    imports from a ``repro`` module, eagerly or under
    ``TYPE_CHECKING``."""
    tree = ast.parse(Path(package.__file__).read_text())
    return {
        alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module.startswith("repro.")
        and node.module != "repro._lazy"
        for alias in node.names
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_to_their_defining_module(name):
    package = importlib.import_module(name)
    declared = declared_imports(package)
    # what mypy sees (the imports) is what __all__ exports
    assert set(declared) == set(package.__all__) - {"__version__"}
    for export in package.__all__:
        value = getattr(package, export)
        if export in declared:
            origin = importlib.import_module(declared[export])
            assert value is getattr(origin, export), export
        assert export in dir(package), export
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_names_are_attribute_errors(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_version_is_a_static_literal():
    # pyproject reads repro.__version__ without importing the package
    tree = ast.parse(Path(repro.__file__).read_text())
    literals = [
        node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["__version__"]
        and isinstance(node.value, ast.Constant)
    ]
    assert literals == [repro.__version__]


# -- (c) every module imports on its own -------------------------------------


#: imports each module named in argv[1] (a JSON list) as the first
#: ``repro`` import after dropping every ``repro`` module, and prints
#: ``{module: {"loaded": [...]} | {"error": traceback}}``
ISOLATED = """\
import importlib, json, sys, traceback

def repro_modules():
    return [m for m in sys.modules if m == "repro" or m.startswith("repro.")]

outcome = {}
for name in json.loads(sys.argv[1]):
    for loaded in repro_modules():
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        outcome[name] = {"error": traceback.format_exc()}
    else:
        outcome[name] = {"loaded": sorted(repro_modules())}
print(json.dumps(outcome))
"""

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.fixture(scope="module")
def isolated(tmp_path_factory):
    done = fresh_python(
        ["-c", ISOLATED, json.dumps(["repro"] + MODULES)],
        tmp_path_factory.mktemp("isolated"),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_module_imports_first(isolated):
    # eager package __init__s hid two cycles: decoder.analysis ->
    # core/__init__ -> core.deterministic -> decoder.analysis, and
    # rom.nor_matrix -> core/__init__ -> core.scheme -> rom.nor_matrix
    errors = {
        name: result["error"]
        for name, result in isolated.items()
        if "error" in result
    }
    assert not errors, "\n".join(errors.values())


@pytest.mark.parametrize(
    "name", [p for p in PACKAGES if p != "repro.analysis"]
)
def test_importing_a_package_runs_none_of_its_modules(isolated, name):
    # repro.analysis stays eager: its rule modules register on import
    parents = name.split(".")
    expected = {
        ".".join(parents[: i + 1]) for i in range(len(parents))
    } | {"repro._lazy"}
    assert set(isolated[name]["loaded"]) == expected
