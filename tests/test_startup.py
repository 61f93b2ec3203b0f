"""Which ``dla`` modules each start-up loads: ``import dla`` loads only the
version, and a command loads only the layers it runs. Module sets, not
timings; each case runs in a fresh interpreter. Also the package's lazy
exports: every name in ``__all__`` resolves, on first access, to its home
module's object."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

import dla
from helpers import bundle_paths

SRC = Path(__file__).resolve().parents[1] / "src"
# Runs a command through the CLI's entry point, then prints its exit code and
# the dla modules the process holds.
PROBE = """
import json, sys
from dla.cli import _run
code = 0
try:
    _run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m == "dla" or m.startswith("dla."))]))
"""
LAYERS = {"dla.store", "dla.engine", "dla.catalog", "dla.assessment"}


def fresh(code: str, *args: str) -> tuple[Any, str]:
    """What ``code`` prints last, as JSON, and its stderr, run with ``args``
    in a fresh interpreter that imports ``dla`` from this checkout."""
    run = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return json.loads(run.stdout.splitlines()[-1]), run.stderr


def command(*args: str) -> tuple[int, set[str], str]:
    """A ``dla`` command's exit code, the dla modules it loaded, and its stderr."""
    (code, modules), stderr = fresh(PROBE, *args)
    return code, set(modules), stderr


def test_import_dla_loads_only_the_version():
    modules, _ = fresh('import json, sys, dla; print(json.dumps(list(sys.modules)))')
    assert {m for m in modules if m.startswith("dla")} == {"dla", "dla.version"}


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from dla import *", namespace)
    assert [name for name in dla.__all__ if name not in namespace] == []


@pytest.mark.parametrize("name", sorted(set(dla.__all__) - {"__version__"}))
def test_each_exported_name_is_its_home_modules_object(name):
    value = getattr(dla, name)
    home = importlib.import_module(getattr(value, "__module__", "dla.model"))  # constants: model
    assert home.__name__.startswith("dla.") and getattr(home, name) is value
    assert vars(dla)[name] is value  # kept, so the next access does not import


def test_dir_lists_every_exported_name_before_any_is_imported():
    names, _ = fresh("import dla, json; print(json.dumps(dir(dla)))")
    assert [name for name in dla.__all__ if name not in names] == []


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'dla' has no attribute 'no_such_name'"):
        dla.no_such_name  # noqa: B018


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_layer(flag):
    code, modules, _ = command(flag)
    assert code == 0
    assert modules.isdisjoint(LAYERS | {"dla.lineage", "dla.model"})


def test_range_loads_no_store_engine_catalog_or_assessment():
    lineage, _ = bundle_paths("cifar-10")
    code, modules, _ = command("range", str(lineage), "--captures", str(lineage.parent / "captures"))
    assert code == 0 and "dla.lineage" in modules
    assert modules.isdisjoint(LAYERS)


def test_store_hit_does_not_load_the_catalog(tmp_path):
    lineage, interpretations = bundle_paths("cifar-10")
    args = ("--store", str(tmp_path / "store"), "assess", str(lineage), str(interpretations))
    (_, miss, _), (code, hit, stderr) = command(*args), command(*args)
    assert "dla.catalog" in miss
    assert code == 3 and "(cached analysis)" in stderr
    assert "dla.store" in hit and "dla.catalog" not in hit


@pytest.mark.parametrize("command, exit_code", [
    (lambda lin, interp: ["--version"], 0),
    (lambda lin, interp: ["assess", lin, interp], 3),
], ids=["version", "assess"])
def test_process_entry_imports_no_click(command, exit_code):
    """The ``dla`` process parses its command line with the standard library:
    at exit, no ``click`` module has been imported."""
    probe = ("import atexit, json, sys\n"
             "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'click')), file=sys.stderr))\n"
             "from dla.cli import main\n"
             "main()\n")
    argv = [str(a) for a in command(*bundle_paths("cifar-10"))]
    env = {name: value for name, value in os.environ.items() if name != "DLA_STORE"}
    run = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         env={**env, "PYTHONPATH": str(SRC)}, timeout=120)
    assert (run.returncode, run.stderr) == (exit_code, "[]\n")


# Every compiled method of every value class in dla.model, by class and name.
COMPILED = """
import json
from dla.model import Value
def walk(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from walk(sub)
def compiled():
    return sorted(f"{cls.__name__}.{name}" for cls in walk(Value)
                  for name in ("__init__", "_encode", "_decode")
                  if getattr(cls.__dict__.get(name), "__code__", None) is not None
                  and cls.__dict__[name].__code__.co_filename.startswith("<codec "))
"""


def test_import_compiles_no_method_of_a_value_class():
    code = COMPILED + """
import dla.engine, dla.store
before = compiled()
from dla.model import Digest
Digest.from_dict({"algorithm": "sha256", "hex": "00"})
print(json.dumps([before, compiled()]))
"""
    (before, after), _ = fresh(code)
    assert before == []
    assert after == ["Digest._decode"]


def test_first_lenient_decode_warns_at_its_caller():
    """The first decode of a class compiles its decoder, and its unknown-field
    warning still names the line that called ``from_dict``."""
    code = """
import json, warnings
from dla.model import Digest
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    Digest.from_dict({"algorithm": "sha256", "hex": "00", "bonus": 1}, strict=False)
    Digest.from_dict({"algorithm": "sha256", "hex": "00", "bonus": 1}, strict=False)
print(json.dumps([[w.filename, w.lineno, str(w.message)] for w in caught]))
"""
    caught, _ = fresh(code)
    message = "digest: ignoring unknown fields ['bonus']"
    assert caught == [["<string>", 6, message], ["<string>", 7, message]]
