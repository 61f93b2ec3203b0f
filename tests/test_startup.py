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
from helpers import FIXTURES_DIR, bundle_paths

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


def test_dir_in_process_is_sorted_and_lists_every_exported_name():
    names = dir(dla)
    assert names == sorted(names) and [name for name in dla.__all__ if name not in names] == []


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
    (lambda lin, interp: ["range", lin, "--captures", lin.parent / "captures"], 0),
    (lambda lin, interp: ["assess", lin, interp], 3),
], ids=["version", "range", "assess"])
def test_process_exits_without_click_dataclasses_inspect_or_tempfile(command, exit_code):
    """The ``dla`` process parses its command line with the standard library,
    its values keep their own field table, and only a store write makes a
    temp file: at exit, no ``click``, ``dataclasses``, ``inspect`` or
    ``tempfile`` module has been imported. The interpreter runs with ``-S``,
    since a site hook may import any of them first."""
    probe = ("import atexit, json, sys\n"
             "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('click', 'dataclasses', 'inspect', 'tempfile'))),"
             " file=sys.stderr))\n"
             "from dla.cli import main\n"
             "main()\n")
    argv = [str(a) for a in command(*bundle_paths("cifar-10"))]
    run = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
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
                  for name, method in vars(cls).items()
                  if getattr(method, "__code__", None) is not None
                  and method.__code__.co_filename.startswith("<codec "))
"""


def test_a_field_type_with_no_codec_is_refused_on_first_decode():
    """A fresh interpreter, so the class does not join this process's document types."""
    code = """
from __future__ import annotations
import json
from dla.model import Document
class Reading(Document, path="reading"):
    value: float
try:
    Reading.from_dict({"value": 1.5})
except TypeError as exc:
    print(json.dumps(str(exc)))
"""
    message, _ = fresh(code)
    assert message == "no document codec for type <class 'float'>"


def test_a_decode_hook_reads_a_scalar_field_in_both_tiers():
    """A hook decodes its field even when the value already has the field's type."""
    code = """
from __future__ import annotations
import json
from dla.model import Document, _codec, codec_field
class Shout(Document, path="shout"):
    word: str = codec_field(decode=lambda value, path: value.upper())
interpreted, compiled = _codec(Shout, hot=0)
print(json.dumps([decode({"word": "hi"}, "shout", True).word
                  for decode in (interpreted["_decode"], compiled())]))
"""
    words, _ = fresh(code)
    assert words == ["HI", "HI"]


def test_import_compiles_no_method_of_a_value_class():
    """Importing compiles nothing; a decoder is compiled once its class has
    decoded ``_HOT`` documents."""
    code = COMPILED + """
import dla.engine, dla.store
before = compiled()
from dla.model import _HOT, Digest
for _ in range(_HOT):
    Digest.from_dict({"algorithm": "sha256", "hex": "00"})
print(json.dumps([before, compiled()]))
"""
    (before, after), _ = fresh(code)
    assert before == []
    assert after == ["Digest._decode"]


def test_every_value_class_compiles_its_init():
    """Every value class in ``dla`` compiles its ``__init__``, and only
    ``ProvenanceRecord``, whose required fields follow defaulted ones, takes
    its fields as keywords only. Annotations are strings in every dla
    module, so they are here too."""
    code = "from __future__ import annotations\n" + COMPILED + """
import dla.assessment, dla.catalog, dla.cli, dla.engine, dla.lineage, dla.store
def init_error(cls):
    try:
        cls.__init__
    except SyntaxError as exc:
        return f"{cls.__name__}: {exc.msg}"
classes = list(walk(Value))
failed = [error for error in map(init_error, classes) if error]
inits = [f"{cls.__name__}.__init__" for cls in classes]
keyword_only = sorted(cls.__name__ for cls in classes if cls.__init__.__code__.co_kwonlyargcount)
print(json.dumps([failed, sorted(set(inits) - set(compiled())), keyword_only]))
"""
    (failed, uncompiled, keyword_only), _ = fresh(code)
    assert (failed, uncompiled, keyword_only) == ([], [], ["ProvenanceRecord"])


def test_a_required_field_after_a_defaulted_one_is_keyword_only():
    """The field order alone makes a class's fields keyword-only: it builds
    from keywords and refuses positional arguments."""
    code = """
from __future__ import annotations
import json
from dla.model import Value
class Misordered(Value):
    defaulted: int = 0
    required: int
built = Misordered(required=1)
try:
    Misordered(0, 1)
    refused = None
except TypeError as exc:
    refused = str(exc)
print(json.dumps([repr(built), refused]))
"""
    (built, refused), _ = fresh(code)
    assert built == "Misordered(defaulted=0, required=1)"
    assert refused.endswith("takes 1 positional argument but 3 were given")


def test_looking_a_method_up_through_a_base_leaves_its_subclasses_unchanged():
    """Each value class holds its own methods: one made for a base on a
    lookup through it has no fields, and no subclass takes it."""
    code = """
import json
from dla.model import Digest, Document, Value
for base in (Value, Document):
    for name in ("__init__", "_encode", "_decode"):
        getattr(base, name, None)
digest = Digest("sha256", "00")
print(json.dumps([digest.to_dict(), repr(Digest.from_dict(digest.to_dict()))]))
"""
    shown, _ = fresh(code)
    assert shown == [{"algorithm": "sha256", "hex": "00"}, "Digest(algorithm='sha256', hex='00')"]


# Runs one command in process, then prints what COMPILED lists.
COMPILED_BY_COMMAND = COMPILED + """
import contextlib, io, sys
from dla.cli import _run
with contextlib.redirect_stdout(io.StringIO()):
    try:
        _run(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(compiled()))
"""


def test_a_fixture_assess_runs_every_codec_interpreted():
    """No class of a shipped bundle decodes or writes ``_HOT`` documents, so
    a fixture ``assess`` compiles ``__init__`` methods only."""
    compiled, _ = fresh(COMPILED_BY_COMMAND, "assess", *map(str, bundle_paths("cifar-10")))
    assert compiled and all(name.endswith(".__init__") for name in compiled)


@pytest.fixture
def wide_300(tmp_path, monkeypatch):
    """The bench's 300-node ``wide`` bundle, seed 7."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    (bundle,) = workloads.make_bundles("wide", 7, tmp_path, FIXTURES_DIR, nodes=300)
    return bundle


def test_a_wide_assess_compiles_the_decoders_of_its_hot_classes(wide_300):
    args = ("assess", str(wide_300.lineage), str(wide_300.interpretations))
    compiled, _ = fresh(COMPILED_BY_COMMAND, *args)
    hot = ("ProvenanceRecord", "_InterpretationDocument", "RightsVector", "LicenseMetadata")
    assert {f"{name}._decode" for name in hot} <= set(compiled)


def test_a_wide_json_lineage_compiles_its_record_decoder_but_no_encoder(wide_300):
    """Only decoding has a compiled tier: a JSON ``lineage`` reads and writes
    each of 300 records, more than ``_HOT``, and compiles no ``_encode``."""
    compiled, _ = fresh(COMPILED_BY_COMMAND, "--format", "json", "lineage", str(wide_300.lineage))
    assert "ProvenanceRecord._decode" in compiled
    assert [name for name in compiled if name.endswith("._encode")] == []


def test_first_lenient_decode_warns_at_its_caller():
    """The first decode of a class builds its interpreted decoder, and its
    unknown-field warning still names the line that called ``from_dict``."""
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
