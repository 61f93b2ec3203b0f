"""A file found by listing a directory (a bundle's interpretations, a
``--captures`` directory, the store) is read without blocking: one that is
not a regular file, such as a FIFO, ends the run with exit 64 naming it and
stdout empty, instead of waiting for a writer. A path named on the command
line is read as given, so a pipe from the shell still works."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dla import analysis_key
from dla.errors import InputError
from dla.jsonio import read_listed

from helpers import bundle_paths, child_env, copy_bundle, read_bundle, run_dla

pytestmark = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")

KEY = "a" * 64
dla_child = functools.partial(run_dla, timeout=30)  # a hang fails by its timeout


@pytest.fixture
def cifar(tmp_path: Path) -> Path:
    return copy_bundle("cifar-10", tmp_path).lineage.parent


def assert_names_fifo(run: subprocess.CompletedProcess, message: str) -> None:
    assert (run.returncode, run.stdout) == (64, b"")
    assert run.stderr.decode() == f"error: {message}: not a regular file\n"


def test_assess_with_a_fifo_among_the_interpretations_exits_64(cifar):
    fifo = cifar / "interpretations" / "zz.json"
    os.mkfifo(fifo)
    run = dla_child("assess", cifar / "lineage.json", cifar / "interpretations")
    assert_names_fifo(run, str(fifo))


def test_range_with_a_fifo_among_the_captures_exits_64(cifar):
    fifo = cifar / "captures" / "zz.json"
    os.mkfifo(fifo)
    run = dla_child("range", cifar / "lineage.json", "--captures", cifar / "captures")
    assert_names_fifo(run, str(fifo))


def test_store_ls_with_a_fifo_blob_exits_64(tmp_path):
    os.mkfifo(tmp_path / f"{KEY}.json")
    run = dla_child("--store", tmp_path, "store", "ls")
    assert_names_fifo(run, f"store entry {KEY!r} is corrupt: invalid blob: {tmp_path / KEY}.json")


def test_assess_whose_store_blob_is_a_fifo_exits_64(cifar, tmp_path):
    key = analysis_key(read_bundle("cifar-10").root)
    store = tmp_path / "store"
    store.mkdir()
    os.mkfifo(store / f"{key}.json")
    run = dla_child("--store", store, "assess", cifar / "lineage.json", cifar / "interpretations")
    assert_names_fifo(run, f"store entry {key!r} is corrupt: invalid blob: {store / key}.json")


def test_a_lineage_named_on_the_command_line_may_be_a_pipe():
    """``dla assess <(cat lineage.json) DIR``: the shell passes a pipe as
    /dev/fd/N, written here only after dla has had time to open it."""
    if not Path("/dev/fd").is_dir():
        pytest.skip("no /dev/fd")
    lineage, interpretations = bundle_paths("cifar-10")
    expected = dla_child("assess", lineage, interpretations)
    read_end, write_end = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "dla", "assess", f"/dev/fd/{read_end}", str(interpretations)],
            pass_fds=(read_end,), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    finally:
        os.close(read_end)
    try:
        time.sleep(1)
        os.write(write_end, lineage.read_bytes())
    finally:
        os.close(write_end)
    stdout, stderr = child.communicate(timeout=30)
    assert (child.returncode, stdout, stderr) == (3, expected.stdout, b"")


class TestReadListed:
    """:func:`dla.jsonio.read_listed` in this process: each file that is not
    regular fails at once, whatever its writer does."""

    def test_a_fifo_whose_writer_holds_it_open(self, tmp_path):
        os.mkfifo(tmp_path / "f.json")
        keep = os.open(tmp_path / "f.json", os.O_RDONLY | os.O_NONBLOCK)
        writer = os.open(tmp_path / "f.json", os.O_WRONLY)
        try:
            with pytest.raises(InputError, match="f.json: not a regular file$"):
                read_listed(tmp_path, "f.json")
            os.write(writer, b"{}")  # some bytes, and the writer still open
            with pytest.raises(InputError, match="f.json: not a regular file$"):
                read_listed(tmp_path, "f.json")
        finally:
            os.close(writer)
            os.close(keep)

    @pytest.mark.parametrize("device", ["/dev/null", "/dev/zero"])
    def test_a_device(self, tmp_path, device):
        if not Path(device).exists():
            pytest.skip(f"no {device}")
        (tmp_path / "d.json").symlink_to(device)
        with pytest.raises(InputError, match="d.json: not a regular file$"):
            read_listed(tmp_path, "d.json")
