"""Input files and canonical JSON: the readers every input goes through, and
the one rendering of a document as it is written to disk.

This module imports nothing of the domain model, so the command line loads
it without compiling :mod:`dla.model`.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any

from .errors import InputError


def canonical_json(doc: Any) -> str:
    """Render a document dict exactly as it is written to disk."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def read_input(path: Path) -> bytes:
    """The bytes of an input file; raises InputError when it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path: Path, exc: OSError) -> InputError:
    return InputError(path, f"cannot read file: {exc.strerror or exc}")


def read_inputs(directory: Path) -> dict[str, bytes]:
    """The bytes of every ``*.json`` file in a directory, dot files included,
    by file name in name order; raises InputError, naming the directory or
    ``directory / name``, when either cannot be read."""
    if not directory.is_dir():
        raise InputError(directory, "not a directory")
    try:
        names = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
        directory_fd = os.open(directory, os.O_RDONLY)  # no path walk, no file object per file
    except OSError as exc:
        raise InputError(directory, f"cannot list directory: {exc.strerror or exc}") from exc
    files = {}
    try:
        for name in names:
            try:
                fd = os.open(name, os.O_RDONLY, dir_fd=directory_fd)
                try:
                    chunks = []
                    while chunk := os.read(fd, 1 << 16):
                        chunks.append(chunk)
                    files[name] = b"".join(chunks)
                finally:
                    os.close(fd)
            except OSError as exc:
                raise _unreadable(directory / name, exc) from exc
    finally:
        os.close(directory_fd)
    return files


def path_prefix(directory: Path) -> str:
    """What ``str(directory / name)`` puts before ``name``: Path joins a name
    to "." as the bare name."""
    return "" if directory == Path(".") else os.path.join(directory, "")


def read_json(path: Path | str, raw: bytes | None = None) -> Any:
    """The JSON document held by an input file; ``raw`` is the file's bytes
    when the caller has read them already, and then ``path`` may be the
    path's string. Raises InputError when the file cannot be read, is not
    UTF-8 JSON, or holds what dla cannot hold or write: an integer longer
    than Python converts, or a string with an unpaired surrogate."""
    if raw is None:
        raw = read_input(path)
    try:
        text = raw.decode("utf-8")
        doc = json.loads(text)
        # Only a \u escape can put an unpaired surrogate in a string, and
        # UTF-8 output cannot encode one. Most inputs hold no backslash at all,
        # and a one-character search is a memchr, many times faster than the
        # two-character one, so it runs first.
        if "\\" in text and "\\u" in text:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except UnicodeEncodeError as exc:
        raise InputError(path, "invalid JSON: a \\u escape gives an unpaired surrogate") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(path, f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # json.loads met an integer past int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise InputError(path, f"invalid JSON: an integer longer than {limit} digits") from exc
    except RecursionError as exc:
        raise InputError(path, "invalid JSON: nested deeper than the parser allows") from exc
