"""Input files and output: the readers every input goes through, the one rendering
of a document as it is written to disk, and the one line rule, :func:`text_lines`.

This module imports nothing of the domain model, so the command line loads
it without compiling :mod:`dla.model`.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from stat import S_ISREG
from typing import Any, Iterable

from .errors import InputError


def canonical_json(doc: Any) -> str:
    """Render a document dict exactly as it is written to disk."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def text_lines(lines: Iterable[str]) -> str:
    """``lines`` as text, each ended by LF; a CR or LF inside a line, and only
    those, is written as a space, so no input text can end a line or forge one."""
    return "".join([line.replace("\r", " ").replace("\n", " ") + "\n" for line in lines])


def read_input(path: Path) -> bytes:
    """The bytes of an input file; raises InputError when it cannot be read."""
    try:
        return path.read_bytes()
    except OSError as exc:
        raise InputError(path, f"cannot read file: {exc.strerror or exc}") from exc


def read_inputs(directory: Path) -> dict[str, bytes]:
    """The bytes of every ``*.json`` file in a directory, dot files included,
    by file name in name order; raises InputError, naming the directory or
    ``directory / name``, when either cannot be read (:func:`read_listed`)."""
    if not directory.is_dir():
        raise InputError(directory, "not a directory")
    try:
        names = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
        directory_fd = os.open(directory, os.O_RDONLY)  # no path walk, no file object per file
    except OSError as exc:
        raise InputError(directory, f"cannot list directory: {exc.strerror or exc}") from exc
    try:
        return {name: read_listed(directory, name, directory_fd) for name in names}
    finally:
        os.close(directory_fd)


def read_listed(directory: Path, name: str, directory_fd: int | None = None) -> bytes:
    """The bytes of ``directory / name``, a file found by listing a directory
    (opened by name in ``directory_fd`` when given). It is read without
    blocking, and InputError names it when it cannot be read or is no regular
    file; only a first read that is empty or a whole chunk costs an fstat, so
    a file under 64 KiB that reads to its end (the usual input) is taken as is."""
    try:
        fd = os.open(name if directory_fd is not None else os.path.join(directory, name),
                     os.O_RDONLY | os.O_NONBLOCK, dir_fd=directory_fd)
        try:
            chunks = [os.read(fd, 1 << 16)]
            if not 0 < len(chunks[0]) < 1 << 16 and not S_ISREG(os.fstat(fd).st_mode):
                raise InputError(directory / name, "not a regular file")
            while chunks[-1] and (chunk := os.read(fd, 1 << 16)):  # an empty file has ended
                chunks.append(chunk)
            return b"".join(chunks)
        finally:
            os.close(fd)
    except BlockingIOError as exc:  # a FIFO that a writer holds open
        raise InputError(directory / name, "not a regular file") from exc
    except OSError as exc:
        raise InputError(directory / name, f"cannot read file: {exc.strerror or exc}") from exc


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
