"""Durable state: every file the program writes and later reads back.

Campaign and search checkpoints, multi-fidelity checkpoints, emulator
bundles, NAS benchmark archives, pipeline state, network archives and
the model registry's ``ACTIVE`` pointer and audit trail all go through
this module, so they share one set of guarantees:

* **Atomic writes.** A whole-file write lands in a ``<name>.tmp``
  sibling, is fsynced, then renamed over the target. A kill at any
  instant leaves either the previous file or the new one, never a torn
  file. A stale ``.tmp`` sibling is harmless: the next write overwrites
  it, and no reader's ``*.npz``/``*.json`` glob matches it.
* **Append-only logs.** :func:`append_jsonl` starts a new line when a
  crash left the last one without its ``\\n``, so a torn entry never
  swallows the next one.
* **Typed read failures.** :func:`read_json` and :func:`read_npz` turn
  any decode failure (truncated zip, invalid JSON, non-UTF-8 bytes) into
  a ``ValueError`` that names the file. A missing file stays
  ``FileNotFoundError``.
* **One envelope check.** :func:`check_envelope` checks a document's
  ``format`` and ``version`` keys and accepts exactly the versions a
  reader decodes, so a newer writer's file fails with a diagnosis
  instead of deserializing garbage.
* **One identity refusal.** :func:`check_identity` refuses to resume
  state saved for a different configuration. Li & Talwalkar (PAPERS.md)
  require a resumed run to be the same experiment as an uninterrupted
  one; silently continuing a different one breaks that.

On-disk formats: JSON documents are ``json.dumps(indent=1,
sort_keys=True, allow_nan=False)``, so a non-finite value fails before a
byte is written. ``.npz`` artifacts are plain NumPy arrays plus one JSON
header stored as a uint8 array under a reserved key: pickle-free and
inspectable with nothing but ``numpy`` and ``json``.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["npz_path", "atomic_write_json", "atomic_write_text",
           "atomic_write_npz", "append_jsonl", "read_json", "read_npz",
           "check_envelope", "check_identity"]


def npz_path(path) -> Path:
    """The path an ``.npz`` artifact lives at.

    ``path`` itself when it ends in ``.npz``, otherwise ``path`` with
    ``.npz`` appended (``model`` -> ``model.npz``, ``pipe.state`` ->
    ``pipe.state.npz``). Writers and readers both apply this one rule,
    so any path a writer accepted, the matching reader accepts too.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _write_atomically(target: Path, write) -> None:
    """Run ``write(fh)`` on ``<target>.tmp``, fsync, then rename it over
    ``target``."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)


def atomic_write_json(path, payload: dict) -> None:
    """Atomically write ``payload`` as JSON to ``path``.

    ``allow_nan=False`` rejects any NaN or infinity before a single byte
    is written.
    """
    data = json.dumps(payload, indent=1, allow_nan=False,
                      sort_keys=True).encode("utf-8")
    _write_atomically(Path(path), lambda fh: fh.write(data))


def atomic_write_text(path, text: str) -> None:
    """Atomically replace the UTF-8 text file at ``path``."""
    data = text.encode("utf-8")
    _write_atomically(Path(path), lambda fh: fh.write(data))


def atomic_write_npz(path, header: dict, arrays: dict, *,
                     key: str) -> Path:
    """Atomically write ``arrays`` plus the JSON ``header`` (stored under
    ``key``, first member of the archive) as one ``.npz`` at
    :func:`npz_path` of ``path``. Returns that path."""
    if key in arrays:
        raise ValueError(f"array name {key!r} collides with the header key")
    target = npz_path(path)
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"),
                            dtype=np.uint8)
    _write_atomically(target,
                      lambda fh: np.savez(fh, **{key: encoded}, **arrays))
    return target


def append_jsonl(path, entry: dict) -> None:
    """Append ``entry`` as one JSON line to ``path`` and fsync.

    If a crash left the file's last line without its ``\\n``, the entry
    starts on a new line, so only the torn line is lost.
    """
    line = (json.dumps(entry) + "\n").encode("utf-8")
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                line = b"\n" + line
        fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())


def read_json(path) -> dict:
    """Read the JSON object at ``path``; a file that does not decode to
    one raises ``ValueError`` naming the file."""
    path = Path(path)
    data = path.read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"{path}: unreadable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"got {type(doc).__name__}")
    return doc


def read_npz(path, *, key: str, fmt: str, versions: tuple, describe: str,
             arrays: bool = True) -> tuple[dict, dict]:
    """Read a :func:`atomic_write_npz` artifact as ``(header, arrays)``.

    The header must pass :func:`check_envelope`. With ``arrays=False``
    only the header member is read and the returned dict is empty.
    """
    target = npz_path(path)
    try:
        archive = np.load(target)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single .npy array, not an .npz archive")
        with archive:
            raw = archive[key].tobytes() if key in archive.files else None
            data = ({name: archive[name] for name in archive.files
                     if name != key} if arrays else {})
        header = None if raw is None else json.loads(raw.decode("utf-8"))
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        # ValueError also covers bad member headers, UTF-8 and JSON.
        raise ValueError(f"{target}: corrupt {describe} "
                         f"({type(exc).__name__}: {exc})") from exc
    if header is None:
        raise ValueError(f"{target}: not {describe} (missing {key} header)")
    return check_envelope(header, target, fmt=fmt, versions=versions,
                          describe=describe), data


def check_envelope(doc, source, *, fmt: str, versions: tuple,
                   describe: str) -> dict:
    """Check ``doc``'s ``format``/``version`` keys; returns ``doc``.

    ``versions`` lists every version this reader decodes (``None`` admits
    a document without a ``version`` key). ``describe`` names the
    document family in the diagnosis ("an emulator bundle").
    """
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != fmt:
        raise ValueError(f"{source}: not {describe} (format {found!r})")
    version = doc.get("version")
    if version not in versions:
        newer = isinstance(version, int) and all(
            isinstance(v, int) and version > v for v in versions)
        raise ValueError(
            f"{source}: unsupported {describe.split()[-1]} schema version "
            f"{version!r} ({'newer than supported; ' if newer else ''}"
            f"this reader supports {list(versions)})")
    return doc


def check_identity(source, what: str, saved, current) -> None:
    """Refuse to resume ``source`` when the ``what`` it was saved with
    differs from the ``current`` one."""
    if saved != current:
        raise ValueError(
            f"{source}: saved {what} {saved!r} differs from the current "
            f"{current!r}; refusing to resume a different experiment")
