"""Model registry: named bundle versions with an atomic "active" pointer.

Directory layout (docs/SERVING.md)::

    <root>/
      versions/
        <name>.npz        # one emulator bundle per published version
      ACTIVE              # name of the version serving traffic
      AUDIT.jsonl         # append-only publish/promote audit trail

Invariants both the serving tier (:mod:`repro.serve.router`) and the
continuous-learning pipeline (:mod:`repro.pipeline`) rely on:

* **Publication is atomic.** ``publish`` writes the bundle straight to
  its version path through :func:`repro.durable.atomic_write_npz`: the
  bytes land in a ``<name>.npz.tmp`` sibling, which ``versions()`` never
  lists, and one atomic rename moves them into place. A reader (or a
  worker process loading mid-publish) always observes either the
  previous complete bundle or the new one, never a torn ``.npz``.
  Re-publishing an existing name is idempotent replacement — the
  pipeline exploits this when a crash lands between publish and its own
  state save: the retrain is replayed and republishes the identical
  bundle under the identical name.
* **Promotion is atomic and ordered after publication.** ``promote``
  rewrites ``ACTIVE`` through :func:`repro.durable.atomic_write_text`
  and refuses names without a published bundle, so ``ACTIVE`` can never
  dangle: a crash at any instant leaves it pointing at a complete,
  loadable bundle.
* **The audit trail is append-only and advisory.** Every publish and
  promote appends one JSON line to ``AUDIT.jsonl`` (action, version,
  previous active pointer, wall-clock time, optional note). It is a
  *record*, not a source of truth — readers skip a torn line (a crash
  mid-append; :func:`repro.durable.append_jsonl` starts the next entry
  on a fresh line), and no registry operation ever consults it.
  Deterministic replay guarantees therefore never include audit bytes;
  the pipeline's promotion-sequence identity is defined over its own
  typed decision records and the bundle contents.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from repro.durable import append_jsonl, atomic_write_text
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.serve.bundle import load_bundle, read_bundle_header, save_bundle

__all__ = ["ModelRegistry"]

#: Version names are path-safe identifiers: no separators, no hidden
#: files, no surprises in the directory layout.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_ACTIVE_FILE = "ACTIVE"
_VERSIONS_DIR = "versions"
_AUDIT_FILE = "AUDIT.jsonl"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name) \
            or name.endswith(".npz"):
        raise ValueError(
            f"invalid version name {name!r}: use letters, digits, dots, "
            f"dashes and underscores (no leading dot, no .npz suffix)")
    return name


class ModelRegistry:
    """A directory of named emulator bundles with one active version.

    Parameters
    ----------
    root:
        Registry directory; created (with ``versions/``) on first use.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _VERSIONS_DIR).mkdir(exist_ok=True)

    # -- paths -----------------------------------------------------------
    def bundle_path(self, name: str) -> Path:
        """Where version ``name``'s bundle lives (whether or not it
        exists yet)."""
        return self.root / _VERSIONS_DIR / f"{_check_name(name)}.npz"

    @property
    def _active_path(self) -> Path:
        return self.root / _ACTIVE_FILE

    @property
    def _audit_path(self) -> Path:
        return self.root / _AUDIT_FILE

    # -- publishing ------------------------------------------------------
    def publish(self, name: str, emulator: PODLSTMEmulator, *,
                metadata: dict | None = None,
                activate: bool = False, note: str | None = None) -> Path:
        """Serialize ``emulator`` as version ``name``.

        The bundle is written atomically, so readers never observe a
        partial artifact. Re-publishing an existing name replaces it.
        ``activate=True`` also promotes the version. ``note`` is recorded
        in the audit trail.
        """
        target = save_bundle(emulator, self.bundle_path(name),
                             metadata=metadata)
        self._audit("publish", name, note=note)
        if activate:
            self.promote(name, note=note)
        return target

    def promote(self, name: str, *, note: str | None = None) -> None:
        """Atomically point ``ACTIVE`` at an existing version.

        The promotion (with the previous active pointer and the optional
        ``note``) is appended to the audit trail.
        """
        if not self.bundle_path(name).exists():
            raise ValueError(f"cannot promote unknown version {name!r}; "
                             f"published versions: {self.versions()}")
        previous = self.active()
        atomic_write_text(self._active_path, name + "\n")
        self._audit("promote", name, previous=previous, note=note)

    # -- audit trail -----------------------------------------------------
    def _audit(self, action: str, name: str, *, previous: str | None = None,
               note: str | None = None) -> None:
        entry = {"action": action, "version": name, "time": time.time()}
        if action == "promote":
            entry["previous"] = previous
        if note is not None:
            entry["note"] = note
        append_jsonl(self._audit_path, entry)

    def audit_trail(self) -> list[dict]:
        """The publish/promote history, oldest first.

        Append-only and advisory (see module docstring): a torn line — a
        crash mid-append — is skipped, not an error.
        """
        try:
            lines = self._audit_path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return []
        entries = []
        for line in lines:
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return entries

    # -- reading ---------------------------------------------------------
    def versions(self) -> list[str]:
        """Published version names, sorted."""
        return sorted(p.stem for p in
                      (self.root / _VERSIONS_DIR).glob("*.npz"))

    def active(self) -> str | None:
        """The promoted version name, or ``None`` if nothing is active."""
        try:
            name = self._active_path.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return None
        return name or None

    def header(self, name: str) -> dict:
        """The bundle header of a version (provenance inspection)."""
        return read_bundle_header(self.bundle_path(name))

    def load(self, name: str | None = None
             ) -> tuple[str, PODLSTMEmulator]:
        """Load a version (default: the active one) as
        ``(name, emulator)``."""
        if name is None:
            name = self.active()
            if name is None:
                raise ValueError(
                    f"registry {self.root} has no active version "
                    f"(promote one first)")
        path = self.bundle_path(name)
        if not path.exists():
            raise ValueError(f"unknown version {name!r}; "
                             f"published versions: {self.versions()}")
        return name, load_bundle(path)

    def report(self) -> str:
        """Human-readable registry listing (versions + ACTIVE marker).

        The one formatter behind both ``repro serve --status`` and
        ``repro pipeline status`` — the ACTIVE-pointer parsing and the
        marker layout live here only (regression-tested in
        tests/test_serve_registry.py).
        """
        versions = self.versions()
        active = self.active()
        lines = [f"registry {self.root}"]
        if not versions:
            lines.append("  (no versions published)")
        for name in versions:
            marker = " *active*" if name == active else ""
            lines.append(f"  {name}{marker}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"ModelRegistry(root={str(self.root)!r}, "
                f"versions={self.versions()}, active={self.active()!r})")
