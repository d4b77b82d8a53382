"""Model registry (repro.serve.registry): layout, promotion atomicity
discipline, and name hygiene."""

import os

import numpy as np
import pytest

from repro.serve import ModelRegistry


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "reg")


@pytest.fixture()
def windows(tiny_emulator, generator):
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs


class TestPublish:
    def test_layout(self, registry, tiny_emulator):
        path = registry.publish("v1", tiny_emulator)
        assert path == registry.root / "versions" / "v1.npz"
        assert path.exists()
        assert registry.versions() == ["v1"]
        assert registry.active() is None  # publish alone does not promote

    def test_no_tmp_leftovers(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        leftovers = [p for p in registry.root.rglob("*.tmp")]
        assert leftovers == []

    def test_republish_replaces(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, metadata={"rev": 1})
        registry.publish("v1", tiny_emulator, metadata={"rev": 2})
        assert registry.versions() == ["v1"]
        assert registry.header("v1")["metadata"] == {"rev": 2}

    @pytest.mark.parametrize("bad", ["", ".hidden", "a/b", "a b",
                                     "x.npz", "../escape", None])
    def test_bad_names_rejected(self, registry, tiny_emulator, bad):
        with pytest.raises(ValueError, match="invalid version name"):
            registry.publish(bad, tiny_emulator)


class TestCrashSafety:
    """A kill at any point of publish + promote leaves ``versions()``
    listing only complete bundles and ``ACTIVE`` on a loadable one."""

    @pytest.mark.parametrize("kill_at", [0, 1],
                             ids=["bundle-rename", "active-rename"])
    def test_kill_at_each_replace(self, registry, tiny_emulator,
                                  monkeypatch, kill_at):
        registry.publish("r0000", tiny_emulator, activate=True)
        real_replace = os.replace
        renames = []

        def dying_replace(src, dst):
            renames.append(dst)
            if len(renames) - 1 == kill_at:
                raise OSError("killed before the rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="killed"):
            registry.publish("r0001", tiny_emulator, activate=True)
        monkeypatch.setattr(os, "replace", real_replace)
        # The process died mid-write: its temp file may be torn.
        for leftover in registry.root.rglob("*.tmp"):
            leftover.write_bytes(leftover.read_bytes()[:100])

        expected = ["r0000"] if kill_at == 0 else ["r0000", "r0001"]
        assert registry.versions() == expected
        for name in registry.versions():
            registry.load(name)  # every listed version is complete
        assert registry.load()[0] == "r0000"
        if kill_at == 0:
            with pytest.raises(ValueError, match="unknown version"):
                registry.promote("r0001")


class TestPromotion:
    def test_promote_sets_active(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator)
        registry.publish("v2", tiny_emulator)
        registry.promote("v1")
        assert registry.active() == "v1"
        registry.promote("v2")
        assert registry.active() == "v2"

    def test_publish_activate(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        assert registry.active() == "v1"

    def test_promote_unknown_rejected(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator)
        with pytest.raises(ValueError, match="unknown version"):
            registry.promote("v2")
        assert registry.active() is None  # failed promote changed nothing


class TestLoad:
    def test_load_active_bitwise(self, registry, tiny_emulator, windows):
        registry.publish("v1", tiny_emulator, activate=True)
        name, loaded = registry.load()
        assert name == "v1"
        np.testing.assert_array_equal(
            loaded.predict_windows(windows),
            tiny_emulator.predict_windows(windows))

    def test_load_by_name(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator)
        name, _ = registry.load("v1")
        assert name == "v1"

    def test_load_without_active(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator)
        with pytest.raises(ValueError, match="no active version"):
            registry.load()

    def test_load_unknown(self, registry):
        with pytest.raises(ValueError, match="unknown version"):
            registry.load("ghost")

    def test_reopen_existing_registry(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        reopened = ModelRegistry(registry.root)
        assert reopened.versions() == ["v1"]
        assert reopened.active() == "v1"

    def test_repr_mentions_state(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        text = repr(registry)
        assert "v1" in text


class TestAuditTrail:
    def test_publish_and_promote_append(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        registry.publish("v2", tiny_emulator)
        trail = registry.audit_trail()
        assert [(e["action"], e["version"]) for e in trail] == [
            ("publish", "v1"), ("promote", "v1"), ("publish", "v2")]

    def test_promote_records_previous(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        registry.publish("v2", tiny_emulator)
        registry.promote("v2")
        promotes = [e for e in registry.audit_trail()
                    if e["action"] == "promote"]
        assert promotes[0]["previous"] is None
        assert promotes[1]["previous"] == "v1"

    def test_note_recorded(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True,
                         note="retrain 0 (no-active)")
        assert all(e["note"] == "retrain 0 (no-active)"
                   for e in registry.audit_trail())

    def test_empty_trail(self, registry):
        assert registry.audit_trail() == []

    def test_torn_final_line_tolerated(self, registry, tiny_emulator):
        """A crash mid-append leaves a torn last line; readers skip it."""
        registry.publish("v1", tiny_emulator)
        with open(registry.root / "AUDIT.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write('{"action": "pub')  # torn
        trail = registry.audit_trail()
        assert len(trail) == 1
        assert trail[0]["version"] == "v1"

    def test_torn_line_does_not_swallow_next_entry(self, registry,
                                                   tiny_emulator):
        """The append after a crash mid-append starts a new line."""
        registry.publish("v1", tiny_emulator)
        with open(registry.root / "AUDIT.jsonl", "a",
                  encoding="utf-8") as fh:
            fh.write('{"action": "pub')  # torn
        registry.publish("v2", tiny_emulator)
        assert [e["version"] for e in registry.audit_trail()] == [
            "v1", "v2"]

    def test_trail_never_consulted_by_operations(self, registry,
                                                 tiny_emulator):
        """The trail is advisory: deleting it breaks nothing."""
        registry.publish("v1", tiny_emulator, activate=True)
        (registry.root / "AUDIT.jsonl").unlink()
        registry.promote("v1")                 # works without history
        name, _ = registry.load()
        assert name == "v1"

    def test_failed_promote_not_recorded(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator)
        with pytest.raises(ValueError):
            registry.promote("ghost")
        assert [e["action"] for e in registry.audit_trail()] == ["publish"]


class TestReport:
    """The one formatter behind `repro serve --status` and
    `repro pipeline status` — regression-pinned here so both CLIs render
    identically."""

    def test_empty_registry(self, registry):
        report = registry.report()
        assert str(registry.root) in report
        assert "(no versions published)" in report

    def test_lists_versions_with_active_marker(self, registry,
                                               tiny_emulator):
        registry.publish("v1", tiny_emulator)
        registry.publish("v2", tiny_emulator, activate=True)
        lines = registry.report().splitlines()
        assert lines[1:] == ["  v1", "  v2 *active*"]

    def test_exact_rendering(self, registry, tiny_emulator):
        registry.publish("v1", tiny_emulator, activate=True)
        assert registry.report() == (
            f"registry {registry.root}\n  v1 *active*")

    def test_serve_status_uses_report(self, registry, tiny_emulator,
                                      capsys):
        """`repro serve --status` prints report() verbatim."""
        from repro.cli import serve_main
        registry.publish("v1", tiny_emulator, activate=True)
        assert serve_main(["--registry", str(registry.root),
                           "--status"]) == 0
        assert registry.report() in capsys.readouterr().out
