"""Unit tests for the cache persistence substrate (``repro.eval.store``):
atomic writes, corrupt-file quarantine, the pack store and the stats/gc
helpers."""

from __future__ import annotations

import hashlib
import json
import os
import warnings

import pytest

from repro.eval.store import (
    BlobStore,
    CorruptCacheWarning,
    atomic_write_bytes,
    collect_stats,
    discover_families,
    gc_blobs,
    preserve_corrupt_file,
)

KEY_A = "ab" + "0" * 14
KEY_B = "cd" + "1" * 14
KEY_C = "ab" + "2" * 14


class TestAtomicWriteBytes:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.json"
        atomic_write_bytes(target, b"one")
        assert target.read_bytes() == b"one"
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "file.json"
        for index in range(5):
            atomic_write_bytes(target, str(index).encode())
        assert [child.name for child in tmp_path.iterdir()] == ["file.json"]


class TestPreserveCorruptFile:
    def test_sidecar_holds_the_bytes(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"{broken")
        with pytest.warns(CorruptCacheWarning, match="preserved"):
            sidecar = preserve_corrupt_file(path, b"{broken", reason="test")
        assert sidecar.parent == tmp_path
        assert sidecar.name.startswith("cache.json.corrupt-")
        assert sidecar.read_bytes() == b"{broken"

    def test_warns_once_per_file_and_content(self, tmp_path):
        path = tmp_path / "cache.json"
        with pytest.warns(CorruptCacheWarning):
            preserve_corrupt_file(path, b"{broken", reason="test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            preserve_corrupt_file(path, b"{broken", reason="test")
        # Different corruption of the same file is news again.
        with pytest.warns(CorruptCacheWarning):
            preserve_corrupt_file(path, b"{other", reason="test")


def packs(root):
    """The pack files under a blob root (one per flush)."""
    return sorted(root.glob("*.json"))


def age(path, seconds=10):
    """Move a file's mtime into the past, as if written ``seconds`` earlier."""
    past = path.stat().st_mtime_ns - seconds * 10**9
    os.utime(path, ns=(past, past))


class TestBlobStore:
    def test_round_trip_one_pack_per_flush(self, tmp_path):
        root = tmp_path / "cache.blobs"
        store = BlobStore(root, salt="timing-v2")
        store.put(KEY_A, {"value": 1})
        store.put(KEY_B, {"value": 2})
        store.put(KEY_C, {"value": 3})
        # Staged entries are visible before flush.
        assert store.get(KEY_A) == {"value": 1}
        store.flush()
        # One pack per flush, directly under the root, named by its content
        # digest and holding canonical (sorted, compact) JSON.
        (pack,) = root.iterdir()
        raw = pack.read_bytes()
        assert pack.name == hashlib.blake2b(raw, digest_size=16).hexdigest() + ".json"
        data = json.loads(raw)
        assert data == {
            "salt": "timing-v2",
            "entries": {KEY_A: {"value": 1}, KEY_B: {"value": 2}, KEY_C: {"value": 3}},
        }
        assert raw == json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        # A fresh store over the same root sees everything.
        again = BlobStore(root)
        assert again.get(KEY_B) == {"value": 2}
        assert again.keys() == sorted([KEY_A, KEY_B, KEY_C])
        assert len(again) == 3
        # Flushing nothing writes nothing.
        again.flush()
        assert packs(root) == [pack]

    def test_sees_writes_from_other_stores(self, tmp_path):
        """Blob reads go to disk, so a second process's flushes become
        visible to an already-open store immediately."""
        root = tmp_path / "cache.blobs"
        reader = BlobStore(root)
        assert reader.get(KEY_A) is None
        writer = BlobStore(root)
        writer.put(KEY_A, {"value": 1})
        writer.flush()
        assert reader.get(KEY_A) == {"value": 1}

    def test_newer_pack_wins_a_duplicate_key(self, tmp_path):
        root = tmp_path / "cache.blobs"
        old = BlobStore(root)
        old.put(KEY_A, {"value": "old"})
        old.put(KEY_B, {"value": 2})
        old.flush()
        age(packs(root)[0])
        new = BlobStore(root)
        new.put(KEY_A, {"value": "new"})
        new.flush()
        store = BlobStore(root)
        assert store.get(KEY_A) == {"value": "new"}
        assert store.get(KEY_B) == {"value": 2}
        assert store.keys() == [KEY_A, KEY_B]

    def test_flush_supersedes_an_entry_already_read(self, tmp_path):
        """A store that read an entry and then flushes a replacement reads
        the replacement back: flush drops its keys from the index."""
        root = tmp_path / "cache.blobs"
        first = BlobStore(root)
        first.put(KEY_A, {"value": "bad"})
        first.flush()
        age(packs(root)[0])
        store = BlobStore(root)
        assert store.get(KEY_A) == {"value": "bad"}
        store.put(KEY_A, {"value": "good"})
        store.flush()
        assert store.get(KEY_A) == {"value": "good"}

    def test_put_rejects_non_hex_keys(self, tmp_path):
        store = BlobStore(tmp_path / "cache.blobs")
        for bad in ("", "xyz", "AB12CD", "../escape", "a/b", "ab"):
            with pytest.raises(ValueError, match="invalid cache key"):
                store.put(bad, {})

    def test_get_tolerates_non_hex_keys(self, tmp_path):
        store = BlobStore(tmp_path / "cache.blobs")
        assert store.get("not a key") is None
        assert store.get("../escape") is None

    def test_corrupt_blob_is_quarantined_and_reads_as_miss(self, tmp_path):
        """An unparseable pack leaves one sidecar and one warning, and every
        key it held reads as a miss; other packs are untouched."""
        root = tmp_path / "cache.blobs"
        store = BlobStore(root)
        store.put(KEY_A, {"value": 1})
        store.put(KEY_C, {"value": 3})
        store.flush()
        (pack,) = packs(root)
        other = BlobStore(root)
        other.put(KEY_B, {"value": 2})
        other.flush()
        pack.write_text("{smashed")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reader = BlobStore(root)
            assert reader.get(KEY_A) is None
            assert reader.get(KEY_C) is None
            assert reader.get(KEY_B) == {"value": 2}
            assert BlobStore(root).get(KEY_A) is None
        assert [w.category for w in caught] == [CorruptCacheWarning]
        assert not pack.exists()
        (sidecar,) = root.glob("*.corrupt-*")
        assert sidecar.name.startswith(pack.name + ".corrupt-")
        assert sidecar.read_text() == "{smashed"
        assert reader.keys() == [KEY_B]

    def test_malformed_envelope_is_a_silent_miss(self, tmp_path):
        root = tmp_path / "cache.blobs"
        store = BlobStore(root)
        store.put(KEY_A, {"value": 1})
        store.put(KEY_B, {"value": 2})
        store.flush()
        (pack,) = packs(root)
        pack.write_text(json.dumps({"entries": {KEY_A: "not a dict", KEY_B: {"v": 2}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = BlobStore(root)
            assert reader.get(KEY_A) is None
            assert reader.get(KEY_B) == {"v": 2}
            pack.write_text(json.dumps({"salt": None, "entries": ["not", "a", "dict"]}))
            assert BlobStore(root).get(KEY_B) is None

    def test_old_shard_tree_reads_cold(self, tmp_path):
        """The earlier one-file-per-key layout (``<root>/ab/<key>.json``) is
        neither read nor counted nor collected: it reads cold."""
        root = tmp_path / "sweep-cache.blobs"
        shard = root / KEY_A[:2]
        shard.mkdir(parents=True)
        blob = shard / f"{KEY_A}.json"
        envelope = json.dumps({"key": KEY_A, "salt": "timing-v2", "entry": {"value": 1}})
        blob.write_text(envelope)
        store = BlobStore(root)
        assert store.get(KEY_A) is None
        assert store.keys() == []
        (family,) = collect_stats(tmp_path)
        assert (family.blobs, family.packs) == (0, 0)
        result = gc_blobs(root, frozenset({"timing-v1"}))
        assert (result.examined, result.removed) == (0, 0)
        assert blob.read_text() == envelope


class TestStatsAndGc:
    def seed(self, cache_dir):
        store = BlobStore(cache_dir / "sweep-cache.blobs", salt="timing-v2")
        store.put(KEY_A, {"value": 1})
        store.put(KEY_B, {"value": 2})
        store.flush()
        old = BlobStore(cache_dir / "sweep-cache.blobs", salt="timing-v1")
        old.put(KEY_C, {"value": 3})
        old.flush()
        return cache_dir / "sweep-cache.blobs"

    def test_discover_families(self, tmp_path):
        self.seed(tmp_path)
        other = BlobStore(tmp_path / "accuracy-cache.blobs", salt="timing-v2")
        other.put(KEY_A, {"value": 1})
        other.flush()
        assert discover_families(tmp_path) == ["accuracy-cache", "sweep-cache"]

    def test_collect_stats(self, tmp_path):
        root = self.seed(tmp_path)
        (family,) = collect_stats(tmp_path)
        assert family.name == "sweep-cache"
        assert family.blobs == 3
        assert family.packs == 2
        assert family.salts == {"timing-v1": 1, "timing-v2": 2}
        assert family.blob_bytes == sum(pack.stat().st_size for pack in packs(root))
        # A key in two packs (a recomputed entry) is one blob.
        again = BlobStore(root, salt="timing-v2")
        again.put(KEY_A, {"value": 1})
        again.put("ef" + "3" * 14, {"value": 4})
        again.flush()
        (family,) = collect_stats(tmp_path)
        assert (family.blobs, family.packs) == (4, 3)
        assert family.to_dict()["packs"] == 3
        assert "4 blobs" in family.describe() and "3 packs" in family.describe()

    def test_json_files_are_not_families(self, tmp_path):
        """A pre-blob single-file cache is neither a family of its own nor
        counted into the blob root its stem names — and stats never touch
        its bytes."""
        self.seed(tmp_path)
        stray = {
            tmp_path / "accuracy-cache.json": json.dumps({KEY_A: {"v": 1}}),
            tmp_path / "sweep-cache.json": "{not json",
        }
        for path, text in stray.items():
            path.write_text(text)
        assert discover_families(tmp_path) == ["sweep-cache"]
        (family,) = collect_stats(tmp_path)
        assert (family.blobs, family.corrupt_sidecars) == (3, 0)
        for path, text in stray.items():
            assert path.read_text() == text
        assert not list(tmp_path.rglob("*.corrupt-*"))

    def test_gc_retires_orphaned_salts(self, tmp_path):
        root = self.seed(tmp_path)
        dry = gc_blobs(root, frozenset({"timing-v2"}), dry_run=True)
        assert (dry.examined, dry.kept, dry.removed) == (3, 2, 1)
        assert BlobStore(root).get(KEY_C) is not None  # dry run deleted nothing
        wet = gc_blobs(root, frozenset({"timing-v2"}))
        assert wet.removed == 1 and wet.removed_bytes > 0
        store = BlobStore(root)
        assert store.get(KEY_C) is None
        assert store.get(KEY_A) is not None
        assert len(packs(root)) == 1

    def test_gc_unsalted_policy(self, tmp_path):
        """gc keeps a blob exactly when its salt is in the keep set, so an
        unsalted envelope is an orphan like any other."""
        root = self.seed(tmp_path)
        key = "ef" + "3" * 14
        unsalted = BlobStore(root)
        unsalted.put(key, {"value": 4})
        unsalted.flush()
        result = gc_blobs(root, frozenset({"timing-v2"}))
        assert (result.examined, result.kept, result.removed) == (4, 2, 2)
        assert unsalted.get(key) is None
        assert unsalted.get(KEY_A) is not None

    def test_gc_sweeps_stray_tmp_and_corrupt_blobs(self, tmp_path):
        root = self.seed(tmp_path)
        (root / "dead-writer.json.tmp").write_text("partial")
        old_pack = next(
            pack for pack in packs(root) if json.loads(pack.read_text())["salt"] == "timing-v1"
        )
        old_pack.write_text("{smashed")
        with pytest.warns(CorruptCacheWarning):
            result = gc_blobs(root, frozenset({"timing-v1", "timing-v2"}))
        assert result.tmp_removed == 1
        assert result.quarantined == 1
        assert (result.examined, result.kept) == (2, 2)
        assert not (root / "dead-writer.json.tmp").exists()
        assert not old_pack.exists()
        assert list(root.glob(f"{old_pack.name}.corrupt-*"))
        (family,) = collect_stats(tmp_path)
        assert (family.blobs, family.packs, family.corrupt_sidecars) == (2, 1, 1)
