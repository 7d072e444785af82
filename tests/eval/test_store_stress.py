"""Multi-writer stress tests for the cache substrate.

N sweep processes may share one ``--cache-dir``.  A store that loads once
and rewrites one file wholesale on flush would silently keep only the last
writer's entries.  The blob store makes concurrent writers safe *by
construction* (one new atomic pack file per flush, never rewritten), and
this module proves it the hard way: several processes hammer one store while
the parent concurrently reads, and afterwards every write must be present
and internally consistent.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.eval.store import BlobStore

N_WORKERS = 4
KEYS_PER_WORKER = 25
N_SHARED_KEYS = 10


def _key_for(label: str) -> str:
    return hashlib.sha256(label.encode()).hexdigest()[:16]


def _payload_for(key: str) -> dict:
    """A deterministic entry whose internal checksum detects torn reads."""
    body = (key * 8)[:96]
    return {
        "key": key,
        "body": body,
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
    }


def _disjoint_keys(worker_id: int) -> list[str]:
    return [
        _key_for(f"worker-{worker_id}-cell-{index}")
        for index in range(KEYS_PER_WORKER)
    ]


def _shared_keys() -> list[str]:
    return [_key_for(f"shared-cell-{index}") for index in range(N_SHARED_KEYS)]


def _hammer(root_str: str, worker_id: int) -> int:
    """One writer process: flush after every put to maximise interleaving."""
    store = BlobStore(Path(root_str), salt="stress-v1")
    written = 0
    # Interleave disjoint and shared keys so same-key collisions happen
    # while other writers are mid-flush.
    for index, key in enumerate(_disjoint_keys(worker_id)):
        store.put(key, _payload_for(key))
        store.flush()
        written += 1
        shared = _shared_keys()
        if index < len(shared):
            store.put(shared[index], _payload_for(shared[index]))
            store.flush()
            written += 1
    return written


def _verify_visible_blobs(root: Path) -> int:
    """Parse every committed pack, validate each entry's checksum and count
    the distinct keys.

    Runs concurrently with the writers: an atomic replace per pack means any
    file we can open must parse wholesale and self-validate — a torn or
    partial pack would fail here.
    """
    seen: set[str] = set()
    for pack in root.glob("*.json"):
        try:
            data = json.loads(pack.read_text())
        except OSError:
            continue  # replaced between glob and open; fine
        assert data["salt"] == "stress-v1"
        for key, entry in data["entries"].items():
            body = entry["body"]
            assert entry["checksum"] == hashlib.sha256(body.encode()).hexdigest(), (
                f"torn read in {pack}"
            )
            assert entry["key"] == key
            seen.add(key)
    return len(seen)


class TestBlobStoreUnderConcurrentWriters:
    def test_no_lost_updates_and_no_partial_reads(self, tmp_path):
        root = tmp_path / "sweep-cache.blobs"
        with ProcessPoolExecutor(max_workers=N_WORKERS) as pool:
            futures = [
                pool.submit(_hammer, str(root), worker_id)
                for worker_id in range(N_WORKERS)
            ]
            # Concurrent reader: scan and checksum while writers are live.
            while not all(future.done() for future in futures):
                _verify_visible_blobs(root)
            written = [future.result() for future in futures]
        assert all(count == KEYS_PER_WORKER + N_SHARED_KEYS for count in written)

        # Zero lost updates: every disjoint key from every worker survived,
        # and the shared keys (written by all four workers) hold exactly the
        # deterministic payload — per-key last-write-wins is harmless when
        # writers of the same key write identical content.
        store = BlobStore(root)
        expected = set(_shared_keys())
        for worker_id in range(N_WORKERS):
            expected.update(_disjoint_keys(worker_id))
        for key in sorted(expected):
            assert store.get(key) == _payload_for(key), f"lost update for {key}"
        assert _verify_visible_blobs(root) == len(expected)
        # No writer died mid-replace: no stray temp files remain.
        assert not list(root.glob("*.tmp"))

    def test_two_open_writers_keep_both(self, tmp_path):
        """The interleaving that loses an entry in a load-once, rewrite-whole
        store: both writers open before the first flush."""
        root = tmp_path / "sweep-cache.blobs"
        first = BlobStore(root)
        second = BlobStore(root)
        key_a, key_b = _key_for("writer-a"), _key_for("writer-b")
        first.put(key_a, {"value": "a"})
        first.flush()
        second.put(key_b, {"value": "b"})
        second.flush()
        survivors = BlobStore(root)
        assert survivors.get(key_a) == {"value": "a"}
        assert survivors.get(key_b) == {"value": "b"}
