"""Content-addressed cache store: the multi-writer-safe persistence substrate.

Every persistent cache in the package — one
:class:`repro.eval.runner.ResultCache` per sweep-cell family, tuning plans
included — is a :class:`BlobStore`:

* a **content-addressed dir-of-blobs**: one canonical-JSON file per
  ``canonical_config_hash`` key, fanned out under two-hex-char shard
  directories (``<root>/ab/abcdef....json``).  Every write goes through a
  unique temp file (:func:`tempfile.mkstemp` in the target directory) +
  ``fsync`` + ``os.replace``, so a reader never observes a partial entry, a
  crashed writer never corrupts the store, and concurrent writers of
  *different* keys touch different files.  Concurrent writers of the *same*
  key write byte-identical content (cells are pure functions of their hashed
  config — the SC001 contract), so per-entry last-write-wins is harmless.
* Corrupt blobs are never silently destroyed: the raw bytes are preserved as
  a ``.corrupt-<digest>`` sidecar (:func:`preserve_corrupt_file`) with a
  once-per-file :class:`CorruptCacheWarning` before the slot reads as a miss.
* :func:`cache_main` is the fleet-hygiene CLI behind ``python -m repro.eval
  cache``: ``stats`` (per-family blob/byte/salt accounting) and ``gc``
  (retires stray temp files and every blob whose salt is not its family's
  current one, or not a ``--keep-salt`` when any is given).

A cache directory holds one blob root per cell family, ``<name>.blobs/``.
Nothing else in it is read: a pre-blob single-file ``<name>.json`` cache is
ignored, so such a directory reads cold and should be deleted.

The module is deliberately stdlib-only (no numpy, no repro imports), so the
higher layers can build on it without import cycles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile
import warnings
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "BLOB_SUFFIX",
    "BlobStore",
    "CorruptCacheWarning",
    "FamilyStats",
    "GcResult",
    "atomic_write_bytes",
    "cache_main",
    "collect_stats",
    "discover_families",
    "gc_blobs",
    "preserve_corrupt_file",
]

#: A JSON object as Python data — the entry currency of every cache store.
JsonDict = dict[str, Any]

#: Directory suffix of a blob root: the ``sweep`` family's root is
#: ``sweep-cache.blobs/``.
BLOB_SUFFIX = ".blobs"

#: Valid store keys: lowercase hex digests (``canonical_config_hash``
#: outputs).  The two leading characters name the shard directory, so
#: anything outside this alphabet never becomes a path.
_KEY_PATTERN = re.compile(r"[0-9a-f]{3,128}")

#: ``(path, digest)`` pairs already warned about, so a corrupt file produces
#: exactly one :class:`CorruptCacheWarning` per process.
_WARNED_CORRUPT: set[tuple[str, str]] = set()


class CorruptCacheWarning(UserWarning):
    """A cache file failed to parse; its bytes were preserved as a
    ``.corrupt-<digest>`` sidecar before the store read it as empty."""


# --------------------------------------------------------------------------- #
# Atomic-write and corrupt-file primitives
# --------------------------------------------------------------------------- #


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` crash- and multi-writer-safely.

    A unique temp file (:func:`tempfile.mkstemp`, so concurrent writers never
    collide on a shared ``.tmp`` name) in the target directory is written,
    ``fsync``-ed and renamed over ``path`` with :func:`os.replace`.  Readers
    observe either the old bytes or the new bytes, never a prefix; a writer
    that dies mid-write leaves only a stray ``*.tmp`` for ``cache gc``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def preserve_corrupt_file(path: Path, raw: bytes, *, reason: str) -> Path:
    """Quarantine a corrupt cache file's bytes next to it.

    The evidence lands in ``<name>.corrupt-<digest>`` (content-addressed, so
    repeated loads of the same corruption are idempotent) and a
    :class:`CorruptCacheWarning` fires once per ``(path, digest)`` per
    process.  The original file is left for the caller to overwrite or
    remove — the point is that the next flush no longer destroys the only
    copy of whatever went wrong.
    """
    digest = hashlib.blake2b(raw, digest_size=8).hexdigest()
    sidecar = path.with_name(f"{path.name}.corrupt-{digest}")
    if not sidecar.exists():
        atomic_write_bytes(sidecar, raw)
    token = (str(path), digest)
    if token not in _WARNED_CORRUPT:
        _WARNED_CORRUPT.add(token)
        warnings.warn(
            f"cache file {path} is corrupt ({reason}); its bytes were "
            f"preserved as {sidecar.name} and the store reads as empty",
            CorruptCacheWarning,
            stacklevel=2,
        )
    return sidecar


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #


class BlobStore:
    """Content-addressed, sharded dir-of-blobs cache store.

    One canonical-JSON envelope per key under ``<root>/<key[:2]>/<key>.json``;
    every write is atomic per entry (:func:`atomic_write_bytes`), so N
    processes hammering one store lose nothing — each key is its own file,
    and writers of the same key write byte-identical content by the purity
    contract.  ``salt`` stamps each envelope with the cache generation that
    produced it (``cache gc`` retires orphaned generations).

    ``put`` stages entries in memory; ``flush`` persists them one atomic
    file per key.  ``get`` consults the staged set, then the blob tree — so
    entries written by *other* processes after construction are visible.
    """

    def __init__(self, root: str | Path, *, salt: str | None = None) -> None:
        self.root = Path(root)
        self.salt = salt
        self._pending: dict[str, JsonDict] = {}

    def _blob_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------ reading ------------------------------ #
    def get(self, key: str) -> JsonDict | None:
        """The entry under ``key`` from the staged set or the blob tree, or
        ``None`` (missing and malformed entries are both misses)."""
        staged = self._pending.get(key)
        if staged is not None:
            return staged
        if _KEY_PATTERN.fullmatch(key) is None:
            return None
        path = self._blob_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        envelope: object = None
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # A blob only ever appears via os.replace, so a parse failure
            # means outside interference, not a crashed writer: preserve the
            # evidence and clear the slot so the cell can be recomputed.
            preserve_corrupt_file(path, raw, reason="unparseable blob")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(envelope, dict):
            return None
        entry = envelope.get("entry")
        return entry if isinstance(entry, dict) else None

    def keys(self) -> list[str]:
        """Every visible key: persisted blobs and staged entries."""
        found = set(self._pending)
        for blob in _iter_blob_files(self.root):
            found.add(blob.name[: -len(".json")])
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------ writing ------------------------------ #
    def put(self, key: str, entry: JsonDict) -> None:
        if _KEY_PATTERN.fullmatch(key) is None:
            raise ValueError(
                f"invalid cache key {key!r}: blob keys are lowercase hex "
                "digests (canonical_config_hash output)"
            )
        self._pending[key] = entry

    def flush(self) -> None:
        """Persist every staged entry, one atomic file per key."""
        for key in sorted(self._pending):
            envelope = {"key": key, "salt": self.salt, "entry": self._pending[key]}
            data = json.dumps(envelope, sort_keys=True, indent=1)
            atomic_write_bytes(self._blob_path(key), data.encode("utf-8"))
        self._pending.clear()


# --------------------------------------------------------------------------- #
# Fleet hygiene: stats / gc
# --------------------------------------------------------------------------- #


def _iter_blob_files(root: Path) -> Iterator[Path]:
    """Every committed blob file under a shard-tree root, in sorted order
    (corrupt sidecars and stray temp files excluded)."""
    if not root.is_dir():
        return
    for shard in sorted(root.iterdir()):
        if not shard.is_dir():
            continue
        for blob in sorted(shard.iterdir()):
            if (
                blob.is_file()
                and blob.suffix == ".json"
                and ".corrupt-" not in blob.name
            ):
                yield blob


def _iter_stray_tmp_files(root: Path) -> Iterator[Path]:
    """Temp files a crashed writer left behind under a shard-tree root."""
    if not root.is_dir():
        return
    for shard in sorted(root.iterdir()):
        if not shard.is_dir():
            continue
        for child in sorted(shard.iterdir()):
            if child.is_file() and child.suffix == ".tmp":
                yield child


@dataclass
class FamilyStats:
    """Accounting for one cell family's blob root inside a cache directory."""

    name: str
    blobs: int = 0
    blob_bytes: int = 0
    shards: int = 0
    salts: dict[str, int] = field(default_factory=dict)
    corrupt_sidecars: int = 0
    stray_tmp: int = 0

    def to_dict(self) -> JsonDict:
        return {
            "name": self.name,
            "blobs": self.blobs,
            "blob_bytes": self.blob_bytes,
            "shards": self.shards,
            "salts": dict(sorted(self.salts.items())),
            "corrupt_sidecars": self.corrupt_sidecars,
            "stray_tmp": self.stray_tmp,
        }

    def describe(self) -> str:
        salts = (
            ", ".join(f"{salt}={n}" for salt, n in sorted(self.salts.items()))
            or "none"
        )
        return (
            f"{self.name}: {self.blobs} blobs ({self.blob_bytes} bytes, "
            f"{self.shards} shards; salts: {salts}), corrupt sidecars: "
            f"{self.corrupt_sidecars}, stray tmp: {self.stray_tmp}"
        )


def discover_families(cache_dir: Path) -> list[str]:
    """The cell-family names present in a cache directory, one per blob root
    (``<name>.blobs/``).  Everything else in the directory is ignored."""
    if not cache_dir.is_dir():
        return []
    return sorted(
        child.name[: -len(BLOB_SUFFIX)]
        for child in cache_dir.iterdir()
        if child.is_dir() and child.name.endswith(BLOB_SUFFIX)
    )


def collect_stats(cache_dir: Path) -> list[FamilyStats]:
    """Per-family accounting over every blob root in a cache directory."""
    stats: list[FamilyStats] = []
    for name in discover_families(cache_dir):
        family = FamilyStats(name=name)
        root = cache_dir / (name + BLOB_SUFFIX)
        shards: set[str] = set()
        for blob in _iter_blob_files(root):
            family.blobs += 1
            family.blob_bytes += blob.stat().st_size
            shards.add(blob.parent.name)
            envelope: object = None
            try:
                envelope = json.loads(blob.read_bytes().decode("utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError):
                envelope = None
            salt = envelope.get("salt") if isinstance(envelope, dict) else None
            label = salt if isinstance(salt, str) else "<unsalted>"
            family.salts[label] = family.salts.get(label, 0) + 1
        family.shards = len(shards)
        family.stray_tmp = sum(1 for _ in _iter_stray_tmp_files(root))
        family.corrupt_sidecars = sum(1 for _ in root.glob("*/*.corrupt-*"))
        stats.append(family)
    return stats


@dataclass
class GcResult:
    """Outcome of one :func:`gc_blobs` pass over a blob root."""

    examined: int = 0
    kept: int = 0
    removed: int = 0
    removed_bytes: int = 0
    quarantined: int = 0
    tmp_removed: int = 0

    def to_dict(self) -> JsonDict:
        return {
            "examined": self.examined,
            "kept": self.kept,
            "removed": self.removed,
            "removed_bytes": self.removed_bytes,
            "quarantined": self.quarantined,
            "tmp_removed": self.tmp_removed,
        }


def gc_blobs(
    root: Path, keep_salts: frozenset[str], *, dry_run: bool = False
) -> GcResult:
    """Retire blobs whose envelope salt is not in ``keep_salts``.

    A blob is kept exactly when its salt is one of ``keep_salts``, so an
    unsalted envelope is removed too; unparseable blobs are quarantined as
    ``.corrupt-`` sidecars and removed; stray ``*.tmp`` files from crashed
    writers are deleted.  ``dry_run`` counts without deleting.  Run gc only
    while no sweep is writing to the directory — it may remove a live
    writer's in-flight temp file.
    """
    result = GcResult()
    for blob in _iter_blob_files(root):
        result.examined += 1
        size = blob.stat().st_size
        envelope: object = None
        raw = b""
        try:
            raw = blob.read_bytes()
            envelope = json.loads(raw.decode("utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            envelope = None
        if not isinstance(envelope, dict):
            result.quarantined += 1
            if not dry_run:
                preserve_corrupt_file(blob, raw, reason="unparseable blob")
                blob.unlink(missing_ok=True)
            continue
        salt = envelope.get("salt")
        if isinstance(salt, str) and salt in keep_salts:
            result.kept += 1
            continue
        result.removed += 1
        result.removed_bytes += size
        if not dry_run:
            blob.unlink(missing_ok=True)
    for tmp in _iter_stray_tmp_files(root):
        result.tmp_removed += 1
        if not dry_run:
            tmp.unlink(missing_ok=True)
    return result


# --------------------------------------------------------------------------- #
# CLI: python -m repro.eval cache {stats,gc}
# --------------------------------------------------------------------------- #


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval cache",
        description=(
            "Inspect and maintain a sweep-cache directory (one content-addressed "
            "blob store per cell family)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser(
        "stats", help="per-family blob / byte / salt accounting"
    )
    stats.add_argument("--cache-dir", required=True, metavar="PATH")
    stats.add_argument(
        "--json", dest="as_json", action="store_true", help="emit JSON instead of text"
    )

    gc = commands.add_parser(
        "gc", help="retire blobs of orphaned cache salts and stray temp files"
    )
    gc.add_argument("--cache-dir", required=True, metavar="PATH")
    gc.add_argument(
        "--keep-salt",
        action="append",
        default=None,
        metavar="SALT",
        help=(
            "cache generation to keep in every family (repeatable; defaults to "
            "each family's current salt)"
        ),
    )
    gc.add_argument(
        "--dry-run", action="store_true", help="report what would be removed"
    )
    return parser


def cache_main(
    argv: list[str] | None = None,
    *,
    family_salts: Mapping[str, str],
    default_salt: str,
) -> int:
    """Entry point of ``python -m repro.eval cache`` (see module docstring).

    Without ``--keep-salt``, ``gc`` keeps each blob root's current salt:
    ``family_salts[name]`` for a shipped family (keyed by root name, e.g.
    ``accuracy-cache``), ``default_salt`` for any other root.
    """
    args = _build_parser().parse_args(argv)
    cache_dir = Path(args.cache_dir)
    if not cache_dir.is_dir():
        print(f"error: cache directory {cache_dir} does not exist", file=sys.stderr)
        return 2

    if args.command == "stats":
        stats = collect_stats(cache_dir)
        if args.as_json:
            print(json.dumps([family.to_dict() for family in stats], indent=1))
        elif not stats:
            print(f"no cache stores in {cache_dir}")
        else:
            for family in stats:
                print(family.describe())
            print(
                f"total: {sum(f.blobs for f in stats)} blobs, "
                f"{sum(f.blob_bytes for f in stats)} bytes"
            )
        return 0

    if args.command == "gc":
        for name in discover_families(cache_dir):
            keep = frozenset(args.keep_salt or [family_salts.get(name, default_salt)])
            root = cache_dir / (name + BLOB_SUFFIX)
            result = gc_blobs(root, keep, dry_run=args.dry_run)
            verb = "would remove" if args.dry_run else "removed"
            print(
                f"{name}: {verb} {result.removed} of {result.examined} blobs "
                f"({result.removed_bytes} bytes), kept {result.kept} "
                f"(salts: {', '.join(sorted(keep))}), "
                f"quarantined {result.quarantined}, stray tmp: {result.tmp_removed}"
            )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
