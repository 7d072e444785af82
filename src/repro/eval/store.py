"""Content-addressed cache store: the multi-writer-safe persistence substrate.

Every persistent cache in the package — one
:class:`repro.eval.runner.ResultCache` per sweep-cell family, tuning plans
included — is a :class:`BlobStore`:

* a **dir of packs**: each :meth:`BlobStore.flush` commits every entry it
  staged as one *pack*, a canonical-JSON file ``{"salt": ..., "entries":
  {key: entry}}`` keyed by ``canonical_config_hash`` digests, named by its
  own content digest and placed directly under the root
  (``<root>/<digest>.json``).  A flush is a group commit: one unique temp
  file (:func:`tempfile.mkstemp` in the root) + one ``fsync`` + one
  ``os.replace``, however many entries it holds, so a reader never observes a
  partial pack, a crashed writer never corrupts the store, and no writer
  changes another's pack (two packs with one name hold the same bytes).
  Concurrent writers of the *same* key write byte-identical entries (cells
  are pure functions of their hashed config — the SC001 contract), so it is
  harmless which pack a reader takes a key from; where packs disagree the
  newest (by ``mtime``) wins, so a recomputed malformed entry supersedes the
  old one.
* Corrupt packs are never silently destroyed: the raw bytes are preserved as
  a ``.corrupt-<digest>`` sidecar (:func:`preserve_corrupt_file`) with a
  once-per-file :class:`CorruptCacheWarning`, and every key of the pack reads
  as a miss — a corrupted file costs its whole flush's entries.
* :func:`cache_main` is the fleet-hygiene CLI behind ``python -m repro.eval
  cache``: ``stats`` (per-family blob/byte/pack/salt accounting) and ``gc``
  (retires stray temp files and every pack whose salt is not its family's
  current one, or not a ``--keep-salt`` when any is given).

A cache directory holds one blob root per cell family, ``<name>.blobs/``.
Nothing else in it is read: a pre-blob single-file ``<name>.json`` cache and
the two-hex-char shard directories of the earlier one-file-per-entry layout
(``<root>/ab/<key>.json``) are ignored, so such caches read cold and should
be deleted.

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
from collections.abc import Mapping
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
#: outputs).  A pack entry under any other key is dropped on read.
_KEY_PATTERN = re.compile(r"[0-9a-f]{3,128}")

#: Committed pack files: ``<content digest>.json`` directly under a blob
#: root (temp files end in ``.tmp``, corrupt sidecars in ``.corrupt-<d>``).
_PACK_NAME = re.compile(r"[0-9a-f]+\.json")

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
# Packs
# --------------------------------------------------------------------------- #


def _pack_paths(root: Path) -> list[Path]:
    """Every committed pack directly under a blob root, in name order."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return [root / name for name in sorted(names) if _PACK_NAME.fullmatch(name)]


def _parse_pack(raw: bytes) -> tuple[str | None, dict[str, JsonDict]] | None:
    """A pack's salt and well-formed entries, or ``None`` when its bytes are
    not a JSON object.  An entry under an invalid key, or one that is not a
    JSON object, is dropped: it reads as a miss."""
    try:
        pack: object = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(pack, dict):
        return None
    salt = pack.get("salt")
    entries = pack.get("entries")
    if not isinstance(entries, dict):
        entries = {}
    return (
        salt if isinstance(salt, str) else None,
        {
            key: entry
            for key, entry in entries.items()
            if isinstance(entry, dict) and _KEY_PATTERN.fullmatch(key)
        },
    )


def _quarantine(path: Path, raw: bytes) -> None:
    """Preserve an unparseable pack's bytes as a sidecar and remove it.

    A pack only ever appears via ``os.replace``, so a parse failure means
    outside interference, not a crashed writer: keep the evidence and clear
    the pack so its cells are recomputed.
    """
    preserve_corrupt_file(path, raw, reason="unparseable pack")
    try:
        path.unlink()
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #


class BlobStore:
    """Content-addressed pack store of one cell family's entries.

    ``put`` stages entries in memory; ``flush`` commits them as one pack
    (``<root>/<digest>.json``, see the module docstring) — one atomic write
    and one ``fsync`` per flush, not per entry — stamped with ``salt``, the
    cache generation that produced them (``cache gc`` retires orphaned
    generations).  N processes hammering one store lose nothing: each flush
    is its own file.

    ``get`` consults the staged set, then the entries of every pack read so
    far; on a miss it reads every pack it has not read yet, oldest ``mtime``
    first (ties by name), so a newer pack wins a duplicate key and packs
    flushed by *other* processes after construction become visible.
    ``flush`` does not index its own entries, so reads reflect what is on
    disk.
    """

    def __init__(self, root: str | Path, *, salt: str | None = None) -> None:
        self.root = Path(root)
        self.salt = salt
        self._pending: dict[str, JsonDict] = {}
        self._entries: dict[str, JsonDict] = {}
        self._pack_keys: dict[str, list[str]] = {}

    # ------------------------------ reading ------------------------------ #
    def get(self, key: str) -> JsonDict | None:
        """The entry under ``key`` from the staged set or the packs, or
        ``None`` (missing and malformed entries are both misses)."""
        entry = self._pending.get(key)
        if entry is None:
            entry = self._entries.get(key)
        if entry is None:
            self._read_new_packs()
            entry = self._entries.get(key)
        return entry

    def keys(self) -> list[str]:
        """Every visible key: staged entries and those of the packs on disk."""
        found = set(self._pending)
        for name in self._read_new_packs():
            found.update(self._pack_keys.get(name, ()))
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    def _read_new_packs(self) -> list[str]:
        """Index every pack not read yet, oldest ``mtime`` first; return the
        names of every pack on disk."""
        present = _pack_paths(self.root)
        new: list[tuple[int, str, Path]] = []
        for path in present:
            if path.name not in self._pack_keys:
                try:
                    new.append((path.stat().st_mtime_ns, path.name, path))
                except OSError:
                    continue  # removed since the listing
        for _, name, path in sorted(new):
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            pack = _parse_pack(raw)
            if pack is None:
                _quarantine(path, raw)
            entries = pack[1] if pack is not None else {}
            self._pack_keys[name] = list(entries)
            self._entries.update(entries)
        return [path.name for path in present]

    # ------------------------------ writing ------------------------------ #
    def put(self, key: str, entry: JsonDict) -> None:
        if _KEY_PATTERN.fullmatch(key) is None:
            raise ValueError(
                f"invalid cache key {key!r}: blob keys are lowercase hex "
                "digests (canonical_config_hash output)"
            )
        self._pending[key] = entry

    def flush(self) -> None:
        """Commit every staged entry as one pack: canonical JSON (sorted
        keys, compact separators, which keeps json's C encoder) named by its
        content digest, written through :func:`atomic_write_bytes`."""
        if not self._pending:
            return
        data = json.dumps(
            {"salt": self.salt, "entries": self._pending},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        digest = hashlib.blake2b(data, digest_size=16).hexdigest()
        atomic_write_bytes(self.root / f"{digest}.json", data)
        # The new pack supersedes any copy of these keys read earlier; the
        # next read of one loads the pack back from disk.
        for key in self._pending:
            self._entries.pop(key, None)
        self._pending.clear()


# --------------------------------------------------------------------------- #
# Fleet hygiene: stats / gc
# --------------------------------------------------------------------------- #


@dataclass
class FamilyStats:
    """Accounting for one cell family's blob root inside a cache directory:
    ``blobs`` distinct keys in ``packs`` pack files of ``blob_bytes``."""

    name: str
    blobs: int = 0
    blob_bytes: int = 0
    packs: int = 0
    salts: dict[str, int] = field(default_factory=dict)
    corrupt_sidecars: int = 0
    stray_tmp: int = 0

    def to_dict(self) -> JsonDict:
        return {
            "name": self.name,
            "blobs": self.blobs,
            "blob_bytes": self.blob_bytes,
            "packs": self.packs,
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
            f"{self.packs} packs; salts: {salts}), corrupt sidecars: "
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
    """Per-family accounting over every blob root in a cache directory.

    Read-only: an unparseable pack counts its bytes but no blobs, and is
    left for ``gc`` (or the next read) to quarantine.
    """
    stats: list[FamilyStats] = []
    for name in discover_families(cache_dir):
        family = FamilyStats(name=name)
        root = cache_dir / (name + BLOB_SUFFIX)
        labels: dict[str, str] = {}
        for path in _pack_paths(root):
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            family.packs += 1
            family.blob_bytes += len(raw)
            pack = _parse_pack(raw)
            if pack is not None:
                salt, entries = pack
                labels.update(dict.fromkeys(entries, "<unsalted>" if salt is None else salt))
        family.blobs = len(labels)
        for label in labels.values():
            family.salts[label] = family.salts.get(label, 0) + 1
        family.stray_tmp = sum(1 for _ in root.glob("*.tmp"))
        family.corrupt_sidecars = sum(1 for _ in root.glob("*.corrupt-*"))
        stats.append(family)
    return stats


@dataclass
class GcResult:
    """Outcome of one :func:`gc_blobs` pass over a blob root: entry counts
    (``examined``, ``kept``, ``removed``) and pack counts (``quarantined``)."""

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
    """Retire the packs whose salt is not in ``keep_salts``.

    gc keeps or removes whole packs: a pack is kept exactly when its salt is
    one of ``keep_salts``, so an unsalted pack is removed too.  Unparseable
    packs are quarantined as ``.corrupt-`` sidecars and removed; stray
    ``*.tmp`` files from crashed writers are deleted.  ``dry_run`` counts
    without deleting.  Run gc only while no sweep is writing to the
    directory — it may remove a live writer's in-flight temp file.
    """
    result = GcResult()
    for path in _pack_paths(root):
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        pack = _parse_pack(raw)
        if pack is None:
            result.quarantined += 1
            if not dry_run:
                _quarantine(path, raw)
            continue
        salt, entries = pack
        result.examined += len(entries)
        if salt is not None and salt in keep_salts:
            result.kept += len(entries)
            continue
        result.removed += len(entries)
        result.removed_bytes += len(raw)
        if not dry_run:
            path.unlink(missing_ok=True)
    # Temp files a crashed writer left behind.
    for tmp in sorted(root.glob("*.tmp")):
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
        "stats", help="per-family blob / byte / pack / salt accounting"
    )
    stats.add_argument("--cache-dir", required=True, metavar="PATH")
    stats.add_argument(
        "--json", dest="as_json", action="store_true", help="emit JSON instead of text"
    )

    gc = commands.add_parser(
        "gc", help="retire packs of orphaned cache salts and stray temp files"
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
