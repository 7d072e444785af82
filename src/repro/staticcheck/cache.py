"""Content-addressed persistence for parsed modules and rule findings.

Two caches back the ``--cache-dir`` CLI flag, both keyed by source content
hashes so stale entries are impossible by construction (an edited file has
a new digest and simply misses):

* :class:`ParseCache` — one pickled
  :class:`~repro.staticcheck.project.ModuleInfo` per (display path, source
  digest), skipping the parse and the import/definition indexing of
  unchanged files;
* :class:`FindingsCache` — the raw (pre-suppression) findings of the
  ordinary rules, keyed by the digest of every indexed file's (path, hash)
  pair plus the rule ids.  Rules are pure functions of the index, so a warm
  unchanged run skips them wholesale — and with them the dataflow layer,
  which only rules consume; post rules (SC008) re-run every time — they
  are cheap and depend only on cached inputs.

Every key is salted with a digest of the ``repro.staticcheck`` sources
themselves and the running Python minor version (AST shapes differ across
versions): an edit to a rule, the scanner, the parser or the pickled shapes
misses every entry, even on a run whose paths leave the linter out.  Writes
go through a unique temp file plus :func:`os.replace` — the same atomic,
multi-writer safe discipline as :mod:`repro.eval.store`.  A corrupt or
unreadable entry is treated as a miss, never an error.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
from pathlib import Path

from .findings import Finding
from .project import ModuleInfo, ProjectIndex

__all__ = ["FindingsCache", "ParseCache"]


@functools.cache
def _sources_digest() -> str:
    """Digest of every ``.py`` file of this package, by relative path."""
    package = Path(__file__).resolve().parent
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _salt() -> bytes:
    return (
        f"staticcheck-cache-{_sources_digest()}"
        f"-py{sys.version_info[0]}.{sys.version_info[1]}"
    ).encode()


def _key(*parts: str) -> str:
    digest = hashlib.blake2b(_salt(), digest_size=16)
    for part in parts:
        digest.update(b"\x00")
        digest.update(part.encode())
    return digest.hexdigest()


class _PickleStore:
    """A directory of atomically written pickle blobs keyed by digest."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.root.mkdir(parents=True, exist_ok=True)

    def load(self, key: str) -> object | None:
        try:
            return pickle.loads((self.root / f"{key}.pkl").read_bytes())
        except Exception:
            return None  # a miss, a corrupt entry, or an unreadable one

    def store(self, key: str, value: object) -> None:
        final = self.root / f"{key}.pkl"
        tmp = self.root / f".tmp-{os.getpid()}-{key}.pkl"
        try:
            tmp.write_bytes(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, final)
        except OSError:
            tmp.unlink(missing_ok=True)  # caching is best-effort


class ParseCache:
    """Per-file cache of parsed+indexed :class:`ModuleInfo` records."""

    def __init__(self, cache_dir: Path) -> None:
        self._store = _PickleStore(Path(cache_dir) / "modules")

    def load(self, display_path: str, content_hash: str) -> ModuleInfo | None:
        value = self._store.load(_key(display_path, content_hash))
        return value if isinstance(value, ModuleInfo) else None

    def store(self, display_path: str, content_hash: str, module: ModuleInfo) -> None:
        self._store.store(_key(display_path, content_hash), module)


def project_key(index: ProjectIndex) -> str:
    """Digest over every indexed file's (display path, content hash) pair."""
    items = sorted(
        (module.display_path, module.content_hash) for module in index.all_modules
    )
    return _key(*(part for item in items for part in item))


class FindingsCache:
    """Whole-project cache of the ordinary rules' raw findings."""

    def __init__(self, cache_dir: Path) -> None:
        self._store = _PickleStore(Path(cache_dir) / "findings")

    @staticmethod
    def _run_key(index: ProjectIndex, rule_ids: frozenset[str]) -> str:
        return _key(project_key(index), *sorted(rule_ids))

    def load(
        self, index: ProjectIndex, rule_ids: frozenset[str]
    ) -> list[Finding] | None:
        value = self._store.load(self._run_key(index, rule_ids))
        if not isinstance(value, list):
            return None
        for finding in value:
            if not isinstance(finding, Finding):
                return None
        return value

    def store(
        self, index: ProjectIndex, rule_ids: frozenset[str], findings: list[Finding]
    ) -> None:
        self._store.store(self._run_key(index, rule_ids), findings)
