"""Parallel, cached sweep runner for the paper's evaluation grids.

The paper's evaluation is one large cross-product — models x GPUs x
sparsities x kernels x vector sizes (Figures 1/2/6, Table 1, the Section 6.2
headline).  This module turns those sweeps into data:

* :class:`SweepSpec` declares a timing grid and expands it into hashable
  :class:`RunConfig` cells in a deterministic order;
* :class:`CellTask` describes one family of pure, cached cells: its execute
  function, version salt, cache codec and chunking.  Five families ship:
  the timing grid (:data:`TIMING_TASK`, whose :func:`batched_executor` times
  a cell list on the analytical model, one launch batch per (kernel, GPU)
  group), the accuracy protocol, the pattern search, serve replay and the
  autotuner's plans;
* :class:`SweepRunner` deduplicates a family's cells, resolves them against
  its :class:`ResultCache` and runs the misses in-process or across a
  ``concurrent.futures`` process pool with deterministic chunking;
* :class:`ResultCache` persists finished records as canonical JSON in the
  family's own content-addressed blob root, keyed by a stable config hash
  salted with the family's salt, so re-running a sweep only computes the
  delta; :func:`encode_record` / :func:`record_decoder` are the codec of
  every flat record dataclass;
* :class:`SweepResult` carries the records (in request order) plus cache-hit
  accounting, ready for JSON/CSV export via :class:`repro.eval.report.Report`.

Records are bit-identical between the in-process and parallel paths: every
cell is a pure function of its config, so the executor only decides *where*
a float is computed, never its value.

Bump :data:`MODEL_VERSION` whenever the timing model changes semantically,
and a family's own salt (:data:`ACCURACY_SALT`, :data:`PATTERN_SEARCH_SALT`,
:data:`SERVE_SALT`) whenever its records change; the salt flows into every
cache key of its family, so stale caches invalidate themselves.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, TypeVar, cast

from .store import BLOB_SUFFIX, BlobStore, CorruptCacheWarning

if TYPE_CHECKING:
    import numpy as np

    from ..kernels.base import LaunchCells, SpMMKernel

#: Config / record element types of the generic process-pool maps.
C = TypeVar("C")
R = TypeVar("R")

__all__ = [
    "MODEL_VERSION",
    "ACCURACY_SALT",
    "PATTERN_SEARCH_SALT",
    "SERVE_SALT",
    "canonical_config_hash",
    "RunConfig",
    "RunRecord",
    "KernelSpec",
    "SweepSpec",
    "SweepResult",
    "CellTask",
    "TIMING_TASK",
    "CacheStats",
    "BlobStore",
    "CorruptCacheWarning",
    "ResultCache",
    "SweepRunner",
    "batched_executor",
    "encode_record",
    "record_decoder",
    "strided_process_map",
    "contiguous_process_map",
]

#: Version salt of the analytical timing model.  It participates in every
#: cache key, so bumping it (whenever simulator / kernel timing semantics
#: change) orphans all previously cached results instead of silently
#: serving stale numbers.
MODEL_VERSION = "timing-v2"

#: Version salts of the other cell families, one per family, so a change to
#: one family's records re-keys only that family's cells (a timing bump no
#: longer discards accuracy results).  Bump a family's salt whenever its
#: records would change; the timing grid and tuning plans keep
#: :data:`MODEL_VERSION`.
ACCURACY_SALT = "accuracy-v1"
PATTERN_SEARCH_SALT = "pattern-search-v1"
SERVE_SALT = "serve-v2"


def canonical_config_hash(payload: Mapping, *, salt: str = MODEL_VERSION) -> str:
    """Stable hex digest of a config's canonical dict form.

    The one keying scheme every sweep-cell family (timing :class:`RunConfig`,
    accuracy, pattern-search, serve and tuning cells) shares: canonical JSON
    (sorted keys, exact float ``repr``) with the salt folded into the
    payload, digested with blake2b — never Python's per-process ``hash()``,
    so the same config hashes identically across interpreter restarts,
    ``PYTHONHASHSEED`` values and kwargs insertion orders.

    A payload carrying its own top-level ``"salt"`` key is rejected: it
    would silently *replace* the version salt in the hashed dict
    (``{"salt": salt, **payload}`` lets the payload win), so such a config
    would never invalidate on a version bump.  Nested dicts
    (e.g. ``kernel_kwargs``) may use the name freely.
    """
    if "salt" in payload:
        raise ValueError(
            "config payloads must not define a top-level 'salt' key: it "
            "would override the cache's version salt and survive version "
            "bumps"
        )
    data = json.dumps(
        {"salt": salt, **payload}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.blake2b(data.encode("utf-8"), digest_size=16).hexdigest()


def _freeze_kwargs(
    kwargs: Mapping[str, object] | Iterable[tuple[str, object]],
) -> tuple[tuple[str, object], ...]:
    """Normalise kernel kwargs (mapping or pair-iterable) to a sorted tuple."""
    if isinstance(kwargs, Mapping):
        items = kwargs.items()
    else:
        items = tuple(kwargs)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class RunConfig:
    """One hashable cell of a sweep grid.

    Exactly one of ``model`` (a :func:`repro.models.shapes.model_layers`
    name) or ``gemm`` (an explicit ``(M, N, K)`` problem) identifies the
    workload.  ``sparsity`` is the weight sparsity (0 for dense baselines),
    ``kernel`` a :func:`repro.kernels.registry.make_kernel` name and
    ``kernel_kwargs`` its constructor arguments (``vector_size``,
    ``block_size``, ...) as a sorted tuple of pairs so insertion order never
    leaks into equality or the cache key.  ``label`` is the display name used
    in reports; it is cosmetic and excluded from equality and hashing.
    """

    kernel: str
    gpu: str
    sparsity: float
    model: str | None = None
    gemm: tuple[int, int, int] | None = None
    kernel_kwargs: tuple[tuple[str, object], ...] = ()
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.model is None) == (self.gemm is None):
            raise ValueError("exactly one of model / gemm must be set")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        if self.gemm is not None:
            object.__setattr__(self, "gemm", tuple(int(v) for v in self.gemm))
        object.__setattr__(self, "kernel_kwargs", _freeze_kwargs(self.kernel_kwargs))

    @property
    def density(self) -> float:
        """Non-zero fraction of the weight matrix."""
        return 1.0 - self.sparsity

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.kernel

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {
            "kernel": self.kernel,
            "gpu": self.gpu,
            "sparsity": self.sparsity,
            "model": self.model,
            "gemm": list(self.gemm) if self.gemm is not None else None,
            "kernel_kwargs": dict(self.kernel_kwargs),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        gemm = data.get("gemm")
        return cls(
            kernel=data["kernel"],
            gpu=data["gpu"],
            sparsity=data["sparsity"],
            model=data.get("model"),
            gemm=tuple(gemm) if gemm is not None else None,
            kernel_kwargs=_freeze_kwargs(data.get("kernel_kwargs", {})),
            label=data.get("label"),
        )

    def config_hash(self, *, salt: str = MODEL_VERSION) -> str:
        """Stable hex digest of this config (see
        :func:`canonical_config_hash`)."""
        return canonical_config_hash(self.to_dict(), salt=salt)


@dataclass(frozen=True)
class RunRecord:
    """Result of evaluating one :class:`RunConfig` on the timing model.

    ``status`` is ``"ok"`` (with ``time_s`` set, plus ``bound`` for
    single-GEMM cells) or ``"not-applicable"`` (with ``detail`` naming the
    reason), mirroring the bars missing from the paper's figures.
    """

    config: RunConfig
    status: str
    time_s: float | None = None
    bound: str | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """Flat JSON/CSV-friendly form (one row per record)."""
        return {
            **self.config.to_dict(),
            "label": self.config.display_label,
            "status": self.status,
            "time_s": self.time_s,
            "bound": self.bound,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class KernelSpec:
    """One kernel line of a sweep: registry name, constructor kwargs, display
    label and an optional per-kernel sparsity override (e.g. dense reference
    curves that only run at sparsity 0)."""

    name: str
    kwargs: tuple[tuple[str, object], ...] = ()
    label: str | None = None
    sparsities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kwargs", _freeze_kwargs(self.kwargs))
        if self.sparsities is not None:
            object.__setattr__(self, "sparsities", tuple(self.sparsities))

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.name


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep grid.

    ``models`` names workloads timed over their real layer shapes (each cell
    sums its layers' weighted times, see :func:`batched_executor`);
    alternatively ``gemm`` pins one explicit ``(M, N, K)`` problem (the
    Figure 1 mode).  ``dense_baseline`` (a registry name, or ``None`` to
    disable) adds one sparsity-0 config per (workload, GPU) so speedups can
    be formed without re-simulating the dense reference per kernel cell.
    """

    kernels: tuple[KernelSpec, ...]
    gpus: tuple[str, ...]
    sparsities: tuple[float, ...]
    models: tuple[str, ...] = ()
    gemm: tuple[int, int, int] | None = None
    dense_baseline: str | None = "dense"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "gpus", tuple(self.gpus))
        object.__setattr__(self, "sparsities", tuple(self.sparsities))
        object.__setattr__(self, "models", tuple(self.models))
        if bool(self.models) == (self.gemm is not None):
            raise ValueError("exactly one of models / gemm must be set")
        if self.gemm is not None:
            object.__setattr__(self, "gemm", tuple(int(v) for v in self.gemm))
        if not self.kernels:
            raise ValueError("a sweep needs at least one kernel")
        if not self.gpus:
            raise ValueError("a sweep needs at least one GPU")

    def dense_config(self, model: str | None, gpu: str) -> RunConfig:
        """The dense-baseline cell of one (workload, GPU) pair."""
        if self.dense_baseline is None:
            raise ValueError("this spec has no dense baseline")
        return RunConfig(
            kernel=self.dense_baseline,
            gpu=gpu,
            sparsity=0.0,
            model=model,
            gemm=self.gemm,
            label=f"{self.dense_baseline} (baseline)",
        )

    def config(
        self, kernel: KernelSpec, model: str | None, gpu: str, sparsity: float
    ) -> RunConfig:
        """The cell of one kernel line at one operating point."""
        return RunConfig(
            kernel=kernel.name,
            gpu=gpu,
            sparsity=sparsity,
            model=model,
            gemm=self.gemm,
            kernel_kwargs=kernel.kwargs,
            label=kernel.display_label,
        )

    def expand(self) -> list[RunConfig]:
        """The full grid, workload-major, in a deterministic order."""
        subjects: tuple[str | None, ...] = self.models if self.models else (None,)
        configs: list[RunConfig] = []
        for model in subjects:
            for gpu in self.gpus:
                if self.dense_baseline is not None:
                    configs.append(self.dense_config(model, gpu))
                for kernel in self.kernels:
                    grid = (
                        kernel.sparsities
                        if kernel.sparsities is not None
                        else self.sparsities
                    )
                    for sparsity in grid:
                        configs.append(self.config(kernel, model, gpu, sparsity))
        return configs


def batched_executor(configs: list[RunConfig]) -> list[RunRecord]:
    """Evaluate grid cells on the analytical timing model, in order.

    Cells are grouped by (kernel, kwargs, GPU) and each group's whole
    workload x sparsity grid — every layer of every model cell plus every
    explicit GEMM cell — is described in one
    :meth:`~repro.kernels.base.SpMMKernel.build_layer_cells` batch; one
    ``simulate_batch`` call per GPU then times every group, and model cells
    sum their weighted layer times in layer order.

    Kernel-inapplicability — wrong GPU, fixed-density patterns, missing
    convolution support, shapes a kernel cannot tile — is data, not an
    exception: the cell gets a ``"not-applicable"`` record whose detail is
    the rejection of its first rejected layer.  Grid-setup errors (unknown
    GPU / kernel / model, malformed GEMM shape) raise, because they mean the
    *spec* is wrong.  Pure function of ``configs`` (module-level, so it
    pickles into ``ProcessPoolExecutor`` workers); the execute function of
    :data:`TIMING_TASK`.
    """
    # Imported lazily: this module is the orchestration substrate the sweep
    # modules build on, so importing them at the top would be circular.
    import numpy as np

    from ..gpu.arch import get_gpu
    from ..gpu.simulator import LaunchBatch, simulate_batch
    from ..kernels.registry import make_kernel

    records: list[RunRecord | None] = [None] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(
            (config.kernel, config.kernel_kwargs, config.gpu), []
        ).append(index)

    kernels: dict[tuple[str, tuple[tuple[str, object], ...]], SpMMKernel] = {}
    templates: dict[tuple, _CellTemplate] = {}
    per_gpu: dict[str, list[tuple[LaunchCells, np.ndarray, list]]] = {}
    # Arch-agnostic kernels describe the same launches on every GPU; reuse
    # the cells built for the same composition instead of rebuilding them.
    agnostic_cells: dict[tuple, LaunchCells] = {}
    for (kernel_name, kernel_kwargs, gpu), indices in groups.items():
        arch = get_gpu(gpu)
        kernel_key = (kernel_name, kernel_kwargs)
        kernel = kernels.get(kernel_key)
        if kernel is None:
            kernel = kernels.setdefault(
                kernel_key, make_kernel(kernel_name, **dict(kernel_kwargs))
            )
        detail = kernel.capabilities().unsupported_arch(arch)
        if detail is not None:
            for i in indices:
                records[i] = RunRecord(
                    configs[i], status="not-applicable", detail=detail
                )
            continue

        parts: list[tuple[_CellTemplate, float]] = []
        spans: list[tuple[int, int, int]] = []
        cells = 0
        for i in indices:
            config = configs[i]
            key = (config.model, config.gemm)
            template = templates.get(key)
            if template is None:
                template = templates.setdefault(key, _cell_template(config))
            spans.append((i, cells, cells + len(template.counts)))
            cells += len(template.counts)
            parts.append((template, config.density))
        counts = np.concatenate([template.counts for template, _ in parts])

        signature = None
        built: LaunchCells | None = None
        if kernel.launch_arch_agnostic:
            signature = (
                kernel_key,
                tuple((configs[i].model, configs[i].gemm, configs[i].density) for i in indices),
            )
            built = agnostic_cells.get(signature)
        if built is None:
            ms, ns, ks = (
                np.concatenate([template.shapes[d] for template, _ in parts])
                for d in range(3)
            )
            built = kernel.build_layer_cells(
                arch,
                (ms, ns, ks),
                np.repeat(
                    np.array([density for _, density in parts]),
                    [len(template.counts) for template, _ in parts],
                ),
                kernel_sizes=np.concatenate(
                    [template.kernel_sizes for template, _ in parts]
                ),
            )
            if signature is not None:
                agnostic_cells[signature] = built
        per_gpu.setdefault(gpu, []).append((built, counts, spans))

    # One simulate_batch call per GPU covers every kernel group's cells (the
    # model is element-wise, so concatenation cannot change any number).
    for gpu, entries in per_gpu.items():
        timing = simulate_batch(
            get_gpu(gpu), LaunchBatch.concat([built.batch for built, _, _ in entries])
        )
        offset = 0
        for built, counts, spans in entries:
            size = len(built.errors)
            totals = timing.total_time_s[offset : offset + size]
            times = totals + built.unfold_time(totals)
            # The per-layer `time * count` terms accumulate in layer order as
            # plain Python floats (not a pairwise reduction).
            weighted = (times * counts).tolist()
            for i, start, stop in spans:
                config = configs[i]
                cell_errors = built.errors[start:stop]
                error = (
                    next(e for e in cell_errors if e is not None)
                    if any(cell_errors)
                    else None
                )
                if error is not None:
                    records[i] = RunRecord(
                        config, status="not-applicable", detail=str(error)
                    )
                elif config.gemm is not None:
                    records[i] = RunRecord(
                        config,
                        status="ok",
                        time_s=float(times[start]),
                        bound=timing.bound[offset + start],
                    )
                else:
                    total = 0.0
                    for term in weighted[start:stop]:
                        total += term
                    records[i] = RunRecord(config, status="ok", time_s=total)
            offset += size

    assert all(record is not None for record in records)
    return cast("list[RunRecord]", records)


@dataclass(frozen=True)
class _CellTemplate:
    """The simulator cells one workload expands to: per layer the GEMM shape
    (as ``(ms, ns, ks)`` arrays), the conv kernel size (0 for linear layers)
    and the occurrence count."""

    shapes: tuple[np.ndarray, np.ndarray, np.ndarray]
    kernel_sizes: np.ndarray
    counts: np.ndarray


def _cell_template(config: RunConfig) -> _CellTemplate:
    import numpy as np

    from ..kernels.base import GEMMShape
    from ..models.shapes import model_layers

    if config.gemm is not None:
        shape = GEMMShape(*config.gemm)
        return _CellTemplate(
            shapes=(
                np.array([shape.m], dtype=np.int64),
                np.array([shape.n], dtype=np.int64),
                np.array([shape.k], dtype=np.int64),
            ),
            kernel_sizes=np.zeros(1, dtype=np.int64),
            counts=np.ones(1, dtype=np.int64),
        )
    assert config.model is not None  # RunConfig sets exactly one of model / gemm
    layers = model_layers(config.model)
    return _CellTemplate(
        shapes=(
            np.array([layer.gemm.m for layer in layers], dtype=np.int64),
            np.array([layer.gemm.n for layer in layers], dtype=np.int64),
            np.array([layer.gemm.k for layer in layers], dtype=np.int64),
        ),
        kernel_sizes=np.array(
            [layer.conv_kernel_size for layer in layers], dtype=np.int64
        ),
        counts=np.array([layer.count for layer in layers], dtype=np.int64),
    )


def strided_process_map(
    execute: Callable[[list[C]], list[R]], configs: list[C], jobs: int
) -> list[R]:
    """Map an executor over configs across a process pool, deterministically.

    Configs are strided round-robin over ``jobs`` contiguous worker chunks
    (``configs[i::jobs]``), which both balances heavyweight workloads and is
    a pure function of the input order, so the reassembled record list is
    identical to running ``execute`` over the whole list serially.
    ``execute`` must be a module-level function (it pickles into the worker
    processes by reference) mapping a config list to a record list in order.
    ``jobs`` <= 1 (or a single config) runs ``execute(configs)`` in-process.
    """
    jobs = min(jobs, len(configs))
    if jobs <= 1:
        return execute(configs)
    chunks = [configs[i::jobs] for i in range(jobs)]
    records: list[R | None] = [None] * len(configs)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for offset, chunk_records in zip(range(jobs), pool.map(execute, chunks), strict=True):
            for index, record in zip(range(offset, len(configs), jobs), chunk_records, strict=True):
                records[index] = record
    assert all(record is not None for record in records)
    return cast("list[R]", records)


def contiguous_process_map(
    execute: Callable[[list[C]], list[R]], configs: list[C], jobs: int
) -> list[R]:
    """Map an executor over configs across a process pool in contiguous runs.

    The deterministic counterpart of :func:`strided_process_map` for cell
    families whose executor memoises expensive shared state per *adjacent*
    group — e.g. the accuracy cells, laid out model-major, whose executor
    trains one dense proxy per model and process.  Contiguous chunks mean
    each worker crosses at most one group boundary per neighbour instead of
    re-deriving every group's state, while reassembly (plain concatenation)
    stays a pure function of the input order.
    """
    jobs = min(jobs, len(configs))
    if jobs <= 1:
        return execute(configs)
    bounds = [round(i * len(configs) / jobs) for i in range(jobs + 1)]
    chunks = [configs[bounds[i] : bounds[i + 1]] for i in range(jobs)]
    records: list[R] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for chunk_records in pool.map(execute, chunks):
            records.extend(chunk_records)
    assert len(records) == len(configs)
    return records


def encode_record(record: Any) -> dict:
    """Cache codec of every flat record dataclass: a debuggable JSON entry
    holding the canonical config dict next to every other field."""
    entry = {"config": record.config.to_dict()}
    for spec in fields(record):
        if spec.name != "config":
            entry[spec.name] = getattr(record, spec.name)
    return entry


def record_decoder(record_type: Callable[..., R]) -> Callable[[Any, Mapping], R | None]:
    """The decoder of :func:`encode_record` entries of ``record_type``.

    The record is re-bound to the requesting config; an optional field the
    entry lacks takes its default, and an entry lacking a required field
    (``status``) is malformed and reads as a miss (``None``).
    """
    record_fields = [spec for spec in fields(cast(Any, record_type)) if spec.name != "config"]

    def decode(config: Any, entry: Mapping) -> R | None:
        values: dict[str, Any] = {}
        for spec in record_fields:
            if spec.name in entry:
                values[spec.name] = entry[spec.name]
            elif spec.default is MISSING:
                return None
        return record_type(config=config, **values)

    return decode


@dataclass(frozen=True)
class CellTask:
    """Execution and persistence recipe for one family of sweep cells.

    Every sweep runs through :meth:`SweepRunner.run_cells` with one of
    these: the timing grid (:data:`TIMING_TASK`), the Table 1 / Figure 2
    accuracy protocol, the Shfl-BW pattern search, serve replay and the
    autotuner's plans each define a hashable config dataclass and describe
    themselves here:

    * ``name`` names the family's blob root inside the runner's cache
      directory (``<name>-cache.blobs/``, one pack file per flush), so
      different record schemas never share a store.
    * ``execute`` maps a config list to a record list *in order*.  It must
      be a module-level function so it pickles by reference into
      ``ProcessPoolExecutor`` workers, and every record must be a frozen
      dataclass with a ``config`` field (records are re-bound to the
      requesting config after deduplication and cache round-trips).
    * ``salt`` is the family's version salt: it keys every cell
      (``config.config_hash(salt=...)``) and stamps every pack, so bumping
      it reads as a cold cache instead of stale hits.
    * ``encode`` / ``decode`` are the cache codec (record -> JSON entry and
      back; ``decode`` returns ``None`` for malformed entries).  Flat
      records use :func:`encode_record` / :func:`record_decoder`.
    * ``chunking`` picks how a parallel run splits cells over workers:
      ``"strided"`` (round-robin, balances heterogeneous cell costs) or
      ``"contiguous"`` (runs of adjacent cells, preserves per-worker memo
      locality when the executor caches expensive state per adjacent group
      — the accuracy cells' per-model dense proxies).

    Configs must expose ``config_hash(salt=...)`` built on canonical JSON,
    like :class:`RunConfig`.
    """

    name: str
    execute: Callable[[list], list]
    salt: str
    encode: Callable[[Any], dict]
    decode: Callable[[Any, Mapping], object | None]
    chunking: str = "strided"

    def __post_init__(self) -> None:
        if self.chunking not in ("strided", "contiguous"):
            raise ValueError("chunking must be 'strided' or 'contiguous'")


#: The timing grid as a cell family: :class:`RunConfig` cells timed by
#: :func:`batched_executor`, strided over workers so the convolution-heavy
#: ResNet cells interleave with the cheap GEMM cells.
TIMING_TASK = CellTask(
    name="sweep",
    execute=batched_executor,
    salt=MODEL_VERSION,
    encode=encode_record,
    decode=record_decoder(RunRecord),
)


class ResultCache:
    """Persistent on-disk cache of one cell family's records.

    Entries live in a content-addressed :class:`~repro.eval.store.BlobStore`
    under ``<cache_dir>/<task.name>-cache.blobs/``, stamped with the task's
    salt: each flush commits its cells as one atomic canonical-JSON pack,
    safe for concurrent writers.  They are read and written by the
    ``config_hash(salt=task.salt)`` digest the runner already computed,
    through the task's codec, and each entry keeps the canonical config dict
    next to the result payload so the store is debuggable by eye.
    """

    def __init__(self, cache_dir: str | Path, task: CellTask) -> None:
        self.task = task
        self._store = BlobStore(
            Path(cache_dir) / f"{task.name}-cache{BLOB_SUFFIX}", salt=task.salt
        )
        self.path = self._store.root

    def get(self, digest: str, config: object) -> object | None:
        """Cached record under ``digest``, re-bound to the caller's config
        instance (which may carry a different cosmetic label)."""
        entry = self._store.get(digest)
        if entry is None:
            return None
        return self.task.decode(config, entry)

    def put(self, digest: str, record: object) -> None:
        self._store.put(digest, self.task.encode(record))

    def flush(self) -> None:
        """Persist staged entries as one pack: a single atomic file however
        many entries it holds (unique temp + one fsync + rename)."""
        self._store.flush()


@dataclass
class CacheStats:
    """Cache accounting accumulated across a runner's lifetime."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run_cells` call: records in request
    order plus cache accounting.  :meth:`SweepRunner.run` also sets
    ``spec``, the timing grid the records expand."""

    records: list
    cache_hits: int = 0
    cache_misses: int = 0
    spec: SweepSpec | None = None

    @property
    def hit_rate(self) -> float:
        return CacheStats(self.cache_hits, self.cache_misses).hit_rate

    def by_config(self) -> dict:
        """Lookup table from config to record (labels ignored, like equality)."""
        return {record.config: record for record in self.records}

    def record_dicts(self) -> list[dict]:
        return [record.to_dict() for record in self.records]


class SweepRunner:
    """Runs sweep cells with deduplication, caching and parallelism.

    Every cell family is a :class:`CellTask`; :meth:`run` is the timing
    grid's entry point.  Cells run in-process, or — with ``jobs`` > 1 —
    across a process pool chunked by the task's policy.  ``cache_dir``
    enables one persistent :class:`ResultCache` per family (a
    content-addressed, multi-writer-safe
    :class:`~repro.eval.store.BlobStore`; each :meth:`run_cells` call writes
    its misses as one pack).  The runner deduplicates
    identical cells, so a config appearing twice is computed once.
    ``stats`` accumulates hit/miss counts across every call on this runner.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._caches: dict[CellTask, ResultCache] = {}
        self.stats = CacheStats()

    def cell_cache(self, task: CellTask) -> ResultCache | None:
        """The task's :class:`ResultCache` (``None`` without a cache dir)."""
        if self.cache_dir is None:
            return None
        cache = self._caches.get(task)
        if cache is None:
            cache = self._caches.setdefault(task, ResultCache(self.cache_dir, task))
        return cache

    def run(self, spec: SweepSpec) -> SweepResult:
        """Evaluate a timing grid: its expanded cells through
        :data:`TIMING_TASK`, with ``spec`` attached to the result."""
        result = self.run_cells(spec.expand(), TIMING_TASK)
        result.spec = spec
        return result

    def run_cells(self, configs: Iterable, task: CellTask) -> SweepResult:
        """Evaluate one family of sweep cells: dedup -> cache lookup ->
        execute -> cache write.

        Each config is hashed once with the task's salt; that digest keys
        deduplication and the cache.  Misses run through the task's
        ``execute`` — serially in-process, or chunked across a process pool
        when the runner was built with ``jobs`` > 1.  Records come back in
        request order, each re-bound to the requesting config so cosmetic
        labels survive deduplication and cache round-trips.
        """
        configs = list(configs)
        cache = self.cell_cache(task)
        digests = [config.config_hash(salt=task.salt) for config in configs]
        unique: dict[str, object] = {}
        for digest, config in zip(digests, configs, strict=True):
            unique.setdefault(digest, config)

        resolved: dict[str, object] = {}
        pending: list[tuple[str, object]] = []
        for digest, config in unique.items():
            cached = cache.get(digest, config) if cache is not None else None
            if cached is not None:
                resolved[digest] = cached
            else:
                pending.append((digest, config))

        if pending:
            todo = [config for _, config in pending]
            process_map = (
                contiguous_process_map
                if task.chunking == "contiguous"
                else strided_process_map
            )
            computed = process_map(task.execute, todo, self.jobs or 1)
            for (digest, _), record in zip(pending, computed, strict=True):
                resolved[digest] = record
                if cache is not None:
                    cache.put(digest, record)
            if cache is not None:
                cache.flush()

        hits = len(unique) - len(pending)
        self.stats.hits += hits
        self.stats.misses += len(pending)
        return SweepResult(
            records=[
                replace(cast(Any, resolved[digest]), config=config)
                for digest, config in zip(digests, configs, strict=True)
            ],
            cache_hits=hits,
            cache_misses=len(pending),
        )
