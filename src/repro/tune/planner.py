"""Cost-model-driven kernel autotuner and its persistent plan cache.

The paper's central observation is that no single sparse kernel wins
everywhere — the best choice among shfl-bw, sputnik, cuSPARSELt, vector-wise,
tile-wise and dense GEMM depends on layer shape, sparsity and GPU (the
Figure 1 regions).  The :class:`Autotuner` turns that observation into an
execution plan: for every layer of a workload it enumerates the candidate
pool (:func:`repro.tune.candidates.default_candidates`), prunes statically
infeasible kernels from their capability metadata, scores the survivors with
the analytical timing model (:func:`repro.eval.speedup.layer_times_grid`,
one batched call per candidate) and assigns each layer the argmin.  An optional
:class:`~repro.tune.measure.MeasuredRefiner` re-ranks the analytical top-k by
measured functional wall time.

Plans are persistent and versioned: :class:`PlanCache` stores them as JSON
keyed by the :func:`repro.eval.runner.canonical_config_hash` of the
request — the keying of every sweep-cell family — salted with
:data:`repro.eval.runner.MODEL_VERSION`, so a timing-model bump orphans every
cached plan instead of silently serving stale assignments.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..eval.runner import (
    MODEL_VERSION,
    CacheStats,
    KernelSpec,
    _freeze_kwargs,
    canonical_config_hash,
)
from ..eval.store import BlobStore, blob_root_for
from ..gpu.arch import get_gpu
from ..kernels.base import GEMMShape, KernelNotApplicableError
from ..models.shapes import LayerShape, model_layers
from .candidates import (
    build_kernel,
    candidate_density,
    default_candidates,
)
from .measure import Refiner

__all__ = [
    "PLAN_FILENAME",
    "LayerAssignment",
    "TuningPlan",
    "PlanCache",
    "Autotuner",
    "gemm_layer",
]

#: Names the :class:`PlanCache`'s blob root inside its cache directory
#: (``tuning-plans.blobs/``).
PLAN_FILENAME = "tuning-plans.json"


def gemm_layer(gemm: tuple[int, int, int], *, name: str | None = None) -> LayerShape:
    """A single explicit ``(M, N, K)`` problem as a one-layer workload
    (the Figure 1 tuning mode)."""
    m, n, k = (int(v) for v in gemm)
    return LayerShape(name or f"gemm-{m}x{n}x{k}", GEMMShape(m=m, n=n, k=k))


@dataclass(frozen=True)
class LayerAssignment:
    """The tuned kernel choice for one layer of a workload.

    ``time_s`` is the modelled time of one occurrence; ``count`` the layer's
    multiplicity; ``considered`` / ``pruned`` record how many candidates were
    scored and how many the static capability stage rejected.
    """

    layer: str
    kernel: str
    kernel_kwargs: tuple[tuple[str, object], ...]
    label: str
    time_s: float
    count: int = 1
    considered: int = 0
    pruned: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel_kwargs", _freeze_kwargs(self.kernel_kwargs))

    @property
    def total_time_s(self) -> float:
        """Modelled time of all occurrences of the layer."""
        return self.time_s * self.count

    def to_dict(self) -> dict:
        """JSON-serialisable form (the unit ``TuningPlan`` persists)."""
        return {
            "layer": self.layer,
            "kernel": self.kernel,
            "kernel_kwargs": dict(self.kernel_kwargs),
            "label": self.label,
            "time_s": self.time_s,
            "count": self.count,
            "considered": self.considered,
            "pruned": self.pruned,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LayerAssignment":
        """Rebuild an assignment from its :meth:`to_dict` form."""
        return cls(
            layer=data["layer"],
            kernel=data["kernel"],
            kernel_kwargs=_freeze_kwargs(data.get("kernel_kwargs", {})),
            label=data.get("label", data["kernel"]),
            time_s=data["time_s"],
            count=data.get("count", 1),
            considered=data.get("considered", 0),
            pruned=data.get("pruned", 0),
        )


@dataclass(frozen=True)
class TuningPlan:
    """A versioned per-layer kernel assignment for one operating point.

    Exactly one of ``model`` (a :func:`repro.models.shapes.model_layers`
    name) or ``gemm`` (an explicit problem) identifies the workload, the same
    convention as :class:`repro.eval.runner.RunConfig`.  ``mode`` is
    ``"model"`` for purely analytical plans and ``"measured"`` when a
    refinement pass re-ranked the shortlist; ``salt`` pins the timing-model
    version the plan was produced under.
    """

    gpu: str
    sparsity: float
    assignments: tuple[LayerAssignment, ...]
    model: str | None = None
    gemm: tuple[int, int, int] | None = None
    mode: str = "model"
    salt: str = MODEL_VERSION
    candidates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.model is None) == (self.gemm is None):
            raise ValueError("exactly one of model / gemm must be set")
        object.__setattr__(self, "assignments", tuple(self.assignments))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.gemm is not None:
            object.__setattr__(self, "gemm", tuple(int(v) for v in self.gemm))

    @property
    def workload(self) -> str:
        """Human-readable workload identifier."""
        if self.model is not None:
            return self.model
        m, n, k = self.gemm
        return f"gemm-{m}x{n}x{k}"

    @property
    def total_time_s(self) -> float:
        """Modelled whole-workload time under the plan."""
        return sum(assignment.total_time_s for assignment in self.assignments)

    def assignment_for(self, layer: str) -> LayerAssignment:
        """The assignment of one layer by name."""
        for assignment in self.assignments:
            if assignment.layer == layer:
                return assignment
        raise KeyError(f"plan has no layer {layer!r}")

    def kernel_histogram(self) -> dict[str, int]:
        """How many layers each kernel label won."""
        histogram: dict[str, int] = {}
        for assignment in self.assignments:
            histogram[assignment.label] = histogram.get(assignment.label, 0) + 1
        return histogram

    def to_dict(self) -> dict:
        """JSON-serialisable form; also the plan's cache-key payload."""
        return {
            "gpu": self.gpu,
            "sparsity": self.sparsity,
            "model": self.model,
            "gemm": list(self.gemm) if self.gemm is not None else None,
            "mode": self.mode,
            "salt": self.salt,
            "candidates": list(self.candidates),
            "assignments": [assignment.to_dict() for assignment in self.assignments],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuningPlan":
        """Rebuild a plan from its :meth:`to_dict` form."""
        gemm = data.get("gemm")
        return cls(
            gpu=data["gpu"],
            sparsity=data["sparsity"],
            model=data.get("model"),
            gemm=tuple(gemm) if gemm is not None else None,
            mode=data.get("mode", "model"),
            salt=data.get("salt", MODEL_VERSION),
            candidates=tuple(data.get("candidates", ())),
            assignments=tuple(
                LayerAssignment.from_dict(entry)
                for entry in data.get("assignments", ())
            ),
        )


def _layers_signature(layers: Sequence[LayerShape]) -> list[list]:
    """Canonical digest input for the workload's layer list: the plan must
    invalidate when the shapes it was tuned for change.

    Convolution layers additionally hash their :class:`Conv2dSpec` and input
    resolution — two convolutions can lower to the *same* implicit-GEMM shape
    (e.g. a 1x1 with 9x the input channels of a 3x3) yet time differently
    through the unfold overhead, so the GEMM shape alone must not alias them.
    """
    signature: list[list] = []
    for layer in layers:
        entry: list = [
            layer.name,
            layer.gemm.m,
            layer.gemm.n,
            layer.gemm.k,
            layer.count,
            layer.kind,
        ]
        if layer.kind == "conv":
            conv = layer.conv
            entry.append(
                [
                    conv.in_channels,
                    conv.out_channels,
                    conv.kernel_size,
                    conv.stride,
                    conv.padding,
                    layer.batch,
                    layer.height,
                    layer.width,
                ]
            )
        signature.append(entry)
    return signature


def plan_request_hash(
    *,
    gpu: str,
    sparsity: float,
    layers: Sequence[LayerShape],
    candidates: tuple[KernelSpec, ...],
    mode: str,
    refiner: Refiner | None,
    model: str | None = None,
    gemm: tuple[int, int, int] | None = None,
    salt: str = MODEL_VERSION,
) -> str:
    """Stable hex digest of one tuning request.

    The :func:`~repro.eval.runner.canonical_config_hash` of the request, with
    the timing :data:`MODEL_VERSION` as salt: the same request hashes
    identically across processes, and a model bump reads as a cold cache.
    """
    return canonical_config_hash(
        {
            "gpu": gpu,
            "sparsity": sparsity,
            "model": model,
            "gemm": list(gemm) if gemm is not None else None,
            "layers": _layers_signature(layers),
            "candidates": [
                {"name": spec.name, "kwargs": dict(spec.kwargs)} for spec in candidates
            ],
            "mode": mode,
            "refiner": refiner.to_dict() if refiner is not None else None,
        },
        salt=salt,
    )


class PlanCache:
    """Persistent on-disk cache of :class:`TuningPlan` results.

    The same store as the sweep result cache: a content-addressed,
    multi-writer-safe :class:`~repro.eval.store.BlobStore` rooted at
    ``tuning-plans.blobs/`` inside ``cache_dir`` (:data:`PLAN_FILENAME`), one
    atomic canonical-JSON file per request digest.  Each entry keeps the
    plan dict next to the request digest so the store is debuggable by eye.
    Entries whose ``salt`` disagrees with the cache's read as misses (the
    hash already guarantees this for new keys; the explicit check also
    invalidates hand-edited blobs).
    """

    def __init__(self, cache_dir: str | Path, *, salt: str = MODEL_VERSION) -> None:
        self.cache_dir = Path(cache_dir)
        self.salt = salt
        self._store = BlobStore(blob_root_for(self.cache_dir / PLAN_FILENAME), salt=salt)
        self.path = self._store.root

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: str) -> TuningPlan | None:
        """The cached plan under ``key``, or ``None`` on a miss, an
        undecodable entry, or a salt (model-version) mismatch."""
        entry = self._store.get(key)
        if entry is None or "plan" not in entry:
            return None
        try:
            plan = TuningPlan.from_dict(entry["plan"])
        except (KeyError, TypeError, ValueError):
            return None
        if plan.salt != self.salt:
            return None
        return plan

    def put(self, key: str, plan: TuningPlan) -> None:
        """Stage ``plan`` under ``key`` (persisted on :meth:`flush`)."""
        self._store.put(key, {"plan": plan.to_dict()})

    def flush(self) -> None:
        """Persist staged plans atomically, one blob per plan (unique temp +
        fsync + rename)."""
        self._store.flush()


@dataclass
class Autotuner:
    """Plans per-layer kernel assignments for whole workloads.

    ``candidates`` defaults to the full paper line-up; ``cache_dir`` enables
    the persistent :class:`PlanCache`; ``refiner`` switches planning to the measured-refinement
    mode.  ``stats`` accumulates plan-cache hits/misses across the tuner's
    lifetime (same accounting class as the sweep runner).
    """

    candidates: tuple[KernelSpec, ...] = field(default_factory=default_candidates)
    cache_dir: str | Path | None = None
    salt: str = MODEL_VERSION
    refiner: Refiner | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.candidates = tuple(self.candidates)
        if not self.candidates:
            raise ValueError("the autotuner needs at least one candidate kernel")
        self.cache = (
            PlanCache(self.cache_dir, salt=self.salt)
            if self.cache_dir is not None
            else None
        )

    @property
    def mode(self) -> str:
        """Plan provenance: ``"measured"`` with a refiner, else ``"model"``."""
        return "measured" if self.refiner is not None else "model"

    # ------------------------------ planning ----------------------------- #
    def plan(
        self,
        model: str,
        gpu: str,
        sparsity: float,
        *,
        layers: Sequence[LayerShape] | None = None,
    ) -> TuningPlan:
        """Tune one named workload at one (GPU, sparsity) operating point.

        ``layers`` overrides the workload's default layer shapes (e.g. a
        different token batch); the plan cache keys on the actual shapes, so
        an override never aliases the default plan.
        """
        resolved = list(layers) if layers is not None else model_layers(model)
        return self._plan(resolved, gpu, sparsity, model=model)

    def plan_gemm(
        self, gemm: tuple[int, int, int], gpu: str, sparsity: float
    ) -> TuningPlan:
        """Tune a single explicit GEMM problem (the Figure 1 mode)."""
        shape = tuple(int(v) for v in gemm)
        return self._plan([gemm_layer(shape)], gpu, sparsity, gemm=shape)

    def _plan(
        self,
        layers: Sequence[LayerShape],
        gpu: str,
        sparsity: float,
        *,
        model: str | None = None,
        gemm: tuple[int, int, int] | None = None,
    ) -> TuningPlan:
        if not layers:
            raise ValueError("cannot plan an empty workload")
        if not 0.0 <= sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")
        key = plan_request_hash(
            gpu=gpu,
            sparsity=sparsity,
            layers=layers,
            candidates=self.candidates,
            mode=self.mode,
            refiner=self.refiner,
            model=model,
            gemm=gemm,
            salt=self.salt,
        )
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
        self.stats.misses += 1

        arch = get_gpu(gpu)
        density = 1.0 - sparsity
        assignments = self._assign_layers(arch, layers, density)
        plan = TuningPlan(
            gpu=arch.name,
            sparsity=sparsity,
            assignments=assignments,
            model=model,
            gemm=gemm,
            mode=self.mode,
            salt=self.salt,
            candidates=tuple(spec.display_label for spec in self.candidates),
        )
        if self.cache is not None:
            self.cache.put(key, plan)
            self.cache.flush()
        return plan

    def _assign_layers(
        self, arch, layers: Sequence[LayerShape], density: float
    ) -> tuple[LayerAssignment, ...]:
        """Assign every layer of a workload its argmin candidate.

        Each candidate is scored over all its statically feasible layers in
        a single :func:`~repro.eval.speedup.layer_times_grid` call; layers it
        rejects there (shape-dependent inapplicability the static stage
        cannot see) join its static rejections.
        """
        # Imported here: repro.eval.speedup imports the runner this module
        # shares types with, and the experiment layer imports both.
        from ..eval.speedup import layer_times_grid

        scored_per_layer: list[list[tuple[KernelSpec, object, float]]] = [
            [] for _ in layers
        ]
        # Per layer, static rejects are listed before dynamic ones.
        static_rejects: list[dict[str, str]] = [{} for _ in layers]
        dynamic_rejects: list[dict[str, str]] = [{} for _ in layers]
        for spec in self.candidates:
            kernel = build_kernel(spec)
            capabilities = kernel.capabilities()
            scored_density = candidate_density(kernel, density)
            feasible: list[int] = []
            for position, layer in enumerate(layers):
                reason = capabilities.infeasible_reason(
                    arch, kind=layer.kind, density=scored_density
                )
                if reason is None:
                    feasible.append(position)
                else:
                    static_rejects[position][spec.display_label] = reason
            if not feasible:
                continue
            times, errors = layer_times_grid(
                kernel, arch, [layers[p] for p in feasible], scored_density
            )
            for slot, position in enumerate(feasible):
                if errors[slot] is not None:
                    dynamic_rejects[position][spec.display_label] = str(errors[slot])
                else:
                    scored_per_layer[position].append((spec, kernel, float(times[slot])))
        return tuple(
            self._choose(
                arch,
                layer,
                density,
                scored_per_layer[position],
                {**static_rejects[position], **dynamic_rejects[position]},
            )
            for position, layer in enumerate(layers)
        )

    def _choose(
        self,
        arch,
        layer: LayerShape,
        density: float,
        scored: list[tuple[KernelSpec, object, float]],
        rejected: dict[str, str],
    ) -> LayerAssignment:
        """Pick the winning candidate for one layer from its scored pool
        (first-in-pool-order wins exact ties, so plans are stable)."""
        if not scored:
            raise KernelNotApplicableError(
                f"no feasible kernel for layer {layer.name!r} on {arch.name} "
                f"at density {density:g}: "
                + "; ".join(f"{label}: {why}" for label, why in rejected.items())
            )
        ranked = sorted(range(len(scored)), key=lambda i: (scored[i][2], i))
        ordered = [scored[i] for i in ranked]
        winner = 0
        if self.refiner is not None:
            winner = self.refiner.refine(ordered, layer, density)
        spec, _, time_s = ordered[winner]
        return LayerAssignment(
            layer=layer.name,
            kernel=spec.name,
            kernel_kwargs=spec.kwargs,
            label=spec.display_label,
            time_s=time_s,
            count=layer.count,
            considered=len(scored),
            pruned=len(self.candidates) - len(scored),
        )
