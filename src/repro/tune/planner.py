"""Cost-model-driven kernel autotuner: tuning plans as a sweep-cell family.

The paper's central observation is that no single sparse kernel wins
everywhere — the best choice among shfl-bw, sputnik, cuSPARSELt, vector-wise,
tile-wise and dense GEMM depends on layer shape, sparsity and GPU (the
Figure 1 regions).  The :class:`Autotuner` turns that observation into an
execution plan: for every layer of a workload it enumerates the candidate
pool (:func:`repro.tune.candidates.default_candidates`), prunes statically
infeasible kernels from their capability metadata, scores the survivors with
the analytical timing model (:func:`repro.eval.speedup.layer_times_grid`,
one batched call per candidate) and assigns each layer the argmin.

A tuning request is a sweep cell like any other: :class:`PlanRequest` is
its hashable config, :func:`execute_plan_requests` its pure executor and
:data:`TUNING_TASK` its :class:`~repro.eval.runner.CellTask`.  The
:class:`Autotuner` runs one cell per plan through its
:class:`~repro.eval.runner.SweepRunner`, so a runner with a ``cache_dir``
keeps plans in ``tuning-cache.blobs/`` beside the other families and counts
their hits and misses with theirs.  The family is salted with
:data:`repro.eval.runner.MODEL_VERSION`: a plan is an argmin of timing
estimates, so a timing-model bump re-tunes every plan instead of silently
serving stale assignments.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from ..eval.runner import (
    MODEL_VERSION,
    CellTask,
    KernelSpec,
    SweepRunner,
    _freeze_kwargs,
    canonical_config_hash,
)
from ..gpu.arch import get_gpu
from ..kernels.base import GEMMShape, KernelNotApplicableError
from ..models.shapes import LayerShape, model_layers
from .candidates import (
    build_kernel,
    candidate_density,
    default_candidates,
)

__all__ = [
    "LayerAssignment",
    "TuningPlan",
    "PlanRequest",
    "PlanRecord",
    "TUNING_TASK",
    "Autotuner",
    "execute_plan_requests",
    "gemm_layer",
]


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
    convention as :class:`repro.eval.runner.RunConfig`.  ``mode`` records
    the plan's provenance (``"model"``: the analytical argmin); ``salt`` pins
    the timing-model version the plan was produced under.
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


@dataclass(frozen=True)
class PlanRequest:
    """One tuning cell: a workload's layers at one (GPU, sparsity) operating
    point, tuned over one candidate pool.

    Exactly one of ``model`` or ``gemm`` names the workload (the
    :class:`TuningPlan` convention); ``layers`` are the shapes actually
    tuned.  Every field flows into :meth:`to_dict`, the cache key, so an
    overridden layer list never aliases the default plan.  Candidate labels
    are hashed too: unlike a sweep record's label, they are baked into the
    plan (its assignments and candidate list).
    """

    gpu: str
    sparsity: float
    layers: tuple[LayerShape, ...]
    candidates: tuple[KernelSpec, ...]
    model: str | None = None
    gemm: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.layers:
            raise ValueError("cannot plan an empty workload")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must be in [0, 1)")

    def to_dict(self) -> dict:
        """Canonical JSON-compatible form (used for hashing and export)."""
        return {
            "gpu": self.gpu,
            "sparsity": self.sparsity,
            "model": self.model,
            "gemm": list(self.gemm) if self.gemm is not None else None,
            "layers": _layers_signature(self.layers),
            "candidates": [
                {"name": spec.name, "kwargs": dict(spec.kwargs), "label": spec.display_label}
                for spec in self.candidates
            ],
        }

    def config_hash(self, *, salt: str = MODEL_VERSION) -> str:
        """Stable hex digest (shared keying scheme of every cell family)."""
        return canonical_config_hash(self.to_dict(), salt=salt)


@dataclass(frozen=True)
class PlanRecord:
    """Result of one :class:`PlanRequest`: its tuned plan."""

    config: PlanRequest
    plan: TuningPlan


def _encode_plan_record(record: object) -> dict:
    """Cache codec: a :class:`PlanRecord` as a debuggable JSON entry."""
    assert isinstance(record, PlanRecord)
    return {"config": record.config.to_dict(), "plan": record.plan.to_dict()}


def _decode_plan_record(config: object, entry: Mapping) -> PlanRecord | None:
    """Cache codec: rebuild a record from a JSON entry (malformed -> miss)."""
    assert isinstance(config, PlanRequest)
    try:
        plan = TuningPlan.from_dict(entry["plan"])
    except (KeyError, TypeError, ValueError):
        return None
    return PlanRecord(config=config, plan=plan)


def execute_plan_requests(requests: list[PlanRequest]) -> list[PlanRecord]:
    """Tune every request on the analytical timing model, in order (the
    :class:`CellTask` entry point); a pure function of the requests."""
    records = []
    for request in requests:
        arch = get_gpu(request.gpu)
        plan = TuningPlan(
            gpu=arch.name,
            sparsity=request.sparsity,
            assignments=_assign_layers(
                request.candidates, arch, request.layers, 1.0 - request.sparsity
            ),
            model=request.model,
            gemm=request.gemm,
            candidates=tuple(spec.display_label for spec in request.candidates),
        )
        records.append(PlanRecord(config=request, plan=plan))
    return records


#: Tuning plans as a sweep-runner cell family.  It keeps the timing model's
#: salt: a plan is an argmin of timing estimates, so a timing bump re-tunes.
TUNING_TASK = CellTask(
    name="tuning",
    execute=execute_plan_requests,
    salt=MODEL_VERSION,
    encode=_encode_plan_record,
    decode=_decode_plan_record,
)


@dataclass
class Autotuner:
    """Plans per-layer kernel assignments for whole workloads.

    ``candidates`` defaults to the full paper line-up.  Every plan is one
    :data:`TUNING_TASK` cell run through ``runner``: a runner with a
    ``cache_dir`` persists plans next to its other cell families and counts
    their hits and misses in ``runner.stats``.
    """

    candidates: tuple[KernelSpec, ...] = field(default_factory=default_candidates)
    runner: SweepRunner = field(default_factory=SweepRunner)

    def __post_init__(self) -> None:
        self.candidates = tuple(self.candidates)
        if not self.candidates:
            raise ValueError("the autotuner needs at least one candidate kernel")

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
        different token batch); the request keys on the actual shapes, so
        an override never aliases the default plan.
        """
        resolved = model_layers(model) if layers is None else layers
        return self._plan(PlanRequest(gpu, sparsity, resolved, self.candidates, model=model))

    def plan_gemm(
        self, gemm: tuple[int, int, int], gpu: str, sparsity: float
    ) -> TuningPlan:
        """Tune a single explicit GEMM problem (the Figure 1 mode)."""
        shape = tuple(int(v) for v in gemm)
        return self._plan(
            PlanRequest(gpu, sparsity, (gemm_layer(shape),), self.candidates, gemm=shape)
        )

    def _plan(self, request: PlanRequest) -> TuningPlan:
        (record,) = self.runner.run_cells([request], TUNING_TASK).records
        return record.plan


def _assign_layers(
    candidates: tuple[KernelSpec, ...],
    arch,
    layers: Sequence[LayerShape],
    density: float,
) -> tuple[LayerAssignment, ...]:
    """Assign every layer of a workload its argmin candidate.

    Each candidate is scored over all its statically feasible layers in a
    single :func:`~repro.eval.speedup.layer_times_grid` call; layers it
    rejects there (shape-dependent inapplicability the static stage cannot
    see) join its static rejections.
    """
    # Imported here: repro.eval.speedup imports the runner this module
    # shares types with, and the experiment layer imports both.
    from ..eval.speedup import layer_times_grid

    scored_per_layer: list[list[tuple[KernelSpec, float]]] = [[] for _ in layers]
    # Per layer, static rejects are listed before dynamic ones.
    static_rejects: list[dict[str, str]] = [{} for _ in layers]
    dynamic_rejects: list[dict[str, str]] = [{} for _ in layers]
    for spec in candidates:
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
                scored_per_layer[position].append((spec, float(times[slot])))
    return tuple(
        _choose(
            len(candidates),
            arch,
            layer,
            density,
            scored_per_layer[position],
            {**static_rejects[position], **dynamic_rejects[position]},
        )
        for position, layer in enumerate(layers)
    )


def _choose(
    pool_size: int,
    arch,
    layer: LayerShape,
    density: float,
    scored: list[tuple[KernelSpec, float]],
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
    spec, time_s = min(scored, key=lambda entry: entry[1])
    return LayerAssignment(
        layer=layer.name,
        kernel=spec.name,
        kernel_kwargs=spec.kwargs,
        label=spec.display_label,
        time_s=time_s,
        count=layer.count,
        considered=len(scored),
        pruned=pool_size - len(scored),
    )
