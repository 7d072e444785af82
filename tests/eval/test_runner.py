"""Tests for the sweep runner: cache-key stability (including across process
restarts and dict orderings), cache hit/miss accounting, the cache layout
and record codec, in-process vs parallel equivalence, and the exact
not-applicable details."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import runner as runner_module
from repro.eval.accuracy import ACCURACY_TASK, AccuracyCell, AccuracyRecord
from repro.eval.pattern_search import (
    PATTERN_SEARCH_TASK,
    PatternSearchCell,
    PatternSearchRecord,
)
from repro.eval.runner import (
    ACCURACY_SALT,
    MODEL_VERSION,
    PATTERN_SEARCH_SALT,
    SERVE_SALT,
    TIMING_TASK,
    KernelSpec,
    ResultCache,
    RunConfig,
    RunRecord,
    SweepRunner,
    SweepSpec,
    batched_executor,
    canonical_config_hash,
    contiguous_process_map,
    encode_record,
    record_decoder,
    strided_process_map,
)
from repro.eval.speedup import figure1_spec, figure6_spec, headline_spec
from repro.eval.store import BlobStore, CorruptCacheWarning
from repro.serve.cells import SERVE_TASK
from repro.tune.planner import TUNING_TASK

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def small_spec() -> SweepSpec:
    """A fast grid: 2 kernels x 1 GPU x 3 sparsities on one GEMM shape."""
    return SweepSpec(
        kernels=(
            KernelSpec("sputnik", label="sputnik"),
            KernelSpec("shfl-bw", kwargs={"vector_size": 32}, label="Shfl-BW,V=32"),
        ),
        gpus=("V100",),
        sparsities=(0.5, 0.75, 0.9),
        gemm=(256, 64, 256),
    )


def _pids(configs: list) -> list[int]:
    """Executor recording the process each config ran in."""
    return [os.getpid()] * len(configs)


# --------------------------------------------------------------------------- #
# RunConfig hashing
# --------------------------------------------------------------------------- #
kwarg_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
    st.text(alphabet="abcxyz", max_size=6),
)
kwarg_dicts = st.dictionaries(
    st.sampled_from(["vector_size", "block_size", "alpha", "mode"]),
    kwarg_values,
    max_size=4,
)


class TestConfigHash:
    @given(kwargs=kwarg_dicts, seed=st.randoms())
    def test_hash_independent_of_kwargs_ordering(self, kwargs, seed):
        items = list(kwargs.items())
        shuffled = items[:]
        seed.shuffle(shuffled)
        a = RunConfig("k", "V100", 0.5, model="transformer", kernel_kwargs=tuple(items))
        b = RunConfig("k", "V100", 0.5, model="transformer", kernel_kwargs=tuple(shuffled))
        assert a == b
        assert a.config_hash() == b.config_hash()

    @given(
        kernel=st.sampled_from(["shfl-bw", "sputnik", "dense"]),
        gpu=st.sampled_from(["V100", "T4", "A100"]),
        sparsity=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
        kwargs=kwarg_dicts,
    )
    @settings(max_examples=50)
    def test_dict_round_trip_preserves_identity(self, kernel, gpu, sparsity, kwargs):
        config = RunConfig(
            kernel, gpu, sparsity, model="gnmt", kernel_kwargs=tuple(kwargs.items())
        )
        # Through JSON (the cache's serialisation) and back.
        restored = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    def test_hash_stable_across_process_restarts(self):
        """The digest must not depend on interpreter state: a fresh process
        with a different PYTHONHASHSEED computes the same hash."""
        config = RunConfig(
            "shfl-bw",
            "A100",
            0.75,
            model="transformer",
            kernel_kwargs=(("vector_size", 64),),
        )
        code = (
            "from repro.eval.runner import RunConfig\n"
            "c = RunConfig('shfl-bw', 'A100', 0.75, model='transformer',"
            " kernel_kwargs=(('vector_size', 64),))\n"
            "print(c.config_hash())"
        )
        for hashseed in ("0", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": str(SRC_DIR), "PYTHONHASHSEED": hashseed},
                capture_output=True,
                text=True,
                check=True,
            )
            assert out.stdout.strip() == config.config_hash()

    def test_salt_changes_the_key(self):
        config = RunConfig("dense", "V100", 0.0, model="transformer")
        assert config.config_hash(salt="timing-v1") != config.config_hash(
            salt="timing-v2"
        )

    def test_payload_salt_key_is_rejected(self):
        """A payload carrying its own top-level 'salt' key would silently
        override the MODEL_VERSION salt and survive version bumps."""
        with pytest.raises(ValueError, match="salt"):
            canonical_config_hash({"salt": "sneaky", "kernel": "dense"})
        # Nested dicts are free to use the name; only the top level collides
        # with the versioning salt.
        nested = canonical_config_hash({"params": {"salt": "fine"}})
        assert nested == canonical_config_hash({"params": {"salt": "fine"}})

    def test_label_is_cosmetic(self):
        a = RunConfig("dense", "V100", 0.0, model="transformer", label="x")
        b = RunConfig("dense", "V100", 0.0, model="transformer", label="y")
        assert a == b
        assert a.config_hash() == b.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig("dense", "V100", 0.0)  # neither model nor gemm
        with pytest.raises(ValueError):
            RunConfig("dense", "V100", 0.0, model="transformer", gemm=(1, 1, 1))
        with pytest.raises(ValueError):
            RunConfig("dense", "V100", 1.0, model="transformer")  # sparsity = 1


class TestSweepSpec:
    def test_expand_is_deterministic(self):
        spec = small_spec()
        assert spec.expand() == spec.expand()

    def test_expand_includes_dense_baseline_per_cell(self):
        spec = headline_spec()
        configs = spec.expand()
        dense = [c for c in configs if c.kernel == "dense"]
        assert len(dense) == len(spec.gpus)
        assert all(c.sparsity == 0.0 for c in dense)

    def test_per_kernel_sparsity_override(self):
        spec = figure1_spec(densities=(0.1, 0.5))
        configs = spec.expand()
        cc_dense = [c for c in configs if c.kernel == "dense-cudacore"]
        assert [c.sparsity for c in cc_dense] == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(kernels=(), gpus=("V100",), sparsities=(0.5,), gemm=(8, 8, 8))
        with pytest.raises(ValueError):
            SweepSpec(
                kernels=(KernelSpec("dense"),),
                gpus=("V100",),
                sparsities=(0.5,),
                models=("transformer",),
                gemm=(8, 8, 8),
            )


def execute_config(config: RunConfig):
    """Evaluate a single grid cell."""
    (record,) = batched_executor([config])
    return record


class TestExecuteConfig:
    def test_grid_setup_errors_raise(self):
        """Spec mistakes (unknown model / kernel) must raise, not silently
        read as 'not-applicable' cells."""
        with pytest.raises(ValueError):
            execute_config(RunConfig("dense", "V100", 0.0, model="resnet-50x"))
        with pytest.raises(KeyError):
            execute_config(RunConfig("no-such-kernel", "V100", 0.0, model="gnmt"))

    def test_not_applicable_is_data_not_exception(self):
        record = execute_config(
            RunConfig("cusparselt", "V100", 0.75, model="transformer")
        )
        assert record.status == "not-applicable"
        assert record.time_s is None
        assert record.detail

    def test_unsupported_arch_is_not_applicable(self):
        record = execute_config(RunConfig("tilewise", "T4", 0.75, model="transformer"))
        assert record.status == "not-applicable"
        assert "V100" in record.detail

    def test_gemm_cell_reports_bound(self):
        record = execute_config(
            RunConfig("shfl-bw", "V100", 0.75, gemm=(256, 64, 256),
                      kernel_kwargs=(("vector_size", 32),))
        )
        assert record.ok
        assert record.time_s > 0
        assert record.bound in ("compute", "memory", "meta")


class TestExecutors:
    def test_serial_and_parallel_records_identical(self):
        spec = small_spec()
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        # Same floats, same order, same configs.
        assert parallel.records == serial.records == batched_executor(spec.expand())

    def test_jobs_one_falls_back_to_serial(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs <= 1 must not start a process pool")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        spec = small_spec()
        serial = batched_executor(spec.expand())
        for jobs in (1, 0, -1):
            assert SweepRunner(jobs=jobs).run(spec).records == serial

    @pytest.mark.parametrize("process_map", [strided_process_map, contiguous_process_map])
    @pytest.mark.parametrize("jobs", [1, 0])
    def test_process_maps_run_below_two_jobs_in_process(self, process_map, jobs):
        assert process_map(_pids, list(range(3)), jobs) == [os.getpid()] * 3


class TestBatchedExecutor:
    def test_batched_is_the_default_executor(self):
        assert TIMING_TASK.execute is batched_executor
        assert TIMING_TASK.chunking == "strided"
        assert TIMING_TASK.salt == MODEL_VERSION

    def test_grid_setup_errors_still_raise(self):
        config = RunConfig(kernel="no-such-kernel", gpu="V100", sparsity=0.5,
                           model="transformer")
        with pytest.raises(KeyError):
            batched_executor([config])
        config = RunConfig(kernel="dense", gpu="no-such-gpu", sparsity=0.5,
                           model="transformer")
        with pytest.raises(KeyError):
            batched_executor([config])


#: One cell per distinct not-applicable reason of the Figure 6 grid, plus
#: the ragged GEMM cells a vector / block kernel cannot tile, with the
#: record detail each must carry.
NOT_APPLICABLE_DETAILS = [
    (
        RunConfig("cusparselt", "V100", 0.5, model="transformer"),
        "V100 has no sparse tensor cores; cuSPARSELt 2:4 SpMM is only "
        "evaluated on A100 in the paper",
    ),
    (
        RunConfig("cusparselt", "T4", 0.5, model="gnmt"),
        "T4 has no sparse tensor cores; cuSPARSELt 2:4 SpMM is only "
        "evaluated on A100 in the paper",
    ),
    (
        RunConfig("cusparselt", "V100", 0.75, model="transformer"),
        "balanced 2:4 sparsity only supports density 0.5, got 0.25",
    ),
    (
        RunConfig("cusparselt", "A100", 0.85, model="gnmt"),
        "balanced 2:4 sparsity only supports density 0.5, got 0.15000000000000002",
    ),
    (
        RunConfig("cusparselt", "T4", 0.95, model="transformer"),
        "balanced 2:4 sparsity only supports density 0.5, got 0.050000000000000044",
    ),
    (
        RunConfig("vectorsparse", "T4", 0.5, model="transformer"),
        "kernel 'vectorsparse' only runs on V100",
    ),
    (
        RunConfig("tilewise", "A100", 0.75, model="gnmt"),
        "kernel 'tilewise' only runs on V100",
    ),
    (
        RunConfig("cusparse-csr", "V100", 0.5, model="resnet50"),
        "kernel 'cusparse-csr' has no convolution implementation",
    ),
    (
        RunConfig("sputnik", "T4", 0.75, model="resnet50"),
        "kernel 'sputnik' has no convolution implementation",
    ),
    (
        RunConfig("vectorsparse", "V100", 0.85, model="resnet50"),
        "kernel 'vectorsparse' has no convolution implementation",
    ),
    (
        RunConfig("tilewise", "V100", 0.95, model="resnet50"),
        "kernel 'tilewise' has no convolution implementation",
    ),
    (
        RunConfig("cusparselt", "A100", 0.5, model="resnet50"),
        "kernel 'cusparselt-2in4' has no convolution implementation",
    ),
    (
        RunConfig("cusparse-bsr", "V100", 0.5, model="resnet50",
                  kernel_kwargs=(("block_size", 32),)),
        "kernel 'cusparse-bsr' has no convolution implementation",
    ),
    (
        RunConfig("vector-wise", "V100", 0.5, gemm=(100, 64, 256),
                  kernel_kwargs=(("vector_size", 64),)),
        "M=100 is not divisible by V=64",
    ),
    (
        RunConfig("cusparse-bsr", "T4", 0.75, gemm=(256, 64, 100),
                  kernel_kwargs=(("block_size", 32),)),
        "GEMM shape M256/N64/K100 is not divisible by block size 32",
    ),
]


class TestNotApplicableDetails:
    @pytest.mark.parametrize(
        ("config", "detail"),
        NOT_APPLICABLE_DETAILS,
        ids=[
            f"{c.kernel}-{c.gpu}-{c.model or 'gemm'}-{c.sparsity}"
            for c, _ in NOT_APPLICABLE_DETAILS
        ],
    )
    def test_detail_is_pinned(self, config, detail):
        """Alone or inside a grid of other kernels, GPUs and workloads, the
        cell's record carries exactly this detail."""
        alone = execute_config(config)
        assert alone.status == "not-applicable"
        assert alone.time_s is None
        assert alone.detail == detail
        grid = [config for config, _ in NOT_APPLICABLE_DETAILS]
        assert batched_executor(grid)[grid.index(config)] == alone


class TestResultCache:
    def test_hit_miss_accounting(self, tmp_path):
        spec = small_spec()
        runner = SweepRunner(cache_dir=tmp_path)
        cold = runner.run(spec)
        n_unique = len({c.config_hash() for c in spec.expand()})
        assert cold.cache_hits == 0
        assert cold.cache_misses == n_unique
        warm = runner.run(spec)
        assert warm.cache_hits == n_unique
        assert warm.cache_misses == 0
        assert warm.hit_rate == 1.0
        assert warm.records == cold.records
        assert runner.stats.hits == n_unique
        assert runner.stats.misses == n_unique

    def test_cache_survives_restart(self, tmp_path):
        spec = small_spec()
        cold = SweepRunner(cache_dir=tmp_path).run(spec)
        # The default substrate is the pack store: the run's cells land in
        # one atomic canonical-JSON pack directly under the family's root.
        root = SweepRunner(cache_dir=tmp_path).cell_cache(TIMING_TASK).path
        assert root.is_dir()
        assert BlobStore(root).keys() == sorted({c.config_hash() for c in spec.expand()})
        assert [p.suffix for p in root.iterdir()] == [".json"]
        # A brand-new runner (fresh process in real life) reads the same store.
        warm = SweepRunner(cache_dir=tmp_path).run(spec)
        assert warm.hit_rate == 1.0
        assert warm.records == cold.records

    def test_salt_invalidates(self, tmp_path):
        configs = small_spec().expand()
        old = dataclasses.replace(TIMING_TASK, salt="timing-v1")
        bumped = dataclasses.replace(TIMING_TASK, salt="timing-v2")
        SweepRunner(cache_dir=tmp_path).run_cells(configs, old)
        assert SweepRunner(cache_dir=tmp_path).run_cells(configs, bumped).cache_hits == 0
        assert SweepRunner(cache_dir=tmp_path).run_cells(configs, old).hit_rate == 1.0

    @pytest.mark.parametrize("content", ["corrupt", "well-formed"])
    def test_pre_blob_cache_file_is_ignored(self, tmp_path, content):
        """A single-file cache from before the blob store is never read,
        rewritten or quarantined: its family reads cold, without a warning,
        even when the file holds an entry for every cell."""
        spec = small_spec()
        raw = b"{not json"
        if content == "well-formed":
            donor = tmp_path / "donor"
            SweepRunner(cache_dir=donor).run(spec)
            store = BlobStore(SweepRunner(cache_dir=donor).cell_cache(TIMING_TASK).path)
            raw = json.dumps({key: store.get(key) for key in store.keys()}).encode()
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        stray = cache_dir / "sweep-cache.json"
        stray.write_bytes(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = SweepRunner(cache_dir=cache_dir).run(spec)
        assert result.cache_hits == 0
        assert result.cache_misses == len({c.config_hash() for c in spec.expand()})
        assert stray.read_bytes() == raw
        assert not list(cache_dir.rglob("*.corrupt-*"))

    def test_malformed_cache_entry_reads_as_miss(self, tmp_path):
        """A hand-edited cache (a broken entry payload or an unparseable
        pack) must not crash the sweep — it recomputes those cells."""
        spec = small_spec()
        n_unique = len({c.config_hash() for c in spec.expand()})
        cold = SweepRunner(cache_dir=tmp_path).run(spec)
        root = SweepRunner(cache_dir=tmp_path).cell_cache(TIMING_TASK).path
        (pack,) = root.glob("*.json")
        data = json.loads(pack.read_text())
        data["entries"][min(data["entries"])] = {"config": {}}
        pack.write_text(json.dumps(data))
        warm = SweepRunner(cache_dir=tmp_path).run(spec)
        assert warm.cache_misses == 1
        assert warm.records == cold.records
        # An unparseable pack costs every cell of its flush but the one the
        # warm run recomputed into a pack of its own.
        pack.write_text("oops not json")
        with pytest.warns(CorruptCacheWarning):
            again = SweepRunner(cache_dir=tmp_path).run(spec)
        assert again.cache_misses == n_unique - 1
        assert again.records == cold.records
        # The unparseable pack was quarantined next to the others.
        assert list(root.glob("*.corrupt-*"))

    def test_malformed_entry_is_recomputed_once(self, tmp_path):
        """The recomputed entry's newer pack supersedes the malformed one:
        the next run, and the same runner's next call, are all hits."""
        spec = small_spec()
        cold = SweepRunner(cache_dir=tmp_path).run(spec)
        root = SweepRunner(cache_dir=tmp_path).cell_cache(TIMING_TASK).path
        (pack,) = root.glob("*.json")
        data = json.loads(pack.read_text())
        del data["entries"][min(data["entries"])]["status"]
        pack.write_text(json.dumps(data))
        past = pack.stat().st_mtime_ns - 10**9
        os.utime(pack, ns=(past, past))  # the hand edit predates the rerun
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.run(spec)
        assert (first.cache_misses, first.records) == (1, cold.records)
        assert runner.run(spec).hit_rate == 1.0
        warm = SweepRunner(cache_dir=tmp_path).run(spec)
        assert (warm.hit_rate, warm.records) == (1.0, cold.records)
        assert len(list(root.glob("*.json"))) == 2

    def test_figure6_flush_is_one_pack_and_one_fsync(self, tmp_path, monkeypatch):
        """A cold Figure 6 writes its 405 cells as one group commit."""
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        runner = SweepRunner(cache_dir=tmp_path)
        result = runner.run(figure6_spec())
        assert (result.cache_misses, len(synced)) == (405, 1)
        root = runner.cell_cache(TIMING_TASK).path
        assert len(list(root.iterdir())) == 1
        assert len(BlobStore(root).keys()) == 405

    def test_cached_record_rebinds_requesting_label(self, tmp_path):
        config = RunConfig("dense", "V100", 0.0, model="transformer", label="first")
        cache = ResultCache(tmp_path, TIMING_TASK)
        cache.put(config.config_hash(), execute_config(config))
        cache.flush()
        relabelled = RunConfig(
            "dense", "V100", 0.0, model="transformer", label="second"
        )
        restored = ResultCache(tmp_path, TIMING_TASK).get(
            relabelled.config_hash(), relabelled
        )
        assert restored is not None
        assert restored.config.label == "second"

    def test_not_applicable_results_are_cached_too(self, tmp_path):
        spec = SweepSpec(
            kernels=(KernelSpec("cusparselt"),),
            gpus=("V100",),
            sparsities=(0.75,),
            models=("transformer",),
            dense_baseline=None,
        )
        cold = SweepRunner(cache_dir=tmp_path).run(spec)
        assert cold.records[0].status == "not-applicable"
        warm = SweepRunner(cache_dir=tmp_path).run(spec)
        assert warm.cache_hits == 1
        assert warm.records == cold.records


class TestCacheLayout:
    """Caches written by earlier versions stay warm only while every
    family's blob root and entry bytes stay put."""

    @pytest.mark.parametrize(
        ("task", "root", "salt"),
        [
            (TIMING_TASK, "sweep-cache.blobs", MODEL_VERSION),
            (ACCURACY_TASK, "accuracy-cache.blobs", ACCURACY_SALT),
            (PATTERN_SEARCH_TASK, "pattern-search-cache.blobs", PATTERN_SEARCH_SALT),
            (SERVE_TASK, "serve-cache.blobs", SERVE_SALT),
            (TUNING_TASK, "tuning-cache.blobs", MODEL_VERSION),
        ],
        ids=["sweep", "accuracy", "pattern-search", "serve", "tuning"],
    )
    def test_family_blob_root_is_pinned(self, tmp_path, task, root, salt):
        assert SweepRunner(cache_dir=tmp_path).cell_cache(task).path == tmp_path / root
        assert task.salt == salt

    def test_family_salts_are_distinct(self):
        """Each family owns its salt, so one family's bump never re-keys
        another's cells."""
        tasks = (TIMING_TASK, ACCURACY_TASK, PATTERN_SEARCH_TASK, SERVE_TASK)
        assert len({task.salt for task in tasks}) == len(tasks)

    @pytest.mark.parametrize(
        ("record", "entry"),
        [
            (
                RunRecord(
                    RunConfig("shfl-bw", "V100", 0.75, gemm=(256, 64, 256),
                              kernel_kwargs=(("vector_size", 32),), label="Shfl-BW,V=32"),
                    status="ok",
                    time_s=1.5e-05,
                    bound="memory",
                ),
                {
                    "config": {
                        "kernel": "shfl-bw",
                        "gpu": "V100",
                        "sparsity": 0.75,
                        "model": None,
                        "gemm": [256, 64, 256],
                        "kernel_kwargs": {"vector_size": 32},
                    },
                    "status": "ok",
                    "time_s": 1.5e-05,
                    "bound": "memory",
                    "detail": None,
                },
            ),
            (
                AccuracyRecord(
                    AccuracyCell("gnmt", "shflbw", 0.9, vector_size=16, tiny=True, seed=3,
                                 label="Shfl-BW, V=64"),
                    status="ok",
                    metric=21.5,
                    metric_name="BLEU",
                    dense_metric=24.25,
                ),
                {
                    "config": {
                        "model": "gnmt",
                        "pattern": "shflbw",
                        "sparsity": 0.9,
                        "vector_size": 16,
                        "quick": True,
                        "tiny": True,
                        "seed": 3,
                    },
                    "status": "ok",
                    "metric": 21.5,
                    "metric_name": "BLEU",
                    "dense_metric": 24.25,
                    "detail": None,
                },
            ),
            (
                PatternSearchRecord(
                    PatternSearchCell("resnet50", "conv2_1", 128, 0.8, label="x"),
                    status="not-applicable",
                    layer_count=3,
                    detail="M=64 is not divisible by V=128",
                ),
                {
                    "config": {
                        "model": "resnet50",
                        "layer": "conv2_1",
                        "vector_size": 128,
                        "sparsity": 0.8,
                        "beta_factor": 2.0,
                        "kmeans_iters": 4,
                        "seed": 0,
                    },
                    "status": "not-applicable",
                    "retained_score": None,
                    "total_score": None,
                    "density": None,
                    "layer_count": 3,
                    "detail": "M=64 is not divisible by V=128",
                },
            ),
        ],
        ids=["timing", "accuracy", "pattern-search"],
    )
    def test_record_codec_entry_is_pinned(self, record, entry):
        assert encode_record(record) == entry
        decoded = record_decoder(type(record))(record.config, json.loads(json.dumps(entry)))
        assert decoded == record
        assert decoded.config.label == record.config.label

    def test_decoder_reads_entry_without_status_as_miss(self):
        config = RunConfig("dense", "V100", 0.0, model="transformer")
        assert record_decoder(RunRecord)(config, {"config": config.to_dict()}) is None

    def test_decoder_fills_missing_optional_fields_with_defaults(self):
        cell = PatternSearchCell("transformer", "attn_out", 256, 0.8)
        entry = {"status": "ok", "retained_score": 1.5, "total_score": 2.0, "density": 0.2}
        decoded = record_decoder(PatternSearchRecord)(cell, entry)
        assert decoded == PatternSearchRecord(
            cell, "ok", retained_score=1.5, total_score=2.0, density=0.2
        )
        assert decoded.layer_count == 1
        assert decoded.detail is None


class TestDeduplication:
    def test_duplicate_cells_computed_once(self, tmp_path):
        spec = SweepSpec(
            kernels=(
                KernelSpec("sputnik", label="one"),
                KernelSpec("sputnik", label="two"),
            ),
            gpus=("V100",),
            sparsities=(0.5,),
            gemm=(128, 32, 128),
            dense_baseline=None,
        )
        result = SweepRunner(cache_dir=tmp_path).run(spec)
        assert len(result.records) == 2
        assert result.cache_misses == 1  # one unique cell
        assert result.records[0].config.label == "one"
        assert result.records[1].config.label == "two"
        assert result.records[0].time_s == result.records[1].time_s


class TestRecordExport:
    def test_record_dict_round_trip(self):
        record = execute_config(
            RunConfig("shfl-bw", "V100", 0.75, model="transformer",
                      kernel_kwargs=(("vector_size", 64),), label="Shfl-BW,V=64")
        )
        data = record.to_dict()
        assert data["label"] == "Shfl-BW,V=64"
        assert data["status"] == "ok"
        assert data["kernel_kwargs"] == {"vector_size": 64}
        assert RunConfig.from_dict(data) == record.config
