"""The four benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

- ``setup()`` builds everything the timed phase needs from the seed:
  the log, the FAE preprocess plan, the model (and, for ``serve-rank``,
  the trained model it serves).  It is timed and repeated.
- ``warmup()`` runs a little of the timed work so lazy set-up inside
  numpy and the program has finished before timing starts.
- ``run_round()`` runs one round: the same operations every time, from
  the same starting state, so a run of whole rounds always attempts the
  same mix of operations.
- ``finish()`` checks the outputs of the last round against
  computations made apart from the program, and returns the quality
  figure (held-out AUC, or the recounted hot-input share).

Sizes live in one frozen config per workload; ``small()`` gives the
sizes the benchmark's own tests use.
"""

from __future__ import annotations

import copy
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import bench_checks as checks
from layer_trace import StepClock, _Patches
from repro.core import FAEConfig, fae_preprocess
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig
from repro.core.input_processor import InputProcessor
from repro.core.pipeline import fae_preprocess_source
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name, train_test_split
from repro.data.chunk_source import ChunkSource, StreamChunkSource
from repro.data.loader import MiniBatch, batch_from_log
from repro.data.shift import popularity_shift_days
from repro.data.stream import SyntheticClickStream
from repro.data.zipf import ZipfSampler
from repro.dist.fae_parallel import DistributedFAETrainer
from repro.models import build_model, workload_by_name
from repro.nn.losses import BCEWithLogits
from repro.nn.optim import SGD
from repro.resilience.checkpoint import (
    CheckpointManager,
    latest_checkpoint,
    load_checkpoint,
    verify_checkpoint,
)
from repro.resilience.guards import LoadShedError
from repro.serve import InferenceEngine
from repro.train import FAETrainer
from repro.train.metrics import evaluate_model

_perf = time.perf_counter


@dataclass
class RoundResult:
    """What one round did.

    Attributes:
        items: work done — training samples, streamed rows or completed
            requests.
        busy_s: wall time of the measured calls (``trainer.train()``,
            ``fae_preprocess_source`` or the request loop).
        latencies_s: one latency per operation a caller waits on — a
            training step, a chunk's work over all passes, or a request.
        attempted / failed: operations of the round (segments, chunks
            or requests) and how many of them failed.
    """

    items: int
    busy_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    wall_s: float = 0.0


def _segments(result) -> tuple[int, int]:
    """(attempted, failed) over a run's scheduler segments.

    A segment fails when the training accuracy recorded for it is 0.0,
    which no segment that trained and was measured can report.
    """
    points = [p for p in result.history.points if p.segment_kind != "final"]
    failed = sum(1 for p in points if p.train_accuracy == 0.0)
    return len(points), failed


def _warm_model(model, log, batch_size: int, lr: float) -> None:
    """A few steps and one evaluation on a throwaway copy of ``model``."""
    scratch = copy.deepcopy(model)
    loss_fn = BCEWithLogits()
    optimizer = SGD(scratch.parameters(), lr=lr)
    for step in range(3):
        batch = batch_from_log(log, np.arange(step * batch_size, (step + 1) * batch_size))
        loss_fn.forward(scratch.forward(batch), batch.labels)
        scratch.backward(loss_fn.backward())
        optimizer.step()
    evaluate_model(scratch, log, max_samples=1024)


def _quality_checks(model, log) -> tuple[float, dict[str, list[str]], np.ndarray]:
    """Quality (model AUC over the planted-logit oracle's AUC on the same
    rows), the AUC check, and the model's logits."""
    scores = np.asarray(model.forward(batch_from_log(log, np.arange(len(log)))))
    auc = checks.rank_sum_auc(scores, log.labels)
    oracle = checks.rank_sum_auc(log._logits, log.labels)
    print(f"auc model={auc:.6f} oracle={oracle:.6f} rows={len(log)}")
    return auc / oracle, {"auc_within_bounds": checks.check_auc(auc, oracle, log.labels)}, scores


# ----------------------------------------------------------------------
# train-kaggle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrainKaggleConfig:
    samples: int = 30_000
    test_fraction: float = 0.15
    batch_size: int = 256
    budget_bytes: int = 384 * 1024
    large_table_min_bytes: int = 1024
    sample_rate: float = 0.5
    lr: float = 0.6
    epochs: int = 1
    eval_samples: int = 2048

    @classmethod
    def small(cls) -> TrainKaggleConfig:
        return cls(samples=12_000, eval_samples=512)


class TrainKaggle:
    """Single-device FAETrainer over a criteo-kaggle-like log (RMC2)."""

    name = "train-kaggle"
    setup_repeats = 5

    def __init__(self, seed: int, config: TrainKaggleConfig | None = None, work_dir=None) -> None:
        self.seed = seed
        self.config = config or TrainKaggleConfig()
        self.errors: list[str] = []

    def setup(self) -> None:
        c = self.config
        schema = dataset_by_name("criteo-kaggle", "small")
        log = SyntheticClickLog(schema, SyntheticConfig(num_samples=c.samples, seed=self.seed))
        self.train_log, self.test_log = train_test_split(log, c.test_fraction, seed=self.seed)
        self.plan = fae_preprocess(
            self.train_log,
            FAEConfig(
                gpu_memory_budget=c.budget_bytes,
                large_table_min_bytes=c.large_table_min_bytes,
                sample_rate=c.sample_rate,
                chunk_size=64,
                seed=self.seed,
            ),
            batch_size=c.batch_size,
        )
        self.model0 = build_model(workload_by_name("RMC2"), schema=schema, seed=self.seed + 1)

    def warmup(self) -> None:
        _warm_model(self.model0, self.train_log, self.config.batch_size, self.config.lr)

    def run_round(self) -> RoundResult:
        c = self.config
        model = copy.deepcopy(self.model0)
        trainer = FAETrainer(model, self.plan, lr=c.lr)
        clock = StepClock(model.dense_parameters()[0])
        with clock.installed():
            start = _perf()
            result = trainer.train(
                self.train_log, self.test_log, epochs=c.epochs, eval_samples=c.eval_samples
            )
            busy = _perf() - start
        attempted, failed = _segments(result)
        num_hot, num_cold = self.plan.dataset.batch_counts()
        expected_steps = (num_hot + num_cold) * c.epochs
        if len(clock.latencies_s) != expected_steps:
            self.errors.append(
                f"counted {len(clock.latencies_s)} optimizer steps, expected "
                f"{expected_steps} (packed batches x epochs)"
            )
        if clock.samples != len(self.train_log) * c.epochs:
            self.errors.append(
                f"trained {clock.samples} samples, expected {len(self.train_log) * c.epochs}"
            )
        self.model = model
        self.reported_accuracy = result.final_test_accuracy
        return RoundResult(clock.samples, busy, clock.latencies_s, attempted, failed)

    def finish(self) -> tuple[float, dict[str, list[str]]]:
        c = self.config
        dataset = self.plan.dataset
        quality, results, scores = _quality_checks(self.model, self.test_log)
        hot = [np.asarray(b) for b in dataset.hot_batches]
        hot_idx = np.concatenate(hot) if hot else np.zeros(0, np.int64)
        results.update(
            {
                "packed_exactly_once": checks.check_exactly_once(
                    dataset.hot_batches, dataset.cold_batches, len(self.train_log), c.batch_size
                ),
                "hot_batches_hold_only_hot_ids": checks.check_hot_ids(
                    {n: ids[hot_idx] for n, ids in self.train_log.sparse.items()},
                    self.plan.bags,
                ),
                "hot_bags_fit_budget": checks.check_budget(
                    checks.hot_bytes(self.plan.bags), c.budget_bytes
                ),
                "optimizer_steps_match_batches": list(self.errors),
                "reported_accuracy_matches_recount": checks.check_accuracy(
                    self.reported_accuracy, scores, self.test_log.labels
                ),
            }
        )
        return quality, results


# ----------------------------------------------------------------------
# shift-2rank
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shift2RankConfig:
    samples_per_day: int = 1500
    num_days: int = 5
    shift_day: int = 3
    test_fraction: float = 0.2
    batch_size: int = 128
    budget_bytes: int = 32 * 1024
    large_table_min_bytes: int = 1024
    sample_rate: float = 0.5
    rebalance_every: int = 400
    cache_decay: float = 0.5
    lr: float = 0.15
    eval_samples: int = 512
    world_size: int = 2
    checkpoint_every: int = 4
    checkpoint_keep: int = 2

    @classmethod
    def small(cls) -> Shift2RankConfig:
        return cls(samples_per_day=800, num_days=4, shift_day=2, rebalance_every=300)


class Shift2Rank:
    """2-rank DistributedFAETrainer with the online cache over a
    popularity-shift day stream, checkpointing every few segments."""

    name = "shift-2rank"
    setup_repeats = 5

    def __init__(self, seed: int, config: Shift2RankConfig | None = None, work_dir=None) -> None:
        self.seed = seed
        self.config = config or Shift2RankConfig()
        self.work_dir = Path(work_dir)
        self.budget_errors: list[str] = []
        self.rebalances = 0

    def setup(self) -> None:
        c = self.config
        schema = dataset_by_name("criteo-kaggle", "tiny")
        days = popularity_shift_days(
            schema,
            samples_per_day=c.samples_per_day,
            num_days=c.num_days,
            shift_day=c.shift_day,
            seed=self.seed,
            affinity_scale=2.5,
            dense_signal=0.5,
        )
        self.splits = [
            train_test_split(days[day], c.test_fraction, seed=self.seed + day)
            for day in range(1, c.num_days)
        ]
        self.plan = fae_preprocess(
            days[0],
            FAEConfig(
                gpu_memory_budget=c.budget_bytes,
                large_table_min_bytes=c.large_table_min_bytes,
                sample_rate=c.sample_rate,
                chunk_size=64,
                seed=self.seed,
            ),
            batch_size=c.batch_size,
        )
        self.cache_config = HotCacheConfig(
            budget_bytes=c.budget_bytes,
            decay=c.cache_decay,
            rebalance_every=c.rebalance_every,
            seed=self.seed,
        )
        workload = workload_by_name("RMC2")
        self.models0 = [
            build_model(workload, schema=schema, seed=self.seed + 1) for _ in range(c.world_size)
        ]

    def warmup(self) -> None:
        _warm_model(self.models0[0], self.splits[0][0], self.config.batch_size, self.config.lr)

    def _watch_rebalances(self, cache):
        """Check the cache's bytes after every rebalance it applies."""
        budget = self.config.budget_bytes

        def wrap(original):
            def apply_rebalance(instance, plan):
                delta = original(instance, plan)
                if instance is cache:
                    self.rebalances += 1
                    self.budget_errors.extend(
                        checks.check_budget(instance.hot_bytes, budget, "cache after a rebalance")
                    )
                return delta

            return apply_rebalance

        return wrap

    def run_round(self) -> RoundResult:
        c = self.config
        cache = EmbeddingHotCache(
            self.plan.bags, self.cache_config, profile=self.plan.calibration.profile
        )
        replicas = copy.deepcopy(self.models0)
        shutil.rmtree(self.work_dir, ignore_errors=True)
        busy = 0.0
        samples = 0
        latencies: list[float] = []
        attempted = failed = 0
        patches = _Patches()
        patches.method(EmbeddingHotCache, "apply_rebalance", self._watch_rebalances(cache))
        try:
            for day, (train_day, test_day) in enumerate(self.splits, start=1):
                bags = cache.bags()
                packed = InputProcessor(bags, seed=self.seed * 131 + day).pack(
                    train_day, batch_size=c.batch_size
                )
                trainer = DistributedFAETrainer(
                    replicas,
                    replace(self.plan, bags=bags, dataset=packed),
                    lr=c.lr,
                    cache=cache,
                )
                clock = StepClock(replicas[0].dense_parameters()[0])
                with clock.installed():
                    start = _perf()
                    result = trainer.train(
                        train_day,
                        test_day,
                        epochs=1,
                        eval_samples=c.eval_samples,
                        checkpoint=CheckpointManager(
                            self.work_dir / f"day-{day}",
                            every=c.checkpoint_every,
                            keep=c.checkpoint_keep,
                        ),
                    )
                    busy += _perf() - start
                samples += clock.samples
                latencies.extend(clock.latencies_s)
                day_attempted, day_failed = _segments(result)
                attempted += day_attempted
                failed += day_failed
        finally:
            patches.restore()
        self.cache = cache
        self.replicas = replicas
        return RoundResult(samples, busy, latencies, attempted, failed)

    def finish(self) -> tuple[float, dict[str, list[str]]]:
        c = self.config
        post_shift = self.splits[c.shift_day - 1 :]
        quality, results, _ = _quality_checks(
            self.replicas[0], _Pooled([test for _, test in post_shift])
        )

        dense = [[p.value for p in m.dense_parameters()] for m in self.replicas]
        equal = []
        for rank in range(1, len(dense)):
            equal += checks.check_bytes_equal(dense[0], dense[rank], f"ranks 0 and {rank}")

        contended = sorted(n for n, bag in self.plan.bags.items() if not bag.whole_table)
        raw = _Pooled([train for train, _ in post_shift])
        final_rate = checks.lookup_hit_rate(raw.sparse, self.cache.bags(), contended)
        day0_rate = checks.lookup_hit_rate(raw.sparse, self.plan.bags, contended)
        hit = []
        if not final_rate > day0_rate:
            hit.append(
                f"post-shift hit rate of the final membership {final_rate:.4f} is not above "
                f"the day-0 membership's {day0_rate:.4f}"
            )

        newest = latest_checkpoint(self.work_dir / f"day-{c.num_days - 1}")
        ckpt = []
        if newest is None or not verify_checkpoint(newest):
            ckpt.append("no checkpoint passes verification")
        else:
            loaded = load_checkpoint(newest)
            model = self.replicas[0]
            expected = {
                f"dense.{i:04d}": p.value.shape for i, p in enumerate(model.dense_parameters())
            }
            expected.update({f"table.{n}": t.weight.value.shape for n, t in model.tables.items()})
            stored = [loaded.params.get(key) for key in expected]
            if any(s is None or s.shape != shape for s, shape in zip(stored, expected.values())):
                ckpt.append("newest checkpoint lacks some of the model's parameters")
            elif not all(np.isfinite(s).all() for s in stored):
                ckpt.append("newest checkpoint holds non-finite parameters")

        budget = list(self.budget_errors)
        if self.rebalances == 0:
            budget.append("the cache never rebalanced, so its budget went untested")
        results.update(
            {
                "replicas_byte_equal": equal,
                "cache_within_budget_after_every_rebalance": budget,
                "cache_turnover_raises_post_shift_hit_rate": hit,
                "newest_checkpoint_verifies": ckpt,
            }
        )
        return quality, results


class _Pooled:
    """Rows of several logs, concatenated (for evaluation and recounts)."""

    def __init__(self, logs) -> None:
        self.schema = logs[0].schema
        self.dense = np.concatenate([log.dense for log in logs])
        self.sparse = {n: np.concatenate([log.sparse[n] for log in logs]) for n in logs[0].sparse}
        self.labels = np.concatenate([log.labels for log in logs])
        self._logits = np.concatenate([log._logits for log in logs])

    def __len__(self) -> int:
        return int(self.labels.shape[0])


# ----------------------------------------------------------------------
# preprocess-stream
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PreprocessStreamConfig:
    rows: int = 200_000
    chunk_size: int = 8192
    batch_size: int = 1024
    budget_bytes: int = 4 * 2**20
    large_table_min_bytes: int = 16 * 1024
    sample_rate: float = 0.05

    @classmethod
    def small(cls) -> PreprocessStreamConfig:
        return cls(rows=40_000, chunk_size=4096)


class _TimedSource(ChunkSource):
    """A chunk source that times the pipeline's work per chunk.

    A chunk's time is the sum, over every pass that reads it, of the
    interval from the previous yield to its own: generating the chunk
    plus the consumer's work on the chunk before it.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.schema = inner.schema
        self.chunk_size = inner.chunk_size
        self.per_chunk_s: dict[int, float] = {}

    @property
    def num_samples(self):
        return self.inner.num_samples

    def chunks(self):
        last = _perf()
        for start, chunk in self.inner.chunks():
            now = _perf()
            self.per_chunk_s[start] = self.per_chunk_s.get(start, 0.0) + now - last
            yield start, chunk
            last = _perf()

    def __iter__(self):
        return self.chunks()


def memory_bytes(field: str) -> int:
    """A memory figure of this process from ``/proc/self/status``.

    ``VmRSS`` is the resident set now and ``VmHWM`` its peak.  The peak
    is read here rather than from ``getrusage``, whose maximum carries
    over from the parent process across ``exec``.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(field)


class PreprocessStream:
    """Streaming FAE preprocess of a lazily generated terabyte-like log."""

    name = "preprocess-stream"
    setup_repeats = 21

    def __init__(
        self, seed: int, config: PreprocessStreamConfig | None = None, work_dir=None
    ) -> None:
        self.seed = seed
        self.config = config or PreprocessStreamConfig()

    def setup(self) -> None:
        c = self.config
        self.schema = dataset_by_name("criteo-terabyte", "small")
        self.stream = SyntheticClickStream(
            self.schema, c.rows, chunk_size=c.chunk_size, seed=self.seed
        )
        self.fae_config = FAEConfig(
            gpu_memory_budget=c.budget_bytes,
            large_table_min_bytes=c.large_table_min_bytes,
            sample_rate=c.sample_rate,
            seed=self.seed,
        )

    def warmup(self) -> None:
        c = self.config
        short = SyntheticClickStream(
            self.schema, 2 * c.chunk_size, chunk_size=c.chunk_size, seed=self.seed
        )
        fae_preprocess_source(StreamChunkSource(short), self.fae_config, batch_size=c.batch_size)
        self.rss_before_rounds = memory_bytes("VmRSS")

    def run_round(self) -> RoundResult:
        source = _TimedSource(StreamChunkSource(self.stream))
        start = _perf()
        self.plan = fae_preprocess_source(
            source, self.fae_config, batch_size=self.config.batch_size
        )
        busy = _perf() - start
        latencies = list(source.per_chunk_s.values())
        return RoundResult(self.config.rows, busy, latencies, self.stream.num_chunks, 0)

    def materialized_bytes(self) -> int:
        per_row = 4 * self.schema.num_dense + 4 + sum(
            8 * spec.multiplicity for spec in self.schema.tables
        )
        return per_row * self.config.rows

    def finish(self) -> tuple[float, dict[str, list[str]]]:
        c = self.config
        plan = self.plan
        dataset = plan.dataset
        packed_hot = np.zeros(c.rows, dtype=bool)
        for batch in dataset.hot_batches:
            packed_hot[np.asarray(batch)] = True
        purity: list[str] = []
        recount = 0
        for start, chunk in self.stream:
            rows = slice(start, start + len(chunk))
            every_hot = checks.all_hot(chunk.sparse, plan.bags, len(chunk))
            recount += int(np.count_nonzero(every_hot))
            if np.any(packed_hot[rows] & ~every_hot) and not purity:
                purity.append(f"a hot batch holds a cold input in the chunk at row {start}")
        fraction = []
        if recount != dataset.num_hot_inputs:
            fraction.append(
                f"plan reports {dataset.num_hot_inputs} hot inputs, the recount finds {recount}"
            )
        if int(np.count_nonzero(packed_hot)) != recount:
            fraction.append("the hot batches do not hold exactly the recounted hot inputs")
        growth = memory_bytes("VmHWM") - self.rss_before_rounds
        memory = []
        if growth >= self.materialized_bytes():
            memory.append(
                f"peak RSS grew by {growth} bytes while streaming, not below the "
                f"materialized log's {self.materialized_bytes()} bytes"
            )
        results = {
            "packed_exactly_once": checks.check_exactly_once(
                dataset.hot_batches, dataset.cold_batches, c.rows, c.batch_size
            ),
            "hot_batches_hold_only_hot_ids": purity,
            "hot_bags_fit_budget": checks.check_budget(checks.hot_bytes(plan.bags), c.budget_bytes),
            "hot_input_fraction_matches_recount": fraction,
            "peak_rss_below_materialized_log": memory,
        }
        return recount / c.rows, results


# ----------------------------------------------------------------------
# serve-rank
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServeRankConfig:
    train_samples: int = 20_000
    test_fraction: float = 0.2
    batch_size: int = 256
    budget_bytes: int = 384 * 1024
    large_table_min_bytes: int = 1024
    sample_rate: float = 0.5
    lr: float = 0.6
    epochs: int = 1
    eval_samples: int = 512
    candidates: int = 512
    top_k: int = 10
    requests_per_round: int = 50
    verified_requests: int = 10
    rebalance_every: int = 512 * 250

    @classmethod
    def small(cls) -> ServeRankConfig:
        return cls(train_samples=12_000, requests_per_round=20, verified_requests=5)


class ServeRank:
    """One closed-loop client ranking Zipf-skewed candidate sets."""

    name = "serve-rank"
    setup_repeats = 3

    def __init__(self, seed: int, config: ServeRankConfig | None = None, work_dir=None) -> None:
        self.seed = seed
        self.config = config or ServeRankConfig()
        self.responses: list = []

    def setup(self) -> None:
        c = self.config
        schema = dataset_by_name("criteo-kaggle", "small")
        log = SyntheticClickLog(
            schema, SyntheticConfig(num_samples=c.train_samples, seed=self.seed)
        )
        train_log, self.test_log = train_test_split(log, c.test_fraction, seed=self.seed)
        self.plan = fae_preprocess(
            train_log,
            FAEConfig(
                gpu_memory_budget=c.budget_bytes,
                large_table_min_bytes=c.large_table_min_bytes,
                sample_rate=c.sample_rate,
                chunk_size=64,
                seed=self.seed,
            ),
            batch_size=c.batch_size,
        )
        self.model = build_model(workload_by_name("RMC2"), schema=schema, seed=self.seed + 1)
        FAETrainer(self.model, self.plan, lr=c.lr).train(
            train_log, self.test_log, epochs=c.epochs, eval_samples=c.eval_samples
        )
        cache = EmbeddingHotCache(
            self.plan.bags,
            HotCacheConfig(
                budget_bytes=c.budget_bytes, rebalance_every=c.rebalance_every, seed=self.seed
            ),
            profile=self.plan.calibration.profile,
        )
        self.engine = InferenceEngine(
            self.model, batch_size=max(2048, c.candidates), hot_cache=cache
        )

        table = max(schema.tables, key=lambda spec: spec.num_rows)
        self.table = table.name
        popularity = ZipfSampler(
            num_items=table.num_rows, exponent=table.zipf_exponent, seed=self.seed * 7919 + 2
        ).id_probabilities()
        rng = np.random.default_rng((self.seed, 0x5E7E))
        contexts = rng.integers(0, len(self.test_log), size=c.requests_per_round)
        self.requests = [
            (
                self.test_log.dense[row],
                {name: ids[row] for name, ids in self.test_log.sparse.items()},
                rng.choice(table.num_rows, size=c.candidates, replace=False, p=popularity),
            )
            for row in contexts
        ]
        self.verified = rng.choice(c.requests_per_round, size=c.verified_requests, replace=False)

    def _batch(self, request):
        dense, context, candidates = request
        count = len(candidates)
        sparse = {name: np.tile(ids[None, :], (count, 1)) for name, ids in context.items()}
        sparse[self.table] = np.tile(candidates[:, None], (1, sparse[self.table].shape[1]))
        return MiniBatch(
            dense=np.tile(np.asarray(dense, dtype=np.float32), (count, 1)),
            sparse=sparse,
            labels=np.zeros(count, dtype=np.float32),
            indices=np.arange(count, dtype=np.int64),
        )

    def warmup(self) -> None:
        batch = self._batch(self.requests[0])
        for _ in range(3):
            self.engine.predict_batch(batch)

    def run_round(self) -> RoundResult:
        c = self.config
        latencies = []
        responses = []
        failed = 0
        start = _perf()
        for dense, context, candidates in self.requests:
            sent = _perf()
            try:
                response = self.engine.rank_candidates(
                    dense, context, self.table, candidates, top_k=c.top_k
                )
            except (LoadShedError, ValueError, KeyError):
                response = None
            latencies.append(_perf() - sent)
            if response is None or response.degraded:
                failed += 1
            responses.append(response)
        busy = _perf() - start
        self.responses = responses
        attempted = len(self.requests)
        return RoundResult(attempted - failed, busy, latencies, attempted, failed)

    def finish(self) -> tuple[float, dict[str, list[str]]]:
        c = self.config
        quality, results, _ = _quality_checks(self.model, self.test_log)
        shape: list[str] = []
        for request, response in zip(self.requests, self.responses):
            if response is not None:
                shape += checks.check_ranking(
                    response.item_ids, response.scores, request[2], c.top_k
                )
        matches: list[str] = []
        for index in self.verified:
            request, response = self.requests[index], self.responses[index]
            if response is None:
                continue
            reference = self.engine.predict_batch(self._batch(request))
            matches += checks.check_top_k_matches(response.item_ids, request[2], reference, c.top_k)
        results.update(
            {
                "responses_are_rankings_of_their_candidates": sorted(set(shape)),
                "top_k_matches_full_rescore": sorted(set(matches)),
            }
        )
        return quality, results


WORKLOADS = {
    TrainKaggle.name: TrainKaggle,
    Shift2Rank.name: Shift2Rank,
    PreprocessStream.name: PreprocessStream,
    ServeRank.name: ServeRank,
}
