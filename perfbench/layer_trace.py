"""Per-layer timing from outside the program.

The benchmark never edits ``src/``.  Instead, for a traced run it wraps
the public entry points of each layer (class methods and module-level
functions) with timers, runs the workload, and restores the originals.

Attribution is by self time: a wrapped call's duration minus the time
spent in wrapped calls nested inside it, so the per-layer seconds of one
round add up to the time covered by any layer, never more.  Evaluation
is the one leaf layer: model forward calls made inside an evaluate
function are charged to ``train.eval_s``, so the ``nn.*`` metrics
describe training steps (and serving forwards) only.

:class:`StepClock` is separate and cheap: it times training steps
(first model forward of a batch through the last optimizer step) and
counts them and their samples, for both traced and untraced runs.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class _Patches:
    """Replace attributes and put the originals back, in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make_wrapper(original))

    def function(self, module_name: str, name: str, make_wrapper) -> None:
        """Patch a module function in every module that bound it by name."""
        original = getattr(sys.modules[module_name], name)
        wrapper = make_wrapper(original)
        for module in list(sys.modules.values()):
            if module is not None and getattr(module, name, None) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class LayerTracer:
    """Self-time accounting over wrapped layer calls.

    Attributes:
        self_s: metric name -> accumulated self seconds.
        calls: metric name -> number of wrapped calls.
        counts: free-form counters (bytes, segments, ...).
        covered_s: total duration of outermost wrapped calls.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self._stack: list[list[float]] = []
        self._leaf_depth = 0

    def wrap(self, metric: str, fn, leaf: bool = False, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._leaf_depth:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            if leaf:
                tracer._leaf_depth += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                if leaf:
                    tracer._leaf_depth -= 1
                tracer._stack.pop()
                tracer.self_s[metric] += elapsed - frame[0]
                tracer.calls[metric] += 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                else:
                    tracer.covered_s += elapsed
            if on_result is not None:
                on_result(tracer.counts, args, result)
            return result

        return wrapper


def _add_return(key: str):
    def on_result(counts, _args, result):
        counts[key] += int(result or 0)

    return on_result


def _add_file_size(key: str):
    def on_result(counts, _args, path):
        counts[key] += path.stat().st_size

    return on_result


def _add_payload(key: str):
    def on_result(counts, args, _result):
        per_rank = args[1]
        counts[key] += sum(buffer.nbytes for buffer in per_rank)

    return on_result


def _count_segments():
    """Segments and hot/cold kind changes, per scheduler instance.

    Each scheduler starts from the cold mode the trainers start in.
    """
    last_kind = weakref.WeakKeyDictionary()

    def on_result(counts, args, segment):
        if segment is None:
            return
        scheduler = args[0]
        counts["core.scheduler.segments"] += 1
        if segment.kind != last_kind.get(scheduler, "cold"):
            counts["core.scheduler.transitions"] += 1
        last_kind[scheduler] = segment.kind

    return on_result


def layer_targets():
    """(metric, owner, attribute, options) for every wrapped entry point.

    ``owner`` is a class, or a module name for module-level functions.
    """
    from repro.core.calibrator import Calibrator
    from repro.core.classifier import EmbeddingClassifier
    from repro.core.embedding_logger import EmbeddingLogger
    from repro.core.hotcache import EmbeddingHotCache
    from repro.core.input_processor import InputProcessor
    from repro.core.replicator import EmbeddingReplicator, HotEmbeddingBag
    from repro.core.scheduler import ShuffleScheduler
    from repro.data.stream import SyntheticClickStream
    from repro.dist.collectives import ProcessGroup
    from repro.nn.embedding import EmbeddingBag
    from repro.nn.interaction import DotInteraction
    from repro.nn.losses import BCEWithLogits
    from repro.nn.mlp import MLP
    from repro.nn.optim import SGD
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.journal import RefreshJournal
    from repro.serve.engine import InferenceEngine

    return [
        ("data.chunks_s", SyntheticClickStream, "chunk", {}),
        ("data.batch_s", "repro.data.loader", "fetch_batch", {}),
        ("core.profile_s", EmbeddingLogger, "profile_source", {}),
        ("core.calibrate_s", Calibrator, "calibrate_source", {}),
        ("core.calibrate_s", EmbeddingClassifier, "classify", {}),
        ("core.pack_s", InputProcessor, "classify_and_pack_stream", {}),
        ("core.scheduler.next_s", ShuffleScheduler, "next_segment",
         {"on_result": _count_segments()}),
        ("core.replicator.sync_s", EmbeddingReplicator, "sync_to_master",
         {"on_result": _add_return("core.replicator.sync_bytes")}),
        ("core.replicator.sync_s", EmbeddingReplicator, "sync_from_master",
         {"on_result": _add_return("core.replicator.sync_bytes")}),
        ("core.replicator.allreduce_s", EmbeddingReplicator, "all_reduce_gradients", {}),
        ("core.replicator.apply_delta_s", EmbeddingReplicator, "apply_delta", {}),
        ("core.hotcache.observe_s", EmbeddingHotCache, "observe", {}),
        ("core.hotcache.rebalance_s", EmbeddingHotCache, "rebalance", {}),
        ("core.hotcache.rebalance_s", EmbeddingHotCache, "plan_rebalance", {}),
        ("core.hotcache.rebalance_s", EmbeddingHotCache, "apply_rebalance", {}),
        ("core.hotcache.repack_s", "repro.core.hotcache", "repack_remaining", {}),
        ("nn.mlp_fwd_s", MLP, "forward", {}),
        ("nn.mlp_bwd_s", MLP, "backward", {}),
        ("nn.interaction_fwd_s", DotInteraction, "forward", {}),
        ("nn.interaction_bwd_s", DotInteraction, "backward", {}),
        ("nn.embedding_fwd_s", EmbeddingBag, "forward", {}),
        ("nn.embedding_bwd_s", EmbeddingBag, "backward", {}),
        ("nn.embedding_fwd_s", HotEmbeddingBag, "forward", {}),
        ("nn.embedding_bwd_s", HotEmbeddingBag, "backward", {}),
        ("nn.loss_s", BCEWithLogits, "forward", {}),
        ("nn.loss_s", BCEWithLogits, "backward", {}),
        ("nn.optimizer_s", SGD, "step", {}),
        ("train.eval_s", "repro.train.metrics", "evaluate_model", {"leaf": True}),
        ("train.eval_s", "repro.train.trainer", "evaluate_with_master_bags",
         {"leaf": True}),
        ("dist.collective_s", ProcessGroup, "all_reduce",
         {"on_result": _add_payload("dist.collective_bytes")}),
        ("dist.collective_s", ProcessGroup, "all_gather",
         {"on_result": _add_payload("dist.collective_bytes")}),
        ("resilience.checkpoint_s", CheckpointManager, "save",
         {"on_result": _add_file_size("resilience.checkpoint_bytes")}),
        ("resilience.journal_s", RefreshJournal, "begin", {}),
        ("resilience.journal_s", RefreshJournal, "commit", {}),
        ("resilience.journal_s", RefreshJournal, "verify_rollforward", {}),
        ("serve.forward_s", InferenceEngine, "predict_batch", {}),
        ("serve.rank_other_s", InferenceEngine, "rank_candidates", {}),
    ]


@contextmanager
def traced(tracer: LayerTracer):
    """Wrap every layer entry point for the duration of the block."""
    patches = _Patches()
    try:
        for metric, owner, name, options in layer_targets():
            def make(original, metric=metric, options=options):
                return tracer.wrap(metric, original, **options)

            if isinstance(owner, str):
                patches.function(owner, name, make)
            else:
                patches.method(owner, name, make)
        yield tracer
    finally:
        patches.restore()


class StepClock:
    """Times training steps and counts their samples from outside.

    A step opens at the first model forward outside evaluation and
    closes at the last optimizer step before the next forward (a second
    rank's forward of the same step arrives before any optimizer step,
    so it joins the open step).  Evaluation closes an open step and its
    forwards are not counted.

    Only optimizer steps over ``watch`` (a parameter) count, so a hot
    step that steps the dense optimizer and every replica's bag
    optimizer still closes once.
    """

    def __init__(self, watch) -> None:
        self.watch = watch
        self.latencies_s: list[float] = []
        self.samples = 0
        self._open_at: float | None = None
        self._stepped_at: float | None = None
        self._eval_depth = 0

    def _close(self) -> None:
        if self._open_at is not None and self._stepped_at is not None:
            self.latencies_s.append(self._stepped_at - self._open_at)
        self._open_at = None
        self._stepped_at = None

    @contextmanager
    def installed(self):
        from repro.models.dlrm import DLRM
        from repro.nn.optim import SGD

        clock = self
        patches = _Patches()

        def forward_wrapper(original):
            def forward(model, batch):
                if not clock._eval_depth:
                    if clock._stepped_at is not None:
                        clock._close()
                    if clock._open_at is None:
                        clock._open_at = _perf()
                    clock.samples += len(batch.labels)
                return original(model, batch)

            return forward

        def step_wrapper(original):
            def step(optimizer):
                result = original(optimizer)
                if clock._open_at is not None and any(
                    param is clock.watch for param in optimizer.parameters
                ):
                    clock._stepped_at = _perf()
                return result

            return step

        def eval_wrapper(original):
            def evaluate(*args, **kwargs):
                clock._close()
                clock._eval_depth += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    clock._eval_depth -= 1

            return evaluate

        try:
            patches.method(DLRM, "forward", forward_wrapper)
            patches.method(SGD, "step", step_wrapper)
            patches.function("repro.train.metrics", "evaluate_model", eval_wrapper)
            patches.function(
                "repro.train.trainer", "evaluate_with_master_bags", eval_wrapper
            )
            yield self
        finally:
            patches.restore()
            self._close()
