"""Tests of the benchmark itself.

- Every workload runs at a small size with all its output checks passing.
- Every output check rejects a planted bad output.
- Two properties the FAE method must have hold at a small size: FAE's
  held-out AUC is within ``FAE_VS_BASELINE_AUC`` of the baseline trainer
  on the same data (paper Table III), and 1-rank and 2-rank FAE agree.
- The command prints the metrics ``BENCHMARK.json`` names, and fails
  without a result where the program's source is missing.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_checks as checks  # noqa: E402
from repro.core import FAEConfig, fae_preprocess  # noqa: E402
from repro.core.classifier import HotEmbeddingBagSpec  # noqa: E402
from repro.core.hotcache import EmbeddingHotCache, HotCacheConfig  # noqa: E402
from repro.data import SyntheticClickLog, SyntheticConfig, dataset_by_name  # noqa: E402
from repro.data import train_test_split  # noqa: E402
from repro.data.loader import batch_from_log  # noqa: E402
from repro.dist.fae_parallel import DistributedFAETrainer  # noqa: E402
from repro.models import build_model, workload_by_name  # noqa: E402
from repro.train import BaselineTrainer, FAETrainer  # noqa: E402

#: Largest held-out AUC gap allowed between FAE and the baseline trainer
#: on the same data and initial weights (small size, two epochs).  At this
#: size the baseline alone moves by up to 0.007 with its shuffle seed,
#: and FAE measured 0.824 against the baseline's 0.808.
FAE_VS_BASELINE_AUC = 0.03

SMALL_RUN = textwrap.dedent(
    """
    import json, sys
    sys.path[:0] = [{here!r}, {src!r}]
    import workloads
    cls = workloads.WORKLOADS[{name!r}]
    config = getattr(workloads, cls.__name__ + "Config").small()
    workload = cls(seed=3, config=config, work_dir={work!r})
    workload.setup()
    workload.warmup()
    rounds = [workload.run_round() for _ in range(2)]
    quality, results = workload.finish()
    print(json.dumps({{
        "quality": quality,
        "results": results,
        "attempted": [r.attempted for r in rounds],
        "failed": [r.failed for r in rounds],
        "items": [r.items for r in rounds],
    }}))
    """
)


@pytest.mark.parametrize(
    "name", ["train-kaggle", "shift-2rank", "preprocess-stream", "serve-rank"]
)
def test_small_workload_passes_every_check(name, tmp_path):
    code = SMALL_RUN.format(
        here=str(HERE), src=str(ROOT / "src"), name=name, work=str(tmp_path / "work")
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["results"], "a workload must run output checks"
    failing = {check: errors for check, errors in report["results"].items() if errors}
    assert not failing
    assert 0 < report["quality"] <= 1.05
    # Whole rounds of the same operations: identical counts every round.
    assert report["attempted"][0] == report["attempted"][1] > 0
    assert report["failed"][0] == report["failed"][1]
    assert report["items"][0] == report["items"][1] > 0


# -- planted bad outputs -------------------------------------------------


def _bag(hot_ids, num_rows=10):
    return HotEmbeddingBagSpec(
        table_name="t",
        hot_ids=np.asarray(hot_ids, dtype=np.int64),
        num_rows=num_rows,
        dim=4,
        whole_table=False,
    )


def test_hot_batch_holding_a_cold_id_is_rejected():
    bags = {"t": _bag([1, 3, 5])}
    assert checks.check_hot_ids({"t": np.array([[1], [3], [5]])}, bags) == []
    assert checks.check_hot_ids({"t": np.array([[1], [7], [5]])}, bags)
    assert checks.all_hot({"t": np.array([[1], [7]])}, bags, 2).tolist() == [True, False]


def test_sample_packed_twice_is_rejected():
    hot = [np.array([0, 1]), np.array([2, 3])]
    assert checks.check_exactly_once(hot, [np.array([4, 5])], 6, batch_size=2) == []
    assert checks.check_exactly_once(hot, [np.array([3, 4]), np.array([5])], 6, batch_size=2)
    assert checks.check_exactly_once(hot, [np.array([4, 6])], 6, batch_size=2)


def test_reversed_top_k_is_rejected():
    candidates = np.array([10, 11, 12, 13, 14])
    scores = np.array([0.1, 0.5, 0.3, 0.9, 0.7])
    best = np.array([13, 14, 11])
    assert checks.check_ranking(best, [0.9, 0.7, 0.5], candidates, 3) == []
    assert checks.check_top_k_matches(best, candidates, scores, 3) == []
    assert checks.check_ranking(best[::-1], [0.5, 0.7, 0.9], candidates, 3)
    assert checks.check_ranking(np.array([13, 13, 11]), [0.9, 0.9, 0.5], candidates, 3)
    worst = np.array([12, 10])
    assert checks.check_top_k_matches(worst, candidates, scores, 2)


def test_auc_above_the_oracle_is_rejected():
    labels = np.array([0, 1] * 200)
    assert checks.check_auc(0.78, 0.80, labels) == []
    assert checks.check_auc(0.95, 0.80, labels)
    assert checks.check_auc(0.52, 0.80, labels)


def test_misreported_accuracy_is_rejected():
    logits = np.array([2.0, -1.0, 0.5, -3.0])
    labels = np.array([1.0, 0.0, 0.0, 0.0])
    assert checks.check_accuracy(0.75, logits, labels) == []
    assert checks.check_accuracy(1.0, logits, labels)
    # A row at the threshold may count either way.
    assert checks.check_accuracy(1.0, np.array([2.0, -1.0, 1e-6, -3.0]), labels) == []


def test_rank_sum_auc_matches_a_pairwise_count():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 6, size=80).astype(float)  # many ties
    labels = rng.random(80) < 0.4
    pos, neg = scores[labels], scores[~labels]
    pairwise = ((pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])).mean()
    assert checks.rank_sum_auc(scores, labels) == pytest.approx(pairwise, abs=1e-12)


def test_cache_over_budget_is_rejected():
    schema = dataset_by_name("criteo-kaggle", "tiny")
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=2000, seed=1))
    plan = fae_preprocess(
        log, FAEConfig(gpu_memory_budget=32 * 1024, large_table_min_bytes=1024, seed=1),
        batch_size=64,
    )
    cache = EmbeddingHotCache(plan.bags, HotCacheConfig(budget_bytes=32 * 1024))
    assert checks.check_budget(cache.hot_bytes, 32 * 1024) == []
    assert checks.check_budget(cache.hot_bytes, cache.hot_bytes - 1)
    assert checks.hot_bytes(cache.bags()) == cache.hot_bytes


def test_replicas_one_ulp_apart_are_rejected():
    a = [np.linspace(0, 1, 8, dtype=np.float32), np.ones((2, 2), np.float32)]
    b = [array.copy() for array in a]
    assert checks.check_bytes_equal(a, b) == []
    b[0][3] = np.nextafter(b[0][3], np.float32(2))
    assert checks.check_bytes_equal(a, b)


# -- properties of the method ---------------------------------------------


@pytest.fixture(scope="module")
def kaggle_small():
    schema = dataset_by_name("criteo-kaggle", "small")
    log = SyntheticClickLog(schema, SyntheticConfig(num_samples=8000, seed=5))
    train, test = train_test_split(log, 0.2, seed=5)
    plan = fae_preprocess(
        train,
        FAEConfig(
            gpu_memory_budget=384 * 1024,
            large_table_min_bytes=1024,
            sample_rate=0.5,
            chunk_size=64,
            seed=5,
        ),
        batch_size=256,
    )
    return schema, train, test, plan


def _auc(model, log):
    scores = model.forward(batch_from_log(log, np.arange(len(log))))
    return checks.rank_sum_auc(scores, log.labels)


def test_fae_auc_matches_the_baseline_trainer(kaggle_small):
    schema, train, test, plan = kaggle_small
    assert 0.2 < plan.hot_input_fraction < 0.9  # both paths carry real traffic
    workload = workload_by_name("RMC2")
    fae_model = build_model(workload, schema=schema, seed=6)
    base_model = build_model(workload, schema=schema, seed=6)
    FAETrainer(fae_model, plan, lr=0.3).train(train, test, epochs=2, eval_samples=512)
    BaselineTrainer(base_model, lr=0.3, seed=5).train(train, test, epochs=2, batch_size=256)
    fae_auc, base_auc = _auc(fae_model, test), _auc(base_model, test)
    assert base_auc > 0.6
    assert abs(fae_auc - base_auc) <= FAE_VS_BASELINE_AUC


def test_one_and_two_rank_fae_agree(kaggle_small):
    schema, train, test, plan = kaggle_small
    workload = workload_by_name("RMC2")
    single = build_model(workload, schema=schema, seed=7)
    FAETrainer(single, plan, lr=0.3).train(train, test, epochs=1, eval_samples=512)
    ranks = [build_model(workload, schema=schema, seed=7) for _ in range(2)]
    DistributedFAETrainer(ranks, plan, lr=0.3).train(train, test, epochs=1, eval_samples=512)
    assert checks.check_bytes_equal(
        [p.value for p in ranks[0].dense_parameters()],
        [p.value for p in ranks[1].dense_parameters()],
    ) == []
    for p, q in zip(single.dense_parameters(), ranks[0].dense_parameters()):
        np.testing.assert_allclose(q.value, p.value, rtol=1e-3, atol=1e-4)
    assert _auc(ranks[0], test) == pytest.approx(_auc(single, test), abs=2e-3)


# -- the command -----------------------------------------------------------


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(
        ROOT, "--workload", "preprocess-stream", "--seed", "2", "--seconds", "0.1",
        "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "train-kaggle", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert not out.stdout.strip()
