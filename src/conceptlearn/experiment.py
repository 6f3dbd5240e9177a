"""Monte-Carlo orchestration: repeated split/train/test runs per concept,
random-list null distributions, and empirical p-values.

Iterations and null lists are independent tasks seeded from the master seed,
so results are identical whatever the worker count; aggregation is keyed by
task index. Iterations of a small concept are trained in stacks
(`perceptron.train_many`), bitwise equal to training them one by one.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .concepts import MIN_RESOLVED_SIZE, ResolvedConcept, random_concept
from .embeddings import EmbeddingStore, normalized_view
from .metrics import METRIC_NAMES, MetricsRecord, evaluate_scores
from .perceptron import TrainConfig, score, stack_size, train, train_many
from .splits import make_split, train_positives


@dataclass(frozen=True)
class ExperimentConfig:
    iterations: int = 1000
    random_list_count: int = 1000
    random_list_size: int = 400
    master_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    normalize: bool = False
    threshold: float = 0.5

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.random_list_count < 1:
            raise ValueError("random_list_count must be >= 1")
        if self.random_list_size < MIN_RESOLVED_SIZE:
            raise ValueError(f"random_list_size must be >= {MIN_RESOLVED_SIZE}")


@dataclass(frozen=True)
class AggregateResult:
    concept_name: str
    resolved_size: int
    raw_size: int
    means: dict[str, float]
    stds: dict[str, float]
    records: tuple[MetricsRecord, ...]


@dataclass(frozen=True)
class NullDistribution:
    per_list: tuple[dict[str, float], ...]  # each list's metric means
    max_row: dict[str, float]  # per-metric maximum, not one best list
    mean_row: dict[str, float]
    list_size: int


def run_iteration(
    store: EmbeddingStore, resolved: ResolvedConcept, cfg: ExperimentConfig, index: int
) -> MetricsRecord:
    """One split/train/score/metrics pass."""
    split = make_split(resolved, store, index, cfg.master_seed)
    try:
        model = train(split, store, cfg.train)
        return _held_out_metrics(model, split, store, cfg)
    except Exception as exc:
        raise _iteration_error(resolved, index, exc) from exc


def _run_stacked(
    store: EmbeddingStore, resolved: ResolvedConcept, cfg: ExperimentConfig, indices
) -> list[MetricsRecord]:
    """`run_iteration` for each index, with the fits trained as one stack.

    The records are bitwise the serial ones. If any fit fails, the indices
    are replayed through `run_iteration` in order, so the error raised is
    the serial one too.
    """
    splits = [make_split(resolved, store, i, cfg.master_seed) for i in indices]
    try:
        models = train_many(splits, store, cfg.train)
    except (FloatingPointError, ValueError):
        return [run_iteration(store, resolved, cfg, i) for i in indices]
    records = []
    for split, model in zip(splits, models):
        try:
            records.append(_held_out_metrics(model, split, store, cfg))
        except Exception as exc:
            raise _iteration_error(resolved, split.iteration_index, exc) from exc
    return records


def _held_out_metrics(model, split, store, cfg: ExperimentConfig) -> MetricsRecord:
    scores = score(model, store, split.test_rows)
    return evaluate_scores(scores, split.test_labels(), cfg.threshold)


def _iteration_error(resolved: ResolvedConcept, index: int, exc) -> RuntimeError:
    return RuntimeError(
        f"iteration {index} of concept {resolved.concept.name!r} failed: {exc}"
    )


# Worker-pool plumbing. Contexts live in module globals inherited through
# fork(), so the embedding matrix is never pickled per task. Iteration and
# null-list maps use separate slots because run_null's workers call
# run_concept serially inside themselves.
_CONTEXTS: dict[str, object] = {}


def _iterations_task(indices: range) -> list[MetricsRecord]:
    store, resolved, cfg = _CONTEXTS["iter"]
    if len(indices) == 1:
        return [run_iteration(store, resolved, cfg, indices[0])]
    return _run_stacked(store, resolved, cfg, indices)


def _null_task(k: int) -> dict[str, float]:
    store, cfg, exclude = _CONTEXTS["null"]
    rc = random_concept(
        store, cfg.random_list_size, exclude=exclude, seed=cfg.master_seed,
        name=f"random-{k:04d}",
    )
    return run_concept(store, rc, cfg, workers=1).means


def _map_tasks(task_fn, slot: str, ctx, indices, workers: int):
    _CONTEXTS[slot] = ctx
    try:
        if workers <= 1 or "fork" not in mp.get_all_start_methods():
            return [task_fn(i) for i in indices]
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork")
        ) as pool:
            chunk = max(1, len(indices) // (4 * workers))
            return list(pool.map(task_fn, indices, chunksize=chunk))
    finally:
        _CONTEXTS.pop(slot, None)


def default_workers() -> int:
    return os.cpu_count() or 1


def run_concept(
    store: EmbeddingStore,
    resolved: ResolvedConcept,
    cfg: ExperimentConfig,
    workers: int = 1,
) -> AggregateResult:
    """Evaluate one concept: cfg.iterations independent split/train/test
    passes, aggregated to per-metric mean and sample standard deviation.

    Small concepts train their iterations in stacks of `stack_size`, cut so
    every worker gets one; the records do not depend on the cut."""
    if cfg.normalize:
        store = normalized_view(store)
    n = cfg.iterations
    train_rows = 2 * train_positives(resolved.size)
    k = min(stack_size(train_rows, store.dimension), math.ceil(n / max(1, workers)))
    chunks = [range(i, min(i + k, n)) for i in range(0, n, k)]
    per_chunk = _map_tasks(
        _iterations_task, "iter", (store, resolved, cfg), chunks, workers
    )
    return _aggregate(resolved, [r for records in per_chunk for r in records])


def _aggregate(resolved: ResolvedConcept, records) -> AggregateResult:
    cols = {
        name: np.array([getattr(r, name) for r in records]) for name in METRIC_NAMES
    }
    means = {name: float(v.mean()) for name, v in cols.items()}
    stds = {
        name: float(v.std(ddof=1)) if v.size > 1 else 0.0 for name, v in cols.items()
    }
    return AggregateResult(
        concept_name=resolved.concept.name,
        resolved_size=resolved.size,
        raw_size=resolved.raw_size,
        means=means,
        stds=stds,
        records=tuple(records),
    )


def run_null(
    store: EmbeddingStore,
    cfg: ExperimentConfig,
    exclude=frozenset(),
    workers: int = 1,
) -> NullDistribution:
    """Null distribution from cfg.random_list_count random word lists.

    Each list runs the full per-concept protocol under its own derived seed.
    The max row is a per-metric maximum across lists; the mean row is the
    per-metric average.
    """
    if cfg.normalize:
        store = normalized_view(store)  # once here; idempotent in run_concept
    ctx = (store, cfg, frozenset(exclude))
    per_list = _map_tasks(
        _null_task, "null", ctx, range(cfg.random_list_count), workers
    )
    max_row = {n: max(m[n] for m in per_list) for n in METRIC_NAMES}
    mean_row = {
        n: float(np.mean([m[n] for m in per_list])) for n in METRIC_NAMES
    }
    return NullDistribution(
        per_list=tuple(per_list), max_row=max_row, mean_row=mean_row,
        list_size=cfg.random_list_size,
    )


def empirical_p_value(observed: float, null_values) -> float:
    """Add-one permutation p-value: (1 + #{null >= observed}) / (1 + N)."""
    null_values = np.asarray(null_values, dtype=np.float64)
    if null_values.size == 0:
        raise ValueError("null_values must be non-empty")
    exceed = int(np.sum(null_values >= observed))
    return (1 + exceed) / (1 + null_values.size)


def format_p_value(observed: float, null_values) -> str:
    """Paper-style rendering: '< 1/(N+1)' when nothing in the null reaches
    the observation, otherwise the add-one estimate to 3 decimals."""
    p = empirical_p_value(observed, null_values)
    floor = 1 / (1 + np.size(null_values))
    if p == floor:
        return f"< {floor:.3f}"
    return f"{p:.3f}"
