"""Monte-Carlo orchestration: repeated split/train/test runs per concept,
random-list null distributions, and empirical p-values.

A concept's iterations are trained in stacks (`perceptron.train_many`, bitwise
equal to one-by-one training) sized by the concept and embedding alone. Each
stack and each null list is a task seeded from the master seed, so tasks and
results are identical whatever the worker count; aggregation is keyed by task.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .concepts import (
    MIN_RESOLVED_SIZE, ResolvedConcept, check_vocabulary_size, random_concept,
)
from .embeddings import EmbeddingStore, normalize
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
        if not 0.0 <= self.threshold <= 1.0:  # NaN fails too
            raise ValueError("threshold must be a number in [0, 1]")


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
    return _run_fits(store, resolved, cfg, [index])[0]


def _stacks(store: EmbeddingStore, resolved: ResolvedConcept, iterations: int):
    """A concept's iterations as training stacks, range(0, k), range(k, 2k),
    ..., with k = `stack_size`: the one grouping at every worker count."""
    k = stack_size(2 * train_positives(resolved.size), store.dimension)
    return [range(i, min(i + k, iterations)) for i in range(0, iterations, k)]


def _run_fits(
    store: EmbeddingStore, resolved: ResolvedConcept, cfg: ExperimentConfig, stack
) -> list[MetricsRecord]:
    """Split, train and score the fits of one stack of iterations. A stack
    that fails is trained again one fit at a time from the same splits, so
    the error raised is the serial one."""
    splits = [make_split(resolved, store, i, cfg.master_seed) for i in stack]
    models = None
    if len(splits) > 1:
        try:
            models = train_many(splits, store, cfg.train)
        except (FloatingPointError, ValueError):
            pass  # retrained one at a time below
    records = []
    for j, split in enumerate(splits):
        try:
            model = train(split, store, cfg.train) if models is None else models[j]
            scores = score(model, store, split.test_rows)
            records.append(evaluate_scores(scores, split.test_labels(), cfg.threshold))
        except Exception as exc:
            raise RuntimeError(
                f"iteration {split.iteration_index} of concept "
                f"{resolved.concept.name!r} failed: {exc}"
            ) from exc
    return records


# A pool worker's (store, concepts, cfg), appended by the pool's initializer.
# The pool forks, so the store reaches it as shared pages.
_WORK: list = []


def _run_task(task: tuple, work=None):
    """("iter", c, stack) -> that stack's records of concept c; ("null",
    k) -> the metric means of random list k, trained stack by stack."""
    store, concepts, cfg = work or _WORK[0]
    if task[0] == "iter":
        return _run_fits(store, concepts[task[1]], cfg, task[2])
    rc = random_concept(
        store, cfg.random_list_size, seed=cfg.master_seed, name=f"random-{task[1]:04d}"
    )
    records = [r for stack in _stacks(store, rc, cfg.iterations)
               for r in _run_fits(store, rc, cfg, stack)]
    return _aggregate(rc, records).means


def default_workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so taskset and cpusets are respected), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_embedding(store: EmbeddingStore, cfg: ExperimentConfig, concepts=(),
                  null: bool = False, workers: int = 1):
    """Run `concepts` (ResolvedConcepts) and, with `null`, the null on one
    store as one list of keyed tasks, ("iter", c, stack) per training stack
    of concept c and ("null", k) per random list, the same at any worker
    count, on one fork pool of at most one worker per task that hands out
    one task at a time, or in order on one worker. Returns the
    AggregateResults and NullDistribution (None without `null`), keyed by
    task. An oversize random list raises before any fit."""
    if null:
        check_vocabulary_size(cfg.random_list_size, len(store))
    if cfg.normalize:
        store = normalize(store)
    work = (store, concepts, cfg)
    stacks = [_stacks(store, rc, cfg.iterations) for rc in concepts]
    tasks = [("iter", c, stack) for c, cs in enumerate(stacks) for stack in cs]
    tasks += [("null", k) for k in range(cfg.random_list_count if null else 0)]
    workers = min(workers, len(tasks))
    if workers > 1 and "fork" not in mp.get_all_start_methods():
        warnings.warn("cannot fork worker processes here; running on 1 worker",
                      RuntimeWarning)
        workers = 1
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork"),
            initializer=_WORK.append, initargs=(work,),
        ) as pool:
            outputs = list(pool.map(_run_task, tasks))
    else:
        outputs = [_run_task(task, work) for task in tasks]
    done = dict(zip(tasks, outputs))
    aggregates = [
        _aggregate(rc, [r for stack in stacks[c] for r in done["iter", c, stack]])
        for c, rc in enumerate(concepts)
    ]
    if not null:
        return aggregates, None
    per_list = [done["null", k] for k in range(cfg.random_list_count)]
    max_row = {k: max(m[k] for m in per_list) for k in METRIC_NAMES}
    mean_row = {k: float(np.mean([m[k] for m in per_list])) for k in METRIC_NAMES}
    return aggregates, NullDistribution(
        per_list=tuple(per_list), max_row=max_row, mean_row=mean_row,
        list_size=cfg.random_list_size,
    )


def run_concept(
    store: EmbeddingStore,
    resolved: ResolvedConcept,
    cfg: ExperimentConfig,
    workers: int = 1,
) -> AggregateResult:
    """Evaluate one concept: cfg.iterations independent split/train/test
    passes, aggregated to per-metric mean and sample standard deviation."""
    return run_embedding(store, cfg, [resolved], workers=workers)[0][0]


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
    store: EmbeddingStore, cfg: ExperimentConfig, workers: int = 1
) -> NullDistribution:
    """Null distribution from cfg.random_list_count random word lists.

    Each list is drawn from the whole vocabulary and runs the full
    per-concept protocol under its own derived seed.
    The max row is a per-metric maximum across lists; the mean row is the
    per-metric average.
    """
    return run_embedding(store, cfg, null=True, workers=workers)[1]


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
