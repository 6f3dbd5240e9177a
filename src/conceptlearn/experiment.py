"""Monte-Carlo orchestration: repeated split/train/test runs per concept,
random-list null distributions, and empirical p-values.

Every list, a concept or a random list, is cut into tasks of consecutive
iterations holding at most TASK_BYTES of training rows, and each task trains
its fits in stacks of at most STACK_BYTES: every stack, of one fit or many,
through `train_many`, bitwise equal to one-by-one training; `train` only
retrains a failed stack. One `_cut` makes both from the list's size and the
embedding's dimension alone, so tasks and results are identical whatever the
worker count; each task returns a metric row per fit, read in task order.
"""

from __future__ import annotations

import os
import warnings
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import groupby, repeat

import numpy as np

from .concepts import (
    MIN_RESOLVED_SIZE, ResolvedConcept, check_vocabulary_size, random_concept,
)
from .embeddings import EmbeddingStore, normalize
from .metrics import METRIC_NAMES, evaluate_scores
from .perceptron import TrainConfig, score, train, train_many
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


@dataclass(frozen=True, eq=False)
class AggregateResult:
    concept_name: str
    resolved_size: int
    raw_size: int
    means: dict[str, float]
    stds: dict[str, float]
    metrics: np.ndarray  # (iterations, len(METRIC_NAMES)), iteration order


@dataclass(frozen=True)
class NullDistribution:
    per_list: tuple[dict[str, float], ...]  # each list's metric means
    max_row: dict[str, float]  # per-metric maximum, not one best list
    mean_row: dict[str, float]
    list_size: int


# Float64 training rows a task holds at most. A list's iterations are cut
# into runs of at most TASK_BYTES // fit_bytes, a length set by the list's
# size and the dimension alone; at d = 300 a 400-word list runs 1000
# iterations as 15 tasks of 66-67.
TASK_BYTES = 64 * 1024 * 1024

# Stacking pays while a stack's float64 training matrices and the epoch's
# other arrays stay in L2, where a fit is mostly numpy call overhead that
# the K models share. Per-fit time of `train_many`, d = 300, 2-vCPU Xeon
# with 2 MiB of L2 a core, stacks of K over K': n = 54, 8/16: 0.84x; n = 120,
# 2/1: 0.76x; n = 184, 2/1: 0.73x; n = 232, 2/1 (1.06 MiB): 0.80-0.88x;
# n = 320, 2/1 (1.46 MiB): 1.00x; n = 368, 2/1 (1.68 MiB): 1.07-1.12x.
# STACK_BYTES stays below that break-even: a fit of more than half of it
# (n > 218 words at d = 300) trains alone, though 2/1 still pays to ~300.
STACK_BYTES = 1024 * 1024


def _cut(run, size: int, dimension: int, budget: int) -> list:
    """`run`, iterations of a `size`-word list, cut into the fewest
    consecutive, near-equal slices whose fits' float64 training rows each
    fit in `budget` bytes; a fit over the budget is a slice of its own."""
    k = max(1, budget // (2 * train_positives(size) * dimension * 8))
    n, parts = len(run), -(-len(run) // k)
    return [run[i * n // parts:(i + 1) * n // parts] for i in range(parts)]


def _run_fits(
    store: EmbeddingStore, resolved: ResolvedConcept, cfg: ExperimentConfig, run
) -> np.ndarray:
    """Split, train and score the iterations `run` in stacks (`_cut` at
    STACK_BYTES), each one `train_many` call: a float64 row of METRIC_NAMES
    per iteration, in `run`'s order. A stack whose call raises is retrained
    one fit at a time through `train`, so its error is the serial one."""
    rows = []
    for stack in _cut(run, resolved.size, store.dimension, STACK_BYTES):
        splits = [make_split(resolved, store, i, cfg.master_seed) for i in stack]
        try:
            models = train_many(splits, store, cfg.train)
        except Exception:
            models = None  # retrained one at a time below
        for j, split in enumerate(splits):
            try:
                model = train(split, store, cfg.train) if models is None else models[j]
                scores = score(model, store, split.test_rows)
                fit = evaluate_scores(scores, split.test_labels(), cfg.threshold)
            except Exception as exc:
                raise RuntimeError(
                    f"iteration {split.iteration_index} of concept "
                    f"{resolved.concept.name!r} failed: {exc}"
                ) from exc
            rows.append([getattr(fit, name) for name in METRIC_NAMES])
    return np.array(rows)


# A pool worker's (store, lists, cfg), appended by the pool's initializer.
# The pool forks, so the store and the lists reach it as shared pages.
_WORK: list = []


def _run_task(task: tuple, work=None) -> np.ndarray:
    """(c, run) -> the metric rows of list c's iterations `run`."""
    store, lists, cfg = work or _WORK[0]
    return _run_fits(store, lists[task[0]], cfg, task[1])


# Tasks a pool holds submitted and unread, per worker. Each pending task
# costs the parent about 2 KB (a Future and a work item), so submitting a
# paper-scale null's 15,000 tasks at once would hold about 30 MB.
IN_FLIGHT_PER_WORKER = 4


def _in_order(pool, tasks, window: int):
    """The outputs of `_run_task` over `tasks` on `pool`, in task order,
    with at most `window` tasks submitted and not yet read. Tasks not yet
    read are cancelled when a task's error is raised."""
    pending = deque()
    try:
        for task in tasks:
            pending.append(pool.submit(_run_task, task))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def default_workers() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so taskset and cpusets are respected), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_embedding(store: EmbeddingStore, cfg: ExperimentConfig, concepts=(),
                  null: bool = False, workers: int = 1):
    """Run `concepts` (ResolvedConcepts) and, with `null`, the null on one
    store as one task list, the same at any worker count: (c, run) for each
    run of list c's iterations (`_cut` at TASK_BYTES of training rows), the
    concepts first, then the random lists, drawn here before any worker
    forks. It runs on one fork pool of at most one worker per task that
    hands out one task at a time, with at most IN_FLIGHT_PER_WORKER tasks a
    worker submitted and unread, or in order on one worker. Metric rows are
    read in task order, and each list is aggregated as its last run
    arrives, a random list down to its means. Returns the AggregateResults
    and NullDistribution (None without `null`). An oversize random list
    raises before any fit."""
    if null:
        check_vocabulary_size(cfg.random_list_size, len(store))
    if cfg.normalize:
        store = normalize(store)
    lists = [*concepts] + [
        random_concept(store, cfg.random_list_size, seed=cfg.master_seed,
                       name=f"random-{k:04d}")
        for k in range(cfg.random_list_count if null else 0)
    ]
    work = (store, lists, cfg)
    tasks = [(c, run) for c, rc in enumerate(lists) for run in _cut(
        range(cfg.iterations), rc.size, store.dimension, TASK_BYTES)]
    workers = min(workers, len(tasks))
    if workers > 1:  # a serial run never loads the pool's modules
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        if "fork" not in mp.get_all_start_methods():
            warnings.warn("cannot fork worker processes here; running on 1 worker",
                          RuntimeWarning)
            workers = 1
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=mp.get_context("fork"),
        initializer=_WORK.append, initargs=(work,),
    ) if workers > 1 else None
    results = []
    with pool or nullcontext():
        outputs = (_in_order(pool, tasks, IN_FLIGHT_PER_WORKER * workers) if pool
                   else map(_run_task, tasks, repeat(work)))
        # a list's tasks are consecutive, so each group is one whole list
        for c, runs in groupby(zip(tasks, outputs), key=lambda done: done[0][0]):
            result = _aggregate(lists[c], np.concatenate([rows for _, rows in runs]))
            results.append(result if c < len(concepts) else result.means)
    aggregates, per_list = results[:len(concepts)], results[len(concepts):]
    if not null:
        return aggregates, None
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


def _aggregate(resolved: ResolvedConcept, metrics: np.ndarray) -> AggregateResult:
    # a contiguous 1-D column per metric: mean(axis=0) would move last bits
    cols = dict(zip(METRIC_NAMES, np.ascontiguousarray(metrics.T)))
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
        metrics=metrics,
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
    the observation, the floor rounded up to 3 decimals so that it bounds
    the estimate, otherwise the add-one estimate to 3 decimals; a p below
    0.0005 prints as '< 0.001' too, never 0.000."""
    p = empirical_p_value(observed, null_values)
    n = np.size(null_values)
    if p == 1 / (1 + n) or p < 0.0005:
        return f"< {-(-1000 // (n + 1)) / 1000:.3f}"  # at least 0.001
    return f"{p:.3f}"
