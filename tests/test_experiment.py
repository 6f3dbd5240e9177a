import dataclasses
import math
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from conceptlearn import (
    METRIC_NAMES,
    EmbeddingStore,
    ExperimentConfig,
    TrainConfig,
    empirical_p_value,
    evaluate_scores,
    format_p_value,
    make_split,
    random_concept,
    random_gaussian_embedding,
    run_concept,
    run_null,
    score,
    train,
)
from conceptlearn import experiment
from conftest import normalized_copy


@pytest.fixture
def pools(monkeypatch):
    """The size of each process pool `run_embedding` starts (`sizes`) and
    the work items submitted to them (`items`); the pools still fork."""
    log = SimpleNamespace(sizes=[], items=0)

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log.sizes.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            log.items += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    return log


def assert_same(a, b):
    """`a` and `b` are arrays of one shape and the same bytes (`==` would
    take -0.0 for 0.0)."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_aggregate(a, b):
    """Every field of AggregateResults `a` and `b` equal, the metric arrays
    bit for bit."""
    for f in dataclasses.fields(a):
        if f.name == "metrics":
            assert_same(a.metrics, b.metrics)
        else:
            assert getattr(a, f.name) == getattr(b, f.name)


def run_twice(store, rc, cfg, workers):
    """The metric rows of concept `rc` run twice as two concepts of one task
    list: at d = 8 a small concept is one stack, so one task, and it takes
    two for 2 workers to fork a pool."""
    first, second = experiment.run_embedding(store, cfg, [rc, rc], workers=workers)[0]
    assert_same(first.metrics, second.metrics)
    return first.metrics


def one_fit(store, rc, cfg, index):
    """The metric row of iteration `index` of concept `rc`, trained alone."""
    return experiment._run_fits(store, rc, cfg, [index])[0]


def quick_cfg(**kw):
    base = dict(
        iterations=5,
        random_list_count=3,
        random_list_size=8,
        master_seed=7,
        train=TrainConfig(epochs=20),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_single_iteration_equals_aggregate(gaussian_store):
    cfg = quick_cfg(iterations=1)
    rc = random_concept(gaussian_store, 12, seed=1, name="c12")
    agg = run_concept(gaussian_store, rc, cfg)
    row = one_fit(gaussian_store, rc, cfg, 0)
    assert_same(agg.metrics, row[None])
    for name, value in zip(METRIC_NAMES, row):
        assert agg.means[name] == value
        assert agg.stds[name] == 0.0


def test_aggregate_shape(gaussian_store):
    cfg = quick_cfg()
    rc = random_concept(gaussian_store, 12, seed=1, name="c12")
    agg = run_concept(gaussian_store, rc, cfg)
    assert agg.metrics.shape == (cfg.iterations, len(METRIC_NAMES))
    assert agg.metrics.dtype == np.float64
    assert agg.concept_name == "c12"
    assert agg.resolved_size == 12
    for v in agg.means.values():
        assert 0.0 <= v <= 1.0


def test_run_concept_worker_independence(pools, monkeypatch):
    # d = 300 and 16 fits a task: the 54-word concept's 50 iterations are
    # four tasks of 12 or 13, each two stacks (at most 8 under STACK_BYTES)
    monkeypatch.setattr(experiment, "TASK_BYTES", 16 * 54 * 300 * 8)
    store = random_gaussian_embedding([f"w{i:04d}" for i in range(400)], 300, seed=4)
    cfg = quick_cfg(iterations=50)
    rc = random_concept(store, 54, seed=2, name="c54")
    serial = run_concept(store, rc, cfg, workers=1)
    parallel = run_concept(store, rc, cfg, workers=4)
    assert pools.sizes == [4]  # one task per worker
    assert pools.items == 4
    assert_same_aggregate(serial, parallel)


def test_run_concept_stacked_records_equal_serial_iterations(gaussian_store, pools):
    # d = 8: every iteration of a concept this small shares one stack
    rc = random_concept(gaussian_store, 14, seed=6, name="c14")
    halving = TrainConfig(learning_rate=50, early_stop_tol=1e-3)
    for cfg in (quick_cfg(iterations=11), quick_cfg(iterations=11, train=halving)):
        serial = np.array([one_fit(gaussian_store, rc, cfg, i) for i in range(11)])
        assert_same(run_concept(gaussian_store, rc, cfg).metrics, serial)
        for workers in (1, 2):
            assert_same(run_twice(gaussian_store, rc, cfg, workers), serial)
    assert pools.sizes == [2, 2]  # the stack trains in a forked worker too


LOSS_ERROR = "non-finite training loss at epoch 1 (learning rate 0.1)"


@pytest.mark.parametrize(
    "scale, train_cfg, message, row, index",
    [
        # |x| ~ 1e200: the second epoch's logits overflow
        pytest.param(1e200, TrainConfig(epochs=20), LOSS_ERROR, None, 0,
                     id=f"1e+200-train_cfg0-{LOSS_ERROR}"),
        # one step of rate 1e308 leaves infinite weights
        pytest.param(100.0, TrainConfig(learning_rate=1e308, epochs=1),
                     "non-finite model parameters", None, 0,
                     id="100.0-train_cfg1-non-finite model parameters"),
        # only w0049 ~ 1e200: iteration 4 is the first to train on it
        pytest.param(1e200, TrainConfig(epochs=20), LOSS_ERROR, "w0049", 4,
                     id=f"1e+200-w0049-{LOSS_ERROR}"),
    ],
)
def test_run_concept_failed_fit_raises_the_serial_error(
    gaussian_store, monkeypatch, pools, scale, train_cfg, message, row, index
):
    scaled = np.ones((len(gaussian_store), 1))
    scaled[slice(None) if row is None else gaussian_store.index[row]] = scale
    store = EmbeddingStore(
        name="scaled",
        vocabulary=gaussian_store.vocabulary, vectors=gaussian_store.vectors * scaled,
    )
    rc = random_concept(store, 10, seed=3, name="c10")
    cfg = quick_cfg(iterations=6, train=train_cfg)
    splits = []

    def spy(*args, _fn=experiment.make_split):
        splits.append(args[2])
        return _fn(*args)

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(index):
            one_fit(store, rc, cfg, i)
        with pytest.raises(RuntimeError) as serial:
            one_fit(store, rc, cfg, index)
        with pytest.raises(RuntimeError) as stacked:
            with monkeypatch.context() as m:
                m.setattr(experiment, "make_split", spy)
                run_concept(store, rc, cfg)
        assert str(stacked.value) == str(serial.value)
        # the six iterations are one stack: two concepts fork two workers,
        # and the error comes back from one of them
        with pytest.raises(RuntimeError) as forked:
            run_twice(store, rc, cfg, workers=2)
        assert str(forked.value) == str(serial.value)
    assert pools.sizes == [2]
    assert str(serial.value) == f"iteration {index} of concept 'c10' failed: {message}"
    assert splits == list(range(cfg.iterations))  # one draw per fit


def test_a_failed_stack_raises_its_first_failing_iterations_own_error(
    gaussian_store, monkeypatch
):
    """The stack trainer's error is not the one raised: the stack is
    retrained one fit at a time, up to the first fit that fails."""
    rc = random_concept(gaussian_store, 10, seed=3, name="c10")
    cfg = quick_cfg(iterations=6)
    stacks, trained = [], []

    def failing_many(splits, *args):
        stacks.append([s.iteration_index for s in splits])
        raise FloatingPointError("the stack's own error")

    def train_one(split, *args):
        trained.append(split.iteration_index)
        if split.iteration_index == 3:
            raise FloatingPointError("iteration 3's own error")
        return train(split, *args)

    monkeypatch.setattr(experiment, "train_many", failing_many)
    monkeypatch.setattr(experiment, "train", train_one)
    with pytest.raises(RuntimeError) as failed:
        experiment._run_fits(gaussian_store, rc, cfg, range(cfg.iterations))
    assert stacks == [list(range(6))]  # d = 8: the six iterations are one stack
    assert trained == [0, 1, 2, 3]
    assert str(failed.value) == "iteration 3 of concept 'c10' failed: iteration 3's own error"


def test_run_concept_normalize_flag(gaussian_store):
    cfg = quick_cfg(normalize=True)
    rc = random_concept(gaussian_store, 10, seed=3, name="cn")
    raw = run_concept(gaussian_store, rc, quick_cfg())
    normed = run_concept(gaussian_store, rc, cfg)
    assert raw.means != normed.means  # different inputs, same protocol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# stacks of many fits, of 3 and of one
@pytest.mark.parametrize("dim, size", [(8, 10), (300, 120), (600, 120)])
def test_normalize_on_gather_matches_the_normalized_copy(pools, dtype, dim, size):
    rng = np.random.default_rng(11)
    store = EmbeddingStore(
        name="g", vocabulary=tuple(f"w{i}" for i in range(400)),
        vectors=(rng.standard_normal((400, dim)) * 3.0).astype(dtype),
    )
    cfg = quick_cfg(normalize=True, random_list_size=size)
    rc = random_concept(store, size, seed=3, name="c")
    copy = normalized_copy(store)
    for workers in (1, 2):
        assert_same(run_twice(store, rc, cfg, workers),
                    run_twice(copy, rc, cfg, workers))
    assert pools.sizes == [2, 2]
    assert run_null(store, cfg).per_list == run_null(copy, cfg).per_list


def test_normalize_allocates_no_matrix_copy():
    vocab, dim = tuple(f"w{i}" for i in range(40000)), 50
    vectors = np.random.default_rng(1).standard_normal((40000, dim), dtype=np.float32)
    store = EmbeddingStore(name="m", vocabulary=vocab, vectors=vectors)
    cfg = quick_cfg(normalize=True, random_list_count=2, random_list_size=20)
    rc = random_concept(store, 30, seed=1, name="c")
    tracemalloc.start()
    try:
        for run in (lambda: run_concept(store, rc, cfg), lambda: run_null(store, cfg)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            run()
            grown = tracemalloc.get_traced_memory()[1] - before
            assert grown < vectors.nbytes  # a float64 copy is twice that
    finally:
        tracemalloc.stop()


def test_separable_concept_learnable():
    rng = np.random.default_rng(0)
    d, n_concept, n_background = 10, 40, 400
    concept_words = tuple(f"c{i:03d}" for i in range(n_concept))
    background = tuple(f"b{i:03d}" for i in range(n_background))
    vectors = np.vstack(
        [
            rng.normal(size=(n_concept, d)) + 3.0 * np.eye(d)[0],
            rng.normal(size=(n_background, d)),
        ]
    )
    from conceptlearn import Concept, EmbeddingStore, resolve

    store = EmbeddingStore(
        name="sep", vocabulary=concept_words + background, vectors=vectors
    )
    rc = resolve(Concept(name="axis", words=frozenset(concept_words)), store)
    agg = run_concept(store, rc, quick_cfg(iterations=20, train=TrainConfig()))
    assert agg.means["auc"] >= 0.9


def test_run_null_rows(gaussian_store):
    cfg = quick_cfg(master_seed=11)
    null = run_null(gaussian_store, cfg)
    assert len(null.per_list) == cfg.random_list_count
    # list 0 holds the strict maximum of a metric: a max_row that skipped
    # the first list would read lower there
    assert any(null.per_list[0][k] > max(m[k] for m in null.per_list[1:])
               for k in METRIC_NAMES)
    for name in null.max_row:
        assert null.max_row[name] == max(m[name] for m in null.per_list)
        assert null.mean_row[name] == float(np.mean([m[name] for m in null.per_list]))


def test_run_null_single_list(gaussian_store):
    null = run_null(gaussian_store, quick_cfg(random_list_count=1))
    assert null.max_row == null.mean_row


def test_run_null_deterministic_across_workers(gaussian_store):
    cfg = quick_cfg(random_list_count=4)
    a = run_null(gaussian_store, cfg, workers=1)
    b = run_null(gaussian_store, cfg, workers=4)
    assert a.per_list == b.per_list


def test_the_pool_takes_one_task_at_a_time(pools, monkeypatch):
    """A concept, then two null lists at the end of the task list, each cut
    into seven two-fit tasks: every task is its own work item, so the null
    lists are not batched onto one worker."""
    # d = 300: a 120-word list's fits stack by 3 under STACK_BYTES, so a
    # two-fit task is one stack
    monkeypatch.setattr(experiment, "TASK_BYTES", 2 * 120 * 300 * 8)
    store = random_gaussian_embedding([f"w{i:04d}" for i in range(400)], 300, seed=4)
    rc = random_concept(store, 120, seed=2, name="c120")
    cfg = quick_cfg(iterations=14, random_list_count=2, random_list_size=120)
    serial, serial_null = experiment.run_embedding(store, cfg, [rc], null=True)
    parallel, null = experiment.run_embedding(store, cfg, [rc], null=True, workers=2)
    assert pools.sizes == [2]
    assert pools.items == 3 * 7
    assert_same_aggregate(parallel[0], serial[0])
    assert null.per_list == serial_null.per_list
    assert null.max_row == serial_null.max_row
    assert null.mean_row == serial_null.mean_row


def test_a_large_concept_trains_in_one_task_of_stacks(monkeypatch):
    """A 150-word concept at d = 300 (360 KiB of training rows a fit) runs
    its 20 iterations as one task, in ten stacks of 2."""
    store = random_gaussian_embedding([f"w{i:04d}" for i in range(400)], 300, seed=4)
    rc = random_concept(store, 150, seed=2, name="c150")
    cfg = quick_cfg(iterations=20)
    tasks, stacks = spy_tasks_and_stacks(monkeypatch)
    serial = np.array([one_fit(store, rc, cfg, i) for i in range(cfg.iterations)])
    tasks.clear()
    stacks.clear()
    assert_same(run_concept(store, rc, cfg, workers=2).metrics, serial)
    assert tasks == [(0, range(20))]
    assert stacks == [[i, i + 1] for i in range(0, 20, 2)]


def test_a_null_list_cut_into_tasks_gives_the_same_null(gaussian_store, pools,
                                                         monkeypatch):
    cfg = quick_cfg(iterations=7)
    whole = run_null(gaussian_store, cfg)  # one task a list
    # 8 rows of d = 8 a fit, 3 fits a task: runs of 2, 2 and 3 iterations
    monkeypatch.setattr(experiment, "TASK_BYTES", 3 * 8 * 8 * 8)
    for workers in (1, 2):
        cut = run_null(gaussian_store, cfg, workers=workers)
        assert cut.per_list == whole.per_list
        assert cut.max_row == whole.max_row
        assert cut.mean_row == whole.mean_row
    assert pools.sizes == [2]
    assert pools.items == cfg.random_list_count * 3


def test_the_aggregate_reduces_each_metric_of_fits_trained_alone(
    gaussian_store, pools, monkeypatch
):
    """37 iterations of a 12-word list at 13 fits a task run as tasks of 12,
    12 and 13. At 1 and 2 workers a concept's metric rows are the
    `evaluate_scores` fields of each iteration trained alone, its means and
    stds are `np.mean` and `np.std` of each metric's fields as a 1-D array
    (at 2 iterations too), and each random list's means are those of its `_run_fits` rows, bit for
    bit: a reduction over the rows at once sums in another order."""
    # 12 training rows of d = 8 a fit, for the concept and the random lists
    monkeypatch.setattr(experiment, "TASK_BYTES", 13 * 12 * 8 * 8)
    store, cfg = gaussian_store, quick_cfg(iterations=37, random_list_size=12)
    rc = random_concept(store, 12, seed=4, name="c12")

    def alone(i):
        split = make_split(rc, store, i, cfg.master_seed)
        scores = score(train(split, store, cfg.train), store, split.test_rows)
        fit = evaluate_scores(scores, split.test_labels(), cfg.threshold)
        return [getattr(fit, name) for name in METRIC_NAMES]

    fits = [alone(i) for i in range(cfg.iterations)]
    cols = {name: np.array([f[k] for f in fits]) for k, name in enumerate(METRIC_NAMES)}
    null_means = []
    for k in range(cfg.random_list_count):
        rl = random_concept(store, cfg.random_list_size, seed=cfg.master_seed,
                            name=f"random-{k:04d}")
        rows = experiment._run_fits(store, rl, cfg, range(cfg.iterations))
        null_means.append({name: float(np.mean(np.array(rows[:, j].tolist())))
                           for j, name in enumerate(METRIC_NAMES)})
    for workers in (1, 2):
        agg = run_concept(store, rc, cfg, workers=workers)
        assert_same(agg.metrics, np.array(fits))
        # float == is exact, and no mean or std here is -0.0 or NaN
        assert agg.means == {name: float(np.mean(col)) for name, col in cols.items()}
        assert agg.stds == {name: float(np.std(col, ddof=1))
                            for name, col in cols.items()}
        assert run_null(store, cfg, workers=workers).per_list == tuple(null_means)
    assert pools.sizes == [2, 2]
    assert pools.items == 3 + cfg.random_list_count * 3
    # at 2 iterations a std is still that of the 2 fields, not 0.0
    two = run_concept(store, rc, dataclasses.replace(cfg, iterations=2))
    assert any(two.stds.values())
    assert two.stds == {name: float(np.std(col[:2], ddof=1)) for name, col in cols.items()}


def test_an_oversize_random_list_raises_before_any_fit(monkeypatch):
    from conceptlearn import ConceptError

    store = random_gaussian_embedding([f"w{i:03d}" for i in range(120)], 4, seed=1)
    rc = random_concept(store, 6, seed=2, name="c")
    fits = []
    monkeypatch.setattr(experiment, "_run_fits", lambda *a: fits.append(a))
    cfg = quick_cfg(random_list_size=60)
    with pytest.raises(ConceptError, match=(
        "^vocabulary of 120 too small for disjoint negatives on a concept of 60 words$"
    )):
        experiment.run_embedding(store, cfg, [rc], null=True)
    assert fits == []


def test_empirical_p_value():
    null = np.linspace(0.4, 0.6, 1000)
    assert empirical_p_value(0.7, null) == 1 / 1001
    assert empirical_p_value(0.0, null) == 1.0
    assert empirical_p_value(0.5, [0.5]) == 1.0  # tie counts against
    with pytest.raises(ValueError):
        empirical_p_value(0.5, [])


def test_empirical_p_value_monotone():
    rng = np.random.default_rng(5)
    null = rng.random(200)
    obs = np.sort(rng.random(50))
    ps = [empirical_p_value(o, null) for o in obs]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_format_p_value():
    null = np.linspace(0.4, 0.6, 1000)
    assert format_p_value(0.7, null) == "< 0.001"
    assert format_p_value(0.41, null) != "< 0.001"
    assert format_p_value(0.0, null) == "1.000"
    # N = 3999 and one exceedance: p = 2/4000 = 0.0005 exactly, which prints
    # as its estimate, not as '< 0.001'
    assert format_p_value(0.5, np.r_[np.ones(1), np.zeros(3998)]) == "0.001"


@pytest.mark.parametrize("n", [2, 10, 1000, 1999, 2000, 10000, 8, 11, 25])
def test_a_printed_p_value_is_never_zero_and_bounds_the_estimate(n):
    """'< x' claims no less than the add-one estimate, and a p below 0.0005
    prints as '< 0.001', never '0.000'."""
    for exceed in {e for e in (0, 1, 2, 4, 9, n // 3, n) if e <= n}:
        null = np.r_[np.ones(exceed), np.zeros(n - exceed)]
        p = empirical_p_value(0.5, null)
        printed = format_p_value(0.5, null)
        assert "0.000" not in printed
        if printed.startswith("< "):
            bound = float(printed[2:])  # the floor rounded up, or 0.001
            assert p <= bound
        else:
            assert printed == f"{p:.3f}" and p >= 0.0005
    floor_up = math.ceil(1000 / (n + 1)) / 1000
    assert format_p_value(1.0, np.zeros(n)) == f"< {floor_up:.3f}"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(random_list_size=3)
    with pytest.raises(ValueError):
        ExperimentConfig(random_list_count=0)


def test_default_workers_counts_the_cpus_this_process_may_use(monkeypatch):
    import os

    from conceptlearn.experiment import default_workers

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert default_workers() == 3  # taskset / cpuset mask, not the host's 64
    monkeypatch.delattr(os, "sched_getaffinity")
    assert default_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert default_workers() == 1


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs the
    tasks in this process, through the same initializer."""

    sizes: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def test_the_pool_is_no_larger_than_its_task_list(gaussian_store, monkeypatch):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiment, "_WORK", [])  # what the initializer fills
    monkeypatch.setattr(InlinePool, "sizes", [])
    for lists in (1, 3):
        cfg = quick_cfg(random_list_count=lists)
        serial = run_null(gaussian_store, cfg, workers=1)
        assert run_null(gaussian_store, cfg, workers=8).per_list == serial.per_list
    # one list runs in this process; three lists fork three workers, not 8
    assert InlinePool.sizes == [3]


def test_the_pool_holds_a_window_of_tasks_not_the_task_list(
    gaussian_store, monkeypatch, pools
):
    """At one fit a task, a 12-iteration concept and three 12-iteration
    random lists are 48 tasks. By the time the concept is aggregated a
    2-worker pool has been handed its 12 tasks and at most a window more,
    not all 48; the results are those of 1 worker."""
    monkeypatch.setattr(experiment, "TASK_BYTES", 8 * 8 * 8)  # 8 rows at d = 8
    rc = random_concept(gaussian_store, 8, seed=1, name="c8")
    cfg = quick_cfg(iterations=12)
    serial = experiment.run_embedding(gaussian_store, cfg, [rc], null=True)
    handed = []

    def spy(*args, _fn=experiment._aggregate):
        handed.append(pools.items)
        return _fn(*args)

    monkeypatch.setattr(experiment, "_aggregate", spy)
    forked = experiment.run_embedding(gaussian_store, cfg, [rc], null=True, workers=2)
    assert len(forked[0]) == len(serial[0]) == 1
    assert_same_aggregate(forked[0][0], serial[0][0])
    assert forked[1] == serial[1]
    assert pools.items == 48
    assert 12 < handed[0] <= 12 + experiment.IN_FLIGHT_PER_WORKER * 2


def spy_tasks_and_stacks(monkeypatch):
    """Lists that `_run_task` and the trainers, run in this process, append
    each task and each trained stack's iteration indices to."""
    tasks, stacks = [], []

    def spy_task(task, *args, _fn=experiment._run_task):
        tasks.append(task)
        return _fn(task, *args)

    def spy_many(splits, *args, _fn=experiment.train_many):
        stacks.append([s.iteration_index for s in splits])
        return _fn(splits, *args)

    def spy_one(split, *args, _fn=experiment.train):
        stacks.append([split.iteration_index])
        return _fn(split, *args)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiment, "_WORK", [])
    monkeypatch.setattr(experiment, "_run_task", spy_task)
    monkeypatch.setattr(experiment, "train_many", spy_many)
    monkeypatch.setattr(experiment, "train", spy_one)
    return tasks, stacks


def test_the_training_stacks_are_the_same_at_any_worker_count(monkeypatch):
    """A 54-word list at d = 300, at 9 fits a task, trains its 25 iterations
    as tasks of 8, 8 and 9, and those as stacks of at most 8 (STACK_BYTES),
    whatever the worker count."""
    monkeypatch.setattr(experiment, "TASK_BYTES", 9 * 54 * 300 * 8)
    store = random_gaussian_embedding([f"w{i:04d}" for i in range(400)], 300, seed=4)
    rc = random_concept(store, 54, seed=5, name="c54")
    cfg = quick_cfg(iterations=25)
    _, calls = spy_tasks_and_stacks(monkeypatch)
    stacks = {}
    for workers in (1, 2, 3):
        calls.clear()
        run_concept(store, rc, cfg, workers=workers)
        stacks[workers] = list(calls)
    assert stacks[1] == [list(range(8)), list(range(8, 16)), list(range(16, 20)),
                         list(range(20, 25))]
    assert stacks[2] == stacks[1] and stacks[3] == stacks[1]


def test_the_task_list_is_the_same_at_any_worker_count(gaussian_store, monkeypatch):
    """Two concepts and the null, at 3 fits of 8 training rows a task: each
    list's 7 iterations are runs of 2, 2 and 3, the concepts first."""
    monkeypatch.setattr(experiment, "TASK_BYTES", 3 * 8 * 8 * 8)
    monkeypatch.setattr(InlinePool, "sizes", [])
    concepts = [random_concept(gaussian_store, 8, seed=s, name=f"c{s}") for s in (1, 2)]
    cfg = quick_cfg(iterations=7, random_list_count=2)
    tasks, _ = spy_tasks_and_stacks(monkeypatch)
    plans = {}
    for workers in (1, 2, 3):
        tasks.clear()
        experiment.run_embedding(gaussian_store, cfg, concepts, null=True,
                                 workers=workers)
        plans[workers] = list(tasks)
    runs = [range(0, 2), range(2, 4), range(4, 7)]
    assert plans[1] == [(c, run) for c in range(4) for run in runs]
    assert plans[2] == plans[1] and plans[3] == plans[1]
    assert InlinePool.sizes == [2, 3]
