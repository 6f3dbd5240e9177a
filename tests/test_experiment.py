import tracemalloc

import numpy as np
import pytest

from conceptlearn import (
    EmbeddingStore,
    ExperimentConfig,
    TrainConfig,
    empirical_p_value,
    format_p_value,
    normalize,
    random_concept,
    random_gaussian_embedding,
    run_concept,
    run_iteration,
    run_null,
)


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
    assert len(agg.records) == 1
    rec = run_iteration(gaussian_store, rc, cfg, 0)
    for name, mean in agg.means.items():
        assert mean == getattr(rec, name)
        assert agg.stds[name] == 0.0


def test_aggregate_shape(gaussian_store):
    cfg = quick_cfg()
    rc = random_concept(gaussian_store, 12, seed=1, name="c12")
    agg = run_concept(gaussian_store, rc, cfg)
    assert len(agg.records) == cfg.iterations
    assert agg.concept_name == "c12"
    assert agg.resolved_size == 12
    for v in agg.means.values():
        assert 0.0 <= v <= 1.0


def test_run_concept_worker_independence(gaussian_store):
    cfg = quick_cfg(iterations=8)
    rc = random_concept(gaussian_store, 10, seed=2, name="c10")
    serial = run_concept(gaussian_store, rc, cfg, workers=1)
    parallel = run_concept(gaussian_store, rc, cfg, workers=4)
    assert serial.records == parallel.records
    assert serial.means == parallel.means


def test_run_concept_stacked_records_equal_serial_iterations(gaussian_store):
    # d = 8: every iteration of a concept this small shares one stack
    rc = random_concept(gaussian_store, 14, seed=6, name="c14")
    halving = TrainConfig(learning_rate=50, early_stop_tol=1e-3)
    for cfg in (quick_cfg(iterations=11), quick_cfg(iterations=11, train=halving)):
        serial = tuple(run_iteration(gaussian_store, rc, cfg, i) for i in range(11))
        for workers in (1, 2):
            agg = run_concept(gaussian_store, rc, cfg, workers=workers)
            assert agg.records == serial


@pytest.mark.parametrize(
    "scale, train_cfg, message",
    [
        # |x| ~ 1e200: the second epoch's logits overflow
        (1e200, TrainConfig(epochs=20),
         "non-finite training loss at epoch 1 (learning rate 0.1)"),
        # one step of rate 1e308 leaves infinite weights
        (100.0, TrainConfig(learning_rate=1e308, epochs=1),
         "non-finite model parameters"),
    ],
)
def test_run_concept_failed_fit_raises_the_serial_error(
    gaussian_store, scale, train_cfg, message
):
    store = EmbeddingStore(
        name="scaled", dimension=gaussian_store.dimension,
        vocabulary=gaussian_store.vocabulary, vectors=gaussian_store.vectors * scale,
    )
    rc = random_concept(store, 10, seed=3, name="c10")
    cfg = quick_cfg(iterations=6, train=train_cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError) as serial:
            run_iteration(store, rc, cfg, 0)
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as stacked:
                run_concept(store, rc, cfg, workers=workers)
            assert str(stacked.value) == str(serial.value)
    assert str(serial.value) == f"iteration 0 of concept 'c10' failed: {message}"


def test_run_concept_normalize_flag(gaussian_store):
    cfg = quick_cfg(normalize=True)
    rc = random_concept(gaussian_store, 10, seed=3, name="cn")
    raw = run_concept(gaussian_store, rc, quick_cfg())
    normed = run_concept(gaussian_store, rc, cfg)
    assert raw.means != normed.means  # different inputs, same protocol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim, size", [(8, 10), (300, 120)])  # stacked, serial fits
def test_normalize_on_gather_matches_the_normalized_copy(dtype, dim, size):
    rng = np.random.default_rng(11)
    store = EmbeddingStore(
        name="g", dimension=dim, vocabulary=tuple(f"w{i}" for i in range(400)),
        vectors=(rng.standard_normal((400, dim)) * 3.0).astype(dtype),
    )
    cfg = quick_cfg(normalize=True, random_list_size=size)
    rc = random_concept(store, size, seed=3, name="c")
    copy = normalize(store)
    for workers in (1, 2):
        assert run_concept(store, rc, cfg, workers).records == run_concept(
            copy, rc, cfg, workers
        ).records
    assert run_null(store, cfg).per_list == run_null(copy, cfg).per_list


def test_normalize_allocates_no_matrix_copy():
    vocab, dim = tuple(f"w{i}" for i in range(40000)), 50
    vectors = np.random.default_rng(1).standard_normal((40000, dim), dtype=np.float32)
    store = EmbeddingStore(name="m", dimension=dim, vocabulary=vocab, vectors=vectors)
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
        name="sep", dimension=d, vocabulary=concept_words + background, vectors=vectors
    )
    rc = resolve(Concept(name="axis", words=frozenset(concept_words)), store)
    agg = run_concept(store, rc, quick_cfg(iterations=20, train=TrainConfig()))
    assert agg.means["auc"] >= 0.9


def test_run_null_rows(gaussian_store):
    cfg = quick_cfg()
    null = run_null(gaussian_store, cfg)
    assert len(null.per_list) == cfg.random_list_count
    for name in null.max_row:
        assert null.max_row[name] >= null.mean_row[name]
        assert null.max_row[name] >= max(m[name] for m in null.per_list) - 1e-15


def test_run_null_single_list(gaussian_store):
    null = run_null(gaussian_store, quick_cfg(random_list_count=1))
    assert null.max_row == null.mean_row


def test_run_null_deterministic_across_workers(gaussian_store):
    cfg = quick_cfg(random_list_count=4)
    a = run_null(gaussian_store, cfg, workers=1)
    b = run_null(gaussian_store, cfg, workers=4)
    assert a.per_list == b.per_list


def test_run_null_excludes(gaussian_store):
    # exclusion changes the sampled lists
    cfg = quick_cfg(random_list_count=2)
    a = run_null(gaussian_store, cfg)
    b = run_null(gaussian_store, cfg, exclude=frozenset(gaussian_store.vocabulary[:200]))
    assert a.per_list != b.per_list


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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(random_list_size=3)
    with pytest.raises(ValueError):
        ExperimentConfig(random_list_count=0)
