import math

import numpy as np
import pytest

from conceptlearn import (
    EmbeddingStore,
    EvaluationSplit,
    TrainConfig,
    loss_and_gradient,
    random_concept,
    random_gaussian_embedding,
    make_split,
    score,
    sigmoid,
    train,
)
from conceptlearn.perceptron import (
    PerceptronModel,
    cross_entropy,
    train_many,
)
from conceptlearn.experiment import STACK_BYTES, TASK_BYTES, _cut
from conftest import rows_of


def store_from(vocab, rows):
    rows = np.asarray(rows, dtype=float)
    return EmbeddingStore(
        name="t", vocabulary=tuple(vocab), vectors=rows
    )


def manual_split(store, train_pos, train_neg):
    """Split over the rows of the given words, testing on the training set."""
    pos, neg = rows_of(store, train_pos), rows_of(store, train_neg)
    return EvaluationSplit(
        train_pos=pos, train_neg=neg, test_pos=pos, test_neg=neg,
        iteration_index=0,
    )


def test_sigmoid_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_extremes_no_overflow():
    hi = sigmoid(750.0)
    lo = sigmoid(-750.0)
    assert 0.0 < hi <= 1.0
    assert 0.0 <= lo < 1.0
    assert np.isfinite([hi, lo]).all()


def test_sigmoid_symmetry_identity():
    zs = np.linspace(-30, 30, 101)
    assert np.all(np.abs(sigmoid(zs) + sigmoid(-zs) - 1.0) <= 1e-15)


def masked_two_exp_sigmoid(z):
    """The earlier `sigmoid`: one masked `exp` per sign of z."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


def test_sigmoid_bitwise_equals_masked_two_exp_form():
    rng = np.random.default_rng(11)
    cases = [
        np.array([0.0, -0.0, 750.0, -750.0, 1e-310, -1e-310]),
        np.linspace(-40, 40, 2001),
        rng.normal(size=100_000) * 10,
        np.linspace(-40, 40, 2001).reshape(3, 667),
    ]
    for z in cases:
        got, want = sigmoid(z), masked_two_exp_sigmoid(z)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for z in (0.0, -0.0, 750.0, -750.0, 1e-310, -1e-310, 3.5, np.float64(-2.0)):
        got = sigmoid(z)
        assert type(got) is float
        assert np.float64(got).view(np.uint64) == np.float64(
            masked_two_exp_sigmoid(z)
        ).view(np.uint64)


def test_train_separable_two_points():
    # gradient at theta=0 pushes theta_1 up by lr*0.5 each epoch, monotonically
    store = store_from(["pos", "neg"], [[1.0, 0.0], [-1.0, 0.0]])
    split = manual_split(store, ["pos"], ["neg"])
    model = train(split, store, TrainConfig())
    scores = score(model, store, rows_of(store, ["pos", "neg"]))
    assert scores[0] > 0.5 > scores[1]
    assert model.train_loss_trace[-1] < 0.3
    assert model.weights[0] > 0.0


def test_train_identical_inputs_mixed_labels():
    store = store_from(["a", "b"], [[1.0, 2.0], [1.0, 2.0]])
    split = manual_split(store, ["a"], ["b"])
    model = train(split, store, TrainConfig(epochs=500, early_stop_tol=0.0))
    scores = score(model, store, rows_of(store, ["a", "b"]))
    assert np.allclose(scores, 0.5, atol=1e-9)
    assert abs(model.train_loss_trace[-1] - math.log(2)) <= 1e-9


def test_train_single_epoch():
    store = store_from(["pos", "neg"], [[1.0, 0.0], [-1.0, 0.0]])
    split = manual_split(store, ["pos"], ["neg"])
    model = train(split, store, TrainConfig(epochs=1))
    assert model.epochs_run == 1
    assert len(model.train_loss_trace) == 1
    # one update from zero init: theta_1 = lr * mean(x1 * (y - 0.5))
    assert np.isclose(model.weights[0], 0.1 * 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("l2", -1.0),  # trained like l2 = 0 yet reported as -1.0
        ("l2", float("nan")),
        ("learning_rate", float("nan")),
        ("early_stop_tol", float("nan")),
        ("learning_rate", float("inf")),  # failed only inside the first fit
        ("l2", float("inf")),
    ],
)
def test_config_rejects_negative_and_nan(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TrainConfig(**{field: value})


def test_an_infinite_early_stop_tol_stops_at_the_first_loss_decrease(gaussian_store):
    rc = random_concept(gaussian_store, 30, seed=2)
    split = make_split(rc, gaussian_store, 0, 0)
    model = train(split, gaussian_store, TrainConfig(early_stop_tol=float("inf")))
    assert model.epochs_run == 2
    assert model.train_loss_trace[1] < model.train_loss_trace[0]


def test_loss_trace_non_increasing(gaussian_store):
    rc = random_concept(gaussian_store, 30, seed=2)
    split = make_split(rc, gaussian_store, 0, 0)
    model = train(split, gaussian_store, TrainConfig())
    trace = np.array(model.train_loss_trace)
    increases = np.flatnonzero(np.diff(trace) > 0)
    # lr halving allows isolated increases, never two in a row
    assert not np.any(np.diff(increases) == 1) if increases.size else True


def test_train_deterministic(gaussian_store):
    rc = random_concept(gaussian_store, 24, seed=9)
    split = make_split(rc, gaussian_store, 1, 3)
    a = train(split, gaussian_store, TrainConfig())
    b = train(split, gaussian_store, TrainConfig())
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    assert a.train_loss_trace == b.train_loss_trace


def test_untrained_model_scores_half(gaussian_store):
    model = PerceptronModel(
        weights=np.zeros(gaussian_store.dimension), bias=0.0,
        train_loss_trace=(math.log(2),),
    )
    assert model.epochs_run == len(model.train_loss_trace)
    rows = rows_of(gaussian_store, gaussian_store.vocabulary[:7])
    assert np.all(score(model, gaussian_store, rows) == 0.5)


def test_score_order_preserving(gaussian_store):
    rc = random_concept(gaussian_store, 12, seed=4)
    split = make_split(rc, gaussian_store, 0, 0)
    model = train(split, gaussian_store, TrainConfig(epochs=10))
    rows = rows_of(gaussian_store, gaussian_store.vocabulary[:9])
    direct = score(model, gaussian_store, rows)
    perm = [4, 2, 0, 8, 6, 1, 3, 5, 7]
    permuted = score(model, gaussian_store, rows[perm])
    assert np.array_equal(permuted, direct[perm])
    # a row's score is bitwise independent of its batch-mates and batch size
    many = rows_of(gaussian_store, gaussian_store.vocabulary[:232])
    batch = score(model, gaussian_store, many)
    assert np.array_equal(batch[:9], direct)
    shuffle = np.random.default_rng(0).permutation(len(many))
    shuffled = score(model, gaussian_store, many[shuffle])
    assert np.array_equal(shuffled, batch[shuffle])
    alone = np.array([score(model, gaussian_store, [r])[0] for r in many])
    assert np.array_equal(alone, batch)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    step = 1e-5
    for l2 in (0.0, 0.3):
        for _ in range(25):
            n = rng.integers(2, 21)
            d = rng.integers(1, 11)
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            theta = rng.normal(scale=0.5, size=d)
            bias = float(rng.normal(scale=0.5))
            _, g_theta, g_bias = loss_and_gradient(X, y, theta, bias, l2)
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                lp, _, _ = loss_and_gradient(X, y, theta + e, bias, l2)
                lm, _, _ = loss_and_gradient(X, y, theta - e, bias, l2)
                fd = (lp - lm) / (2 * step)
                assert abs(g_theta[j] - fd) <= 1e-5 * max(1.0, abs(fd))
            lp, _, _ = loss_and_gradient(X, y, theta, bias + step, l2)
            lm, _, _ = loss_and_gradient(X, y, theta, bias - step, l2)
            fd = (lp - lm) / (2 * step)
            assert abs(g_bias - fd) <= 1e-5 * max(1.0, abs(fd))
            # a stack of this model and two more: each slice is bitwise its
            # one-model call, with the labels shared or one row per model
            Xs = np.stack([X, *rng.normal(size=(2, n, d))])
            thetas = np.stack([theta, *rng.normal(scale=0.5, size=(2, d))])
            biases = np.array([bias, *rng.normal(scale=0.5, size=2)])
            for labels in (y, np.tile(y, (3, 1))):
                stacked = loss_and_gradient(Xs, labels, thetas, biases, l2)
                for k in range(3):
                    one = loss_and_gradient(Xs[k], y, thetas[k], float(biases[k]), l2)
                    assert isinstance(one[0], float) and isinstance(one[2], float)
                    for a, b in zip(stacked, one):
                        assert np.asarray(a[k]).tobytes() == np.asarray(b).tobytes()


def test_scale_coupling_preserves_ordering():
    # scaling inputs by c with lr/c^2 keeps the argsort of test scores
    rng = np.random.default_rng(3)
    n, d, c = 10, 4, 7.0
    X = rng.normal(size=(2 * n, d))
    vocab = [f"w{i}" for i in range(2 * n)]
    raw = store_from(vocab, X)
    scaled = store_from(vocab, c * X)
    split = manual_split(raw, vocab[:n], vocab[n:])
    m_raw = train(split, raw, TrainConfig(learning_rate=0.1, early_stop_tol=0.0))
    m_scaled = train(
        split, scaled, TrainConfig(learning_rate=0.1 / c**2, early_stop_tol=0.0)
    )
    s_raw = score(m_raw, raw, rows_of(raw, vocab))
    s_scaled = score(m_scaled, scaled, rows_of(scaled, vocab))
    assert np.array_equal(np.argsort(s_raw), np.argsort(s_scaled))


def test_cross_entropy_stable():
    z = np.array([800.0, -800.0])
    y = np.array([1.0, 0.0])
    assert cross_entropy(z, y) == 0.0


def assert_same_model(a, b):
    assert np.array_equal(a.weights.view(np.uint64), b.weights.view(np.uint64))
    assert type(b.bias) is float and a.bias == b.bias
    assert a.train_loss_trace == b.train_loss_trace
    assert a.epochs_run == b.epochs_run


STACK_CONFIGS = (
    TrainConfig(),
    # overshoots and halves the rate, stops within a few epochs; an int rate
    TrainConfig(learning_rate=50, early_stop_tol=1e-3),
    # models of one stack stop at different epochs
    TrainConfig(early_stop_tol=1e-4, epochs=300),
    TrainConfig(learning_rate=2.0, early_stop_tol=1e-4, l2=0.01),
)


def reference_train(split, store, cfg):
    """The serial trainer and its 2-D loss as they were before one
    `loss_and_gradient` served every stack shape: the bitwise oracle of
    `train` and `train_many`."""
    X = store.gather(split.train_rows)
    y = split.train_labels()
    theta, bias, lr = np.zeros(X.shape[1]), 0.0, cfg.learning_rate
    trace, prev = [], None
    for epoch in range(cfg.epochs):
        z = X @ theta + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
        resid = sigmoid(z) - y
        grad_theta = X.T @ resid / len(y)
        if cfg.l2 > 0.0:
            loss += cfg.l2 * float(theta @ theta)
            grad_theta = grad_theta + 2.0 * cfg.l2 * theta
        grad_bias = float(np.mean(resid))
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite training loss at epoch {epoch} (learning rate {lr})"
            )
        trace.append(loss)
        if prev is not None:
            if loss > prev:
                lr *= 0.5
            elif prev - loss < cfg.early_stop_tol:
                break
        prev = loss
        theta = theta - lr * grad_theta
        bias = bias - lr * grad_bias
    return PerceptronModel(weights=theta, bias=bias, train_loss_trace=tuple(trace))


@pytest.mark.parametrize("n", [5, 54, 101])
def test_train_many_bitwise_equals_train(n):
    vocab = [f"w{i:03d}" for i in range(2 * n + 40)]
    store = random_gaussian_embedding(vocab, 30, seed=n)
    rc = random_concept(store, n, seed=1)
    splits = [make_split(rc, store, i, 5) for i in range(7)]
    halved = stopped_apart = False
    for cfg in STACK_CONFIGS:
        reference = [reference_train(s, store, cfg) for s in splits]
        for a in reference:
            halved |= bool(np.any(np.diff(a.train_loss_trace) > 0))
        stopped_apart |= len({a.epochs_run for a in reference}) > 1
        for a, split in zip(reference, splits):
            assert_same_model(a, train(split, store, cfg))
        for order in (slice(None), slice(None, None, -1)):
            for k in (1, 3, len(splits)):
                stacked = []
                for i in range(0, len(splits), k):
                    stacked += train_many(splits[order][i : i + k], store, cfg)
                assert len(stacked) == len(splits)
                for a, b in zip(reference[order], stacked):
                    assert_same_model(a, b)
    assert halved and stopped_apart


def test_a_stack_keeps_its_shape_while_its_fits_stop_apart(monkeypatch):
    import conceptlearn.perceptron as perceptron

    vocab = [f"w{i:03d}" for i in range(148)]
    store = random_gaussian_embedding(vocab, 30, seed=54)
    rc = random_concept(store, 54, seed=1)
    splits = [make_split(rc, store, i, 5) for i in range(7)]
    cfg = STACK_CONFIGS[3]  # these fits stop at epochs 24 to 33
    reference = [reference_train(s, store, cfg) for s in splits]
    epochs = [a.epochs_run for a in reference]
    assert len(set(epochs)) > 1 and max(epochs) < cfg.epochs
    calls = []

    def spy(X, *rest):
        calls.append(X)
        return loss_and_gradient(X, *rest)

    monkeypatch.setattr(perceptron, "loss_and_gradient", spy)
    models = train_many(splits, store, cfg)
    assert all(X is calls[0] for X in calls)
    assert len(calls) == max(epochs)
    for a, b in zip(reference, models):
        assert_same_model(a, b)


def test_train_many_raises_on_non_finite_loss(gaussian_store):
    # |x| ~ 1e200: the second epoch's logits overflow
    huge = store_from(gaussian_store.vocabulary, gaussian_store.vectors * 1e200)
    rc = random_concept(huge, 10, seed=3)
    splits = [make_split(rc, huge, i, 0) for i in range(3)]
    message = r"^non-finite training loss at epoch 1 \(learning rate 0\.1\)$"
    with np.errstate(over="ignore", invalid="ignore"):
        for fit in (reference_train, train):
            with pytest.raises(FloatingPointError, match=message):
                fit(splits[0], huge, TrainConfig())
        with pytest.raises(FloatingPointError, match=message):
            train_many(splits, huge, TrainConfig())


def assert_cut_at(k, size, dimension, budget=STACK_BYTES):
    """`_cut` slices a `size`-word list's iterations at most k fits long: a
    run of k iterations is one slice, a run of k + 1 two."""
    assert [len(s) for s in _cut(range(k), size, dimension, budget)] == [k]
    assert len(_cut(range(k + 1), size, dimension, budget)) == 2


def test_stack_size_from_training_matrix_bytes():
    assert_cut_at(8, 54, 300)  # 127 KiB per fit, 1 MiB per stack
    assert_cut_at(4, 108, 300)
    assert_cut_at(2, 184, 300)
    assert_cut_at(1, 232, 300)  # 544 KiB: train one at a time
    assert_cut_at(1, 400, 300)  # over the budget, still one fit
    assert_cut_at(65536, 2, 1)
    assert_cut_at(69, 400, 300, TASK_BYTES)  # a task's budget
    # near-equal slices: 10^5 iterations at 65,536 a slice are two halves
    assert [len(s) for s in _cut(range(10**5), 2, 1, STACK_BYTES)] == [50000] * 2
