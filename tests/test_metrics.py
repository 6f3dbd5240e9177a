import dataclasses

import numpy as np
import pytest

from conceptlearn import MetricsRecord, evaluate_scores, roc_auc

from conftest import pairwise_auc


def test_perfect_case():
    rec = evaluate_scores([0.9, 0.1], [1, 0], 0.5)
    assert (rec.accuracy, rec.recall, rec.fpr, rec.precision) == (1.0, 1.0, 0.0, 1.0)
    assert (rec.tp, rec.fp, rec.tn, rec.fn) == (1, 0, 1, 0)


def test_inverted_case():
    rec = evaluate_scores([0.1, 0.9], [1, 0], 0.5)
    assert (rec.accuracy, rec.recall, rec.fpr, rec.precision) == (0.0, 0.0, 1.0, 0.0)


def test_all_predicted_negative():
    rec = evaluate_scores([0.4, 0.4], [1, 0], 0.5)
    assert rec.recall == 0.0
    assert rec.fpr == 0.0
    assert rec.precision == 0.0  # TP+FP = 0 convention
    assert rec.tp + rec.fp == 0


def test_threshold_is_inclusive():
    rec = evaluate_scores([0.5, 0.4], [1, 0], 0.5)
    assert rec.recall == 1.0


def test_one_class_rejected():
    with pytest.raises(ValueError, match="at least one positive"):
        evaluate_scores([0.5, 0.6], [1, 1], 0.5)
    with pytest.raises(ValueError):
        roc_auc([0.5, 0.6], [0, 0])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate_scores([0.5], [1, 0], 0.5)


def test_auc_perfect_and_ties():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 1, 0, 0]) == 0.5


def test_auc_derived_example():
    # pairs: (0.8 > 0.6) = 1, (0.4 < 0.6) = 0 -> mean 0.5
    assert roc_auc([0.8, 0.6, 0.4], [1, 0, 1]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n) if rng.random() < 0.5 \
            else rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(7)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    assert roc_auc(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
    assert roc_auc(scores**3 + 2, labels) == pytest.approx(base, abs=1e-12)


def test_auc_label_complement():
    rng = np.random.default_rng(8)
    scores = rng.random(80)
    labels = rng.integers(0, 2, size=80)
    labels[0], labels[1] = 0, 1
    total = roc_auc(scores, labels) + roc_auc(scores, 1 - labels)
    assert abs(total - 1.0) <= 1e-12


def test_random_scores_concentrate_at_half():
    rng = np.random.default_rng(11)
    n = 20_000
    scores = rng.random(n)
    labels = np.repeat([0, 1], n // 2)
    rec = evaluate_scores(scores, labels, 0.5)
    for name in ("accuracy", "recall", "fpr", "precision", "auc"):
        assert 0.48 <= getattr(rec, name) <= 0.52


def reference_evaluate_scores(scores, labels, threshold):
    """The two-pass record `evaluate_scores` replaced, kept as its oracle:
    four boolean sums and `roc_auc`."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=bool)
    pred = scores >= threshold
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    tn = int(np.sum(~pred & ~labels))
    fn = int(np.sum(~pred & labels))
    return MetricsRecord(
        accuracy=(tp + tn) / scores.size,
        recall=tp / (tp + fn),
        fpr=fp / (fp + tn),
        precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
        auc=roc_auc(scores, labels),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )


@pytest.mark.parametrize("kind", ["random", "tie-heavy", "threshold-at-a-score"])
def test_evaluate_scores_matches_the_reference_record(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(200):
        n = int(rng.integers(2, 80))
        scores = rng.random(n)
        threshold = 0.5
        if kind == "tie-heavy":
            scores = rng.integers(0, 5, size=n) / 4
        elif kind == "threshold-at-a-score":
            threshold = float(scores[rng.integers(n)])
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = evaluate_scores(scores, labels, threshold)
        want = reference_evaluate_scores(scores, labels, threshold)
        for field in dataclasses.fields(MetricsRecord):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b) and a == b, field.name


def test_evaluate_scores_fills_auc():
    rec = evaluate_scores([0.9, 0.1], [1, 0], 0.5)
    assert rec.auc == 1.0
    assert rec.as_dict()["auc"] == 1.0


def test_rankdata_bitwise_equals_scipy():
    from scipy.stats import rankdata as scipy_rankdata

    from conceptlearn.metrics import rankdata

    rng = np.random.default_rng(11)
    scores = np.concatenate([rng.random(54), rng.random(178) * 0.2])  # AUC-shaped
    cases = [
        rng.random(300),
        rng.integers(0, 12, size=400) / 7,  # tie-heavy
        np.array([0.25]),
        np.full(9, 3.5),
        scores,
        np.round(scores, 2),
        np.array([0.3, np.nan, 0.1]),  # scipy propagates NaN to every rank
    ]
    for values in cases:
        ours = rankdata(values)
        ref = scipy_rankdata(values)
        assert ours.dtype == ref.dtype == np.float64
        assert np.array_equal(ours, ref, equal_nan=True)
