"""Classification metrics: thresholded confusion-matrix ratios and ROC AUC
in the rank-based Mann-Whitney form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("accuracy", "recall", "fpr", "precision", "auc")


@dataclass(frozen=True)
class MetricsRecord:
    accuracy: float
    recall: float
    fpr: float
    precision: float
    auc: float
    tp: int
    fp: int
    tn: int
    fn: int

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def rankdata(values) -> np.ndarray:
    """Average ranks (1-based; tied values share the mean of their positions).

    A drop-in for `scipy.stats.rankdata` with its default average method,
    without importing scipy: average ranks are exact multiples of 1/2, so
    the result is bitwise equal. Like scipy, any NaN makes every rank NaN.
    """
    values = np.ravel(np.asarray(values))
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    obs = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.empty(values.size, dtype=np.intp)
    dense[order] = np.cumsum(obs)
    count = np.r_[np.flatnonzero(obs), values.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise ValueError("need at least one positive and one negative label")
    return scores, labels, n_pos


def _auc(scores, labels, n_pos: int) -> float:
    rank_sum = float(rankdata(scores)[labels].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * (scores.size - n_pos))


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve.

    Computed by tied-rank summation, which equals both trapezoidal
    integration over all distinct thresholds and the Mann-Whitney statistic
    (#{pos > neg} + 0.5 #{pos = neg}) / (P * N).
    """
    return _auc(*_validate(scores, labels))


def evaluate_scores(scores, labels, threshold: float = 0.5) -> MetricsRecord:
    """Thresholded metrics (predict positive iff score >= threshold) and the
    `roc_auc` of the scores, in one record. Precision with no positive
    predictions is defined as 0 (the TP+FP count is kept in the record).
    """
    scores, labels, n_pos = _validate(scores, labels)
    pred = scores >= threshold
    tp = int(np.count_nonzero(pred & labels))
    fp = int(np.count_nonzero(pred)) - tp
    tn, fn = scores.size - n_pos - fp, n_pos - tp
    return MetricsRecord(
        accuracy=(tp + tn) / scores.size,
        recall=tp / (tp + fn),
        fpr=fp / (fp + tn),
        precision=tp / (tp + fp) if tp + fp > 0 else 0.0,
        auc=_auc(scores, labels, n_pos),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )
