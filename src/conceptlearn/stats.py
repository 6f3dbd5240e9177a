"""Wilcoxon signed-rank test for paired embedding comparison.

Exact tie-aware p-values up to n = 20 pairs, normal approximation with tie
correction beyond that, plus the classic critical-value lookup for the
reject/accept decision style of older texts. The exact p-values and the
critical values read one subset-sum count over doubled ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import rankdata

EXACT_LIMIT = 20

# Previously published GloVe-vs-fastText comparison (3-decimal AUCs, ten
# shared word lists). Kept for cross-checking: recomputing the signed-rank
# statistic from these rounded values does not reproduce the published one.
PUBLISHED_COMPARISON_LISTS = (
    "posemo", "negemo", "anger", "bio", "relative",
    "affect", "social", "work", "family", "health",
)
PUBLISHED_GLOVE_AUCS = (
    0.961, 0.965, 0.957, 0.960, 0.971, 0.960, 0.960, 0.947, 0.948, 0.952,
)
PUBLISHED_FASTTEXT_AUCS = (
    0.965, 0.973, 0.970, 0.974, 0.961, 0.958, 0.973, 0.970, 0.963, 0.975,
)
REFERENCE_COMPARISON_NOTE = (
    "the previously published run of this comparison reports W_test = 3 with "
    "p = 0.0088, but recomputing from the published 3-decimal AUCs gives "
    "W- = 5 (negative pairs: |-0.002| at rank 1 and |-0.010| at rank 4); the "
    "tie-aware exact p at W- = 5 is 9/1024 = 0.008789, which matches the "
    "published 0.0088, so the published p is consistent with W = 5 and the "
    "published W_test = 3 appears to be the inconsistent figure; the exact "
    "values reported here are kept as computed"
)


@dataclass(frozen=True)
class WilcoxonOutcome:
    n_effective: int
    w_plus: float
    w_minus: float
    w_statistic: float
    p_value: float
    method: str  # "exact" or "normal"
    alternative: str  # "greater", "less", "two-sided"


def _subset_sum_counts(doubled_ranks) -> np.ndarray:
    """counts[s] = number of subsets of `doubled_ranks` summing to s.

    Average ranks are multiples of 1/2, so doubled ranks are exact integers
    and this dynamic program gives the exact tie-aware null distribution of
    2 * W (Streitberg & Roehmel 1986). Counts sum to 2^n.
    """
    total = int(sum(doubled_ranks))
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        counts[r:] += counts[: total + 1 - r].copy()
    return counts


def wilcoxon_signed_rank(x, y, alternative: str = "two-sided") -> WilcoxonOutcome:
    """Signed-rank test on paired samples.

    Differences of exactly zero are dropped; tied absolute differences get
    average ranks. `alternative="greater"` tests whether x tends to exceed y
    (small negative-rank sum); "less" is the mirror image. Exact p-values
    count all sign assignments over the actual rank multiset when the
    effective sample size is at most 20.
    """
    if alternative not in ("greater", "less", "two-sided"):
        raise ValueError(f"unknown alternative {alternative!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError("need at least 2 pairs")
    d = x - y
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValueError("all differences are zero")
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())

    # the statistic whose lower tail is tested; the null is symmetric, so a
    # two-sided test doubles the smaller sum's tail (the tails meet when
    # W+ == W-, hence the cap at 1)
    w_stat = {"greater": w_minus, "less": w_plus}.get(alternative, min(w_plus, w_minus))
    if n <= EXACT_LIMIT:
        method = "exact"
        # average ranks are multiples of 0.5, so doubling makes them integers
        cum = np.cumsum(_subset_sum_counts(np.rint(2 * ranks).astype(np.int64)))
        p = float(cum[round(2 * w_stat)]) / 2**n
    else:
        method = "normal"
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        tie_term = float(np.sum(counts**3 - counts)) / 48.0
        sd = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        z = (w_stat - mean + 0.5) / sd
        p = 0.5 * math.erfc(-z / math.sqrt(2))  # the standard normal cdf at z
    if alternative == "two-sided":
        p = min(1.0, 2.0 * p)
    return WilcoxonOutcome(
        n_effective=n,
        w_plus=w_plus,
        w_minus=w_minus,
        w_statistic=w_stat,
        p_value=p,
        method=method,
        alternative=alternative,
    )


def null_distribution_counts(n: int) -> np.ndarray:
    """Counts of the tie-free signed-rank statistic over sums 0..n(n+1)/2;
    counts sum to 2^n."""
    return _subset_sum_counts(range(2, 2 * n + 1, 2))[::2]


def critical_value(n: int, alpha: float, two_sided: bool = False) -> int | None:
    """Largest W with P(W <= w) <= alpha under the tie-free null, i.e. the
    textbook critical value (reject when the observed W is <= it).

    Returns None when no rejection region exists at this alpha.
    """
    if n < 2 or n > 30:
        raise ValueError("critical-value lookup supports 2 <= n <= 30")
    if alpha not in (0.01, 0.05):
        raise ValueError("critical-value lookup supports alpha in {0.01, 0.05}")
    tail = alpha / 2.0 if two_sided else alpha
    counts = null_distribution_counts(n)
    cdf = np.cumsum(counts) / 2.0**n
    ok = np.flatnonzero(cdf <= tail)
    if ok.size == 0:
        return None
    return int(ok[-1])
