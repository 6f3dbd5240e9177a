import itertools

import numpy as np
import pytest
from scipy.stats import rankdata

from conceptlearn import critical_value, wilcoxon_signed_rank
from conceptlearn.stats import (
    PUBLISHED_FASTTEXT_AUCS,
    PUBLISHED_GLOVE_AUCS,
    null_distribution_counts,
)


def enumeration_oracle(diffs, alternative):
    """Independent 2^n oracle over explicit sign tuples."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    n = len(ranks)
    count = 0
    for signs in itertools.product([0, 1], repeat=n):
        wm = sum(r for s, r in zip(signs, ranks) if s)  # ranks assigned negative
        wp = ranks.sum() - wm
        if alternative == "greater":
            hit = wm <= w_minus + 1e-9
        elif alternative == "less":
            hit = wp <= w_plus + 1e-9
        else:
            hit = min(wm, wp) <= min(w_minus, w_plus) + 1e-9
        count += hit
    return count / 2**n


def test_all_positive_three():
    out = wilcoxon_signed_rank([1, 2, 3], [0, 0, 0], "greater")
    assert out.w_minus == 0.0
    assert out.w_plus == 6.0
    assert out.p_value == 1 / 8
    assert out.method == "exact"


def test_zero_pair_dropped():
    out = wilcoxon_signed_rank([1.0, 2.0, 5.0], [1.0, 1.0, 3.0], "greater")
    assert out.n_effective == 2
    assert out.p_value == 1 / 4


def test_antisymmetry():
    rng = np.random.default_rng(0)
    x = rng.normal(size=8)
    y = rng.normal(size=8)
    a = wilcoxon_signed_rank(x, y, "greater")
    b = wilcoxon_signed_rank(y, x, "less")
    assert a.w_plus == b.w_minus
    assert a.w_minus == b.w_plus
    assert a.p_value == b.p_value


def test_rank_sum_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        x = rng.normal(size=n)
        y = x + rng.choice([-1, 1], size=n) * rng.random(n)
        out = wilcoxon_signed_rank(x, y)
        assert out.w_plus + out.w_minus == pytest.approx(
            out.n_effective * (out.n_effective + 1) / 2, abs=1e-9
        )


def test_one_sided_p_values_overlap():
    rng = np.random.default_rng(2)
    x = rng.normal(size=9)
    y = rng.normal(size=9)
    pg = wilcoxon_signed_rank(x, y, "greater").p_value
    pl = wilcoxon_signed_rank(x, y, "less").p_value
    assert pg + pl >= 1.0


def test_scale_invariance():
    x = np.array([0.1, 0.5, -0.2, 0.9, -0.05])
    y = np.zeros(5)
    a = wilcoxon_signed_rank(x, y, "two-sided")
    b = wilcoxon_signed_rank(1000.0 * x, y, "two-sided")
    assert (a.w_plus, a.w_minus, a.p_value) == (b.w_plus, b.w_minus, b.p_value)


def test_errors():
    with pytest.raises(ValueError, match="all differences are zero"):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [0.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [0.0, 0.0], "sideways")


def test_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(2, 13))
        d = rng.normal(size=n)
        if trial % 3 == 0:  # engineered ties in |d|
            d[: n // 2 + 1] = rng.choice([-0.5, 0.5], size=n // 2 + 1)
        if trial % 5 == 0 and n >= 3:  # engineered zeros
            d[-1] = 0.0
        if np.all(d == 0.0):
            continue
        x = d
        y = np.zeros(n)
        for alt in ("greater", "less", "two-sided"):
            ours = wilcoxon_signed_rank(x, y, alt).p_value
            assert ours == enumeration_oracle(d, alt), (trial, alt, d)


def test_exact_matches_vectorized_enumeration_up_to_16():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(13, 17))
        d = rng.normal(size=n)
        if trial % 2 == 0:  # heavy ties in |d|
            d = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], size=n)
        ranks = rankdata(np.abs(d))
        w_plus, w_minus = ranks[d > 0].sum(), ranks[d < 0].sum()
        signs = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        wm = signs @ ranks  # negative-rank sum of every sign assignment
        wp = ranks.sum() - wm
        expected = {
            "greater": np.sum(wm <= w_minus + 1e-9) / 2**n,
            "less": np.sum(wp <= w_plus + 1e-9) / 2**n,
            "two-sided": np.sum(np.minimum(wm, wp) <= min(w_plus, w_minus) + 1e-9)
            / 2**n,
        }
        for alt, p in expected.items():
            assert wilcoxon_signed_rank(d, np.zeros(n), alt).p_value == p, (trial, alt)


def test_normal_approximation_matches_scipy():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = np.random.default_rng(4)
    for loc in (0.0, 0.3, 0.8):
        d = rng.normal(loc=loc, size=40)
        d = d[d != 0.0]
        out = wilcoxon_signed_rank(d, np.zeros_like(d), "greater")
        assert out.method == "normal"
        ref = scipy_wilcoxon(
            d, alternative="greater", correction=True, method="approx"
        ).pvalue
        assert out.p_value == pytest.approx(ref, rel=1e-12)


def test_normal_p_value_equals_norm_cdf():
    # the normal branch imports scipy.special.ndtr lazily; its p-values must
    # equal the scipy.stats.norm.cdf formula bit for bit
    from scipy.stats import norm

    rng = np.random.default_rng(21)
    d = np.round(rng.normal(loc=0.2, size=30), 1)  # n >= 21, with ties
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    n = d.size
    mean = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    sd = np.sqrt(
        n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(counts**3 - counts)) / 48.0
    )
    w_plus, w_minus = ranks[d > 0].sum(), ranks[d < 0].sum()
    expected = {
        "greater": float(norm.cdf((w_minus - mean + 0.5) / sd)),
        "less": float(norm.cdf((w_plus - mean + 0.5) / sd)),
        "two-sided": min(
            1.0, 2.0 * float(norm.cdf((min(w_plus, w_minus) - mean + 0.5) / sd))
        ),
    }
    assert n > 20
    for alt, p in expected.items():
        out = wilcoxon_signed_rank(d, np.zeros(n), alt)
        assert out.method == "normal"
        assert out.p_value == p, alt


def test_published_auc_pairs_give_w_minus_5():
    out = wilcoxon_signed_rank(
        PUBLISHED_FASTTEXT_AUCS, PUBLISHED_GLOVE_AUCS, "greater"
    )
    assert out.n_effective == 10
    assert out.w_minus == 5.0
    assert out.method == "exact"
    # consistent with rejection at the published alpha = 0.01 threshold
    assert out.w_minus <= critical_value(10, 0.01)
    assert out.p_value == enumeration_oracle(
        np.array(PUBLISHED_FASTTEXT_AUCS) - np.array(PUBLISHED_GLOVE_AUCS), "greater"
    )


def test_null_distribution_counts():
    counts = null_distribution_counts(3)
    assert counts.sum() == 8
    assert list(counts) == [1, 1, 1, 2, 1, 1, 1]
    for n in range(2, 31):
        counts = null_distribution_counts(n)
        assert counts.size == n * (n + 1) // 2 + 1
        assert counts.sum() == 2**n
        assert np.array_equal(counts, counts[::-1])


def test_critical_values_against_textbook():
    # spot checks from standard signed-rank tables
    assert critical_value(10, 0.01, two_sided=False) == 5
    assert critical_value(10, 0.05, two_sided=False) == 10
    assert critical_value(10, 0.05, two_sided=True) == 8
    assert critical_value(5, 0.05, two_sided=False) == 0
    assert critical_value(5, 0.01, two_sided=False) is None
    with pytest.raises(ValueError):
        critical_value(10, 0.02)
    with pytest.raises(ValueError):
        critical_value(31, 0.05)
