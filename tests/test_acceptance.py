"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import rankdata

from conceptlearn import (
    Concept,
    EmbeddingStore,
    ExperimentConfig,
    TrainConfig,
    empirical_p_value,
    format_p_value,
    loss_and_gradient,
    random_concept,
    random_gaussian_embedding,
    resolve,
    roc_auc,
    run_concept,
    run_null,
    wilcoxon_signed_rank,
)
from conceptlearn.cli import compare_outcome, main
from conceptlearn.experiment import default_workers
from conceptlearn.report import compare_report_text
from conceptlearn.stats import (
    PUBLISHED_COMPARISON_LISTS,
    PUBLISHED_FASTTEXT_AUCS,
    PUBLISHED_GLOVE_AUCS,
    REFERENCE_COMPARISON_NOTE,
)

TABLE_SIZES = (392, 492, 184, 558, 632, 908, 396, 322, 54, 232)


def report_line(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_random_embedding_baseline():
    vocab = [f"w{i:05d}" for i in range(20_000)]
    store = random_gaussian_embedding(vocab, 300, seed=20260825, name="gauss20k")
    cfg = ExperimentConfig(iterations=200, master_seed=11, train=TrainConfig())
    worst = (None, None, 0.5)
    for size in TABLE_SIZES:
        rc = random_concept(store, size, seed=size, name=f"size{size}")
        agg = run_concept(store, rc, cfg, workers=default_workers())
        for name, mean in agg.means.items():
            if abs(mean - 0.5) > abs(worst[2] - 0.5):
                worst = (size, name, mean)
            assert 0.45 <= mean <= 0.55, (size, name, mean)
    report_line(
        1, True,
        f"all 5 metric means within [0.45, 0.55] for 10 concept sizes on a "
        f"Gaussian d=300 embedding (farthest from 0.5: size {worst[0]} "
        f"{worst[1]} = {worst[2]:.3f})",
    )


def test_criterion_2_separable_concept():
    # quadrature oracle for the analytic optimum: P(N(3,1) > N(0,1))
    def integrand(t):
        from scipy.stats import norm
        return norm.pdf(t, loc=3.0) * norm.cdf(t)

    bayes_auc, _ = quad(integrand, -10.0, 13.0)
    assert abs(bayes_auc - 0.9831) < 5e-4

    rng = np.random.default_rng(77)
    d, n_concept, n_background = 10, 200, 2400
    concept_words = tuple(f"c{i:04d}" for i in range(n_concept))
    background = tuple(f"b{i:04d}" for i in range(n_background))
    vectors = np.vstack(
        [
            rng.normal(size=(n_concept, d)) + 3.0 * np.eye(d)[0],
            rng.normal(size=(n_background, d)),
        ]
    )
    store = EmbeddingStore(
        name="separable", vocabulary=concept_words + background, vectors=vectors
    )
    rc = resolve(Concept(name="axis1", words=frozenset(concept_words)), store)
    cfg = ExperimentConfig(iterations=100, master_seed=5, train=TrainConfig())
    agg = run_concept(store, rc, cfg)
    ok = agg.means["auc"] >= 0.90
    report_line(
        2, ok,
        f"separable concept mean AUC {agg.means['auc']:.3f} >= 0.90 "
        f"(quadrature optimum {bayes_auc:.4f})",
    )


def test_criterion_3_auc_oracle_equivalence():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        if rng.random() < 0.4:  # force tied scores
            scores = rng.choice(np.round(rng.random(5), 2), size=n)
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        labels = labels.astype(bool)
        pos, neg = scores[labels], scores[~labels]
        oracle = (
            np.sum(pos[:, None] > neg[None, :])
            + 0.5 * np.sum(pos[:, None] == neg[None, :])
        ) / (len(pos) * len(neg))
        worst = max(worst, abs(roc_auc(scores, labels) - oracle))
    report_line(
        3, worst <= 1e-12,
        f"roc_auc vs pairwise Mann-Whitney oracle on 1000 instances, "
        f"max |diff| = {worst:.2e} <= 1e-12",
    )


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(29)
    step = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        theta = rng.normal(scale=0.8, size=d)
        bias = float(rng.normal(scale=0.8))
        _, g_theta, g_bias = loss_and_gradient(X, y, theta, bias)
        analytic = np.append(g_theta, g_bias)
        fd = np.empty(d + 1)
        for j in range(d):
            e = np.zeros(d)
            e[j] = step
            lp, _, _ = loss_and_gradient(X, y, theta + e, bias)
            lm, _, _ = loss_and_gradient(X, y, theta - e, bias)
            fd[j] = (lp - lm) / (2 * step)
        lp, _, _ = loss_and_gradient(X, y, theta, bias + step)
        lm, _, _ = loss_and_gradient(X, y, theta, bias - step)
        fd[d] = (lp - lm) / (2 * step)
        rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    report_line(
        4, worst <= 1e-5,
        f"analytic vs central-difference gradients on 100 instances, "
        f"max relative error {worst:.2e} <= 1e-5",
    )


def sign_enumeration_oracle(diffs, alternative):
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    n = len(ranks)
    count = 0
    for signs in itertools.product([0, 1], repeat=n):
        wm = sum(r for s, r in zip(signs, ranks) if s)
        wp = ranks.sum() - wm
        if alternative == "greater":
            count += wm <= w_minus + 1e-9
        elif alternative == "less":
            count += wp <= w_plus + 1e-9
        else:
            count += min(wm, wp) <= min(w_minus, w_plus) + 1e-9
    return count / 2**n


def test_criterion_5_wilcoxon_exactness():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        d = np.round(rng.normal(size=n), 2)  # rounding engineers ties
        if trial % 4 == 0 and n >= 3:
            d[rng.integers(0, n)] = 0.0  # engineered zero pair
        if np.all(d == 0.0):
            continue
        x, y = d, np.zeros(n)
        for alt in ("greater", "less", "two-sided"):
            ours = wilcoxon_signed_rank(x, y, alt)
            assert ours.p_value == sign_enumeration_oracle(d, alt), (trial, alt, d)
        checked += 1

    out = wilcoxon_signed_rank(PUBLISHED_FASTTEXT_AUCS, PUBLISHED_GLOVE_AUCS, "greater")
    assert out.w_minus == 5.0
    assert out.method == "exact"
    outcome, note = compare_outcome(
        list(PUBLISHED_FASTTEXT_AUCS), list(PUBLISHED_GLOVE_AUCS), "greater"
    )
    cfg = ExperimentConfig(iterations=1, train=TrainConfig(epochs=1))
    aucs_a = dict(zip(PUBLISHED_COMPARISON_LISTS, PUBLISHED_FASTTEXT_AUCS))
    aucs_b = dict(zip(PUBLISHED_COMPARISON_LISTS, PUBLISHED_GLOVE_AUCS))
    text = compare_report_text(
        "fasttext", "glove", list(PUBLISHED_COMPARISON_LISTS),
        aucs_a, aucs_b, outcome, cfg, note,
    )
    assert REFERENCE_COMPARISON_NOTE in text
    assert "W_test = 3" in text and "0.0088" in text and "W- = 5" in text
    report_line(
        5, True,
        f"exact p matches 2^n sign enumeration on {checked} paired samples "
        f"(n <= 12, ties and zeros); published AUC pairs give W- = "
        f"{out.w_minus:g}, exact p = {out.p_value:.6g}, discrepancy note "
        f"present in report",
    )


def test_criterion_6_null_p_value_formatting():
    vocab = [f"w{i:04d}" for i in range(400)]
    store = random_gaussian_embedding(vocab, 8, seed=3, name="nullg")
    cfg = ExperimentConfig(
        iterations=1, random_list_count=1000, random_list_size=8,
        master_seed=17, train=TrainConfig(epochs=15),
    )
    null = run_null(store, cfg)
    null_aucs = [m["auc"] for m in null.per_list]
    assert len(null_aucs) == 1000
    observed = max(null_aucs) + 0.01
    p = empirical_p_value(observed, null_aucs)
    printed = format_p_value(observed, null_aucs)
    ok = p == 1 / 1001 and printed == "< 0.001"
    report_line(
        6, ok,
        f"observed AUC above all 1000 null lists: add-one p = {p:.6g} "
        f"(= 1/1001), printed as {printed!r}",
    )


def test_criterion_7_determinism_across_worker_counts(tmp_path):
    emb = tmp_path / "emb.txt"
    store = random_gaussian_embedding([f"w{i:03d}" for i in range(300)], 10, seed=4)
    emb.write_text(
        "\n".join(
            w + " " + " ".join(f"{v:.12g}" for v in row)
            for w, row in zip(store.vocabulary, store.vectors)
        )
        + "\n"
    )
    ca = tmp_path / "ca.txt"
    ca.write_text("\n".join(store.vocabulary[:12]) + "\n")
    cb = tmp_path / "cb.txt"
    cb.write_text("\n".join(store.vocabulary[100:110]) + "\n")
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        f"[embeddings]\ngauss = {emb}\n[concepts]\nalpha = {ca}\nbeta = {cb}\n"
    )
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"out{workers}"
        rc = main(
            [
                "eval", str(manifest), "--seed", "9", "--iterations", "20",
                "--random-lists", "5", "--random-list-size", "8",
                "--workers", str(workers), "--out", str(out),
            ]
        )
        assert rc == 0
        outs[workers] = {
            name: (out / name).read_bytes()
            for name in ("gauss-eval.txt", "gauss-eval.csv", "gauss-eval.jsonl")
        }
    ok = outs[1] == outs[8]
    report_line(
        7, ok,
        "eval reports byte-identical at worker counts 1 and 8 "
        "(txt, csv, jsonl)",
    )
