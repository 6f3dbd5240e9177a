import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conceptlearn import (
    Concept,
    EmbeddingStore,
    make_split,
    random_concept,
    random_gaussian_embedding,
    resolve,
    split_rng,
)
from conceptlearn.embeddings import name_key
from conftest import words_of


def concept_of(store, size, seed=11):
    return random_concept(store, size, seed=seed, name=f"c{size}")


ROW_FIELDS = ("train_pos", "train_neg", "test_pos", "test_neg")


def same_rows(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ROW_FIELDS)


def test_even_split_sizes(gaussian_store):
    rc = concept_of(gaussian_store, 54)
    split = make_split(rc, gaussian_store, 0, 42)
    assert len(split.train_pos) == 27
    assert len(split.test_pos) == 27
    assert len(split.train_neg) == 27
    assert len(split.test_neg) == 27


def test_odd_split_train_gets_extra(gaussian_store):
    rc = concept_of(gaussian_store, 5)
    split = make_split(rc, gaussian_store, 3, 42)
    assert len(split.train_pos) == 3
    assert len(split.test_pos) == 2
    assert len(split.train_neg) == 3
    assert len(split.test_neg) == 2


def test_positives_partition_concept(gaussian_store):
    rc = concept_of(gaussian_store, 20)
    split = make_split(rc, gaussian_store, 0, 1)
    rows = set(rc.rows.tolist())
    assert set(split.train_pos.tolist()) | set(split.test_pos.tolist()) == rows
    assert not set(split.train_pos.tolist()) & set(split.test_pos.tolist())


def test_negatives_from_complement_and_disjoint(gaussian_store):
    rc = concept_of(gaussian_store, 20)
    split = make_split(rc, gaussian_store, 0, 1)
    member = set(rc.rows.tolist())
    assert not set(split.train_neg.tolist()) & member
    assert not set(split.test_neg.tolist()) & member
    lists = [split.train_pos, split.train_neg, split.test_pos, split.test_neg]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not set(lists[i].tolist()) & set(lists[j].tolist())


def test_determinism_and_iteration_variation(gaussian_store):
    rc = concept_of(gaussian_store, 16)
    a = make_split(rc, gaussian_store, 5, 99)
    b = make_split(rc, gaussian_store, 5, 99)
    c = make_split(rc, gaussian_store, 6, 99)
    d = make_split(rc, gaussian_store, 5, 100)
    assert same_rows(a, b)
    assert a.iteration_index == b.iteration_index
    # the row draws differ, not just the iteration field
    assert not same_rows(a, c)
    assert not same_rows(a, d)


def test_labels(gaussian_store):
    rc = concept_of(gaussian_store, 10)
    split = make_split(rc, gaussian_store, 0, 0)
    y = split.train_labels()
    assert y.sum() == len(split.train_pos)
    assert len(y) == 2 * len(split.train_pos)
    yt = split.test_labels()
    assert yt.sum() == len(split.test_pos)


def test_vocab_too_small():
    store = random_gaussian_embedding([f"w{i}" for i in range(12)], 3, seed=0)
    rc = random_concept(store, 6, seed=0)
    with pytest.raises(ValueError, match="too small for disjoint negatives"):
        make_split(rc, store, 0, 0)


def test_a_list_of_three_words_is_too_small_to_split(gaussian_store):
    with pytest.raises(ValueError, match="^concept of 3 words is too small to split$"):
        make_split(concept_of(gaussian_store, 3), gaussian_store, 0, 0)


def test_test_pos_membership_frequency(gaussian_store):
    # each word should land in test_pos with probability |test_pos|/n
    rc = concept_of(gaussian_store, 10)
    iters = 2000
    counts = {r: 0 for r in rc.rows.tolist()}
    for i in range(iters):
        split = make_split(rc, gaussian_store, i, 7)
        for r in split.test_pos.tolist():
            counts[r] += 1
    p = 0.5
    sigma = np.sqrt(iters * p * (1 - p))
    for c in counts.values():
        assert abs(c - iters * p) <= 4 * sigma


def test_split_independent_of_embedding_name(gaussian_store):
    # common random numbers: the split stream is keyed by (seed, concept,
    # iteration) only, so two embeddings over one vocabulary draw alike
    other = replace(gaussian_store, name="another-name")
    rc = concept_of(gaussian_store, 16)
    rc_other = replace(rc, embedding_name=other.name)
    for i in range(3):
        a = make_split(rc, gaussian_store, i, 5)
        b = make_split(rc_other, other, i, 5)
        assert same_rows(a, b)
        assert a.iteration_index == b.iteration_index


def test_split_stream_differs_from_random_list_stream():
    # random_concept draws its words from SeedSequence([seed, name_key(name)]);
    # the iteration-0 split of that list must not replay the same stream
    seed, name = 5, "random-0000"
    draw = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, name_key(name)]))
    )
    assert not np.array_equal(split_rng(seed, name, 0).random(4), draw.random(4))


def reference_split_words(resolved, store, iteration_index, master_seed):
    """The word-pool `make_split` the row version replaced, kept as oracle:
    same RNG calls, negatives drawn from a list of the non-member words."""
    words = words_of(store, resolved.rows)
    n = len(words)
    rng = split_rng(master_seed, resolved.concept.name, iteration_index)
    n_train = math.ceil(n / 2)
    perm = rng.permutation(n)
    member = set(words)
    pool = [w for w in store.vocabulary if w not in member]
    neg_idx = rng.choice(len(pool), size=n, replace=False)
    return {
        "train_pos": tuple(words[i] for i in perm[:n_train]),
        "test_pos": tuple(words[i] for i in perm[n_train:]),
        "train_neg": tuple(pool[i] for i in neg_idx[:n_train]),
        "test_neg": tuple(pool[i] for i in neg_idx[n_train:]),
    }


def test_rows_match_word_pool_reference():
    # vocabulary in shuffled (non-sorted) order, so row order and word
    # order differ; concepts carry OOV words too
    vocab = [f"w{i:03d}" for i in range(120)]
    order = np.random.default_rng(8).permutation(len(vocab))
    store = random_gaussian_embedding([vocab[i] for i in order], 3, seed=2)
    for size in (4, 7, 10, 31):
        picked = np.random.default_rng(size).choice(len(vocab), size, replace=False)
        words = {vocab[i] for i in picked} | {"oov-a", "oov-b"}
        rc = resolve(Concept(name=f"c{size}", words=frozenset(words)), store)
        for it in range(5):
            split = make_split(rc, store, it, 13)
            ref = reference_split_words(rc, store, it, 13)
            for f in ROW_FIELDS:
                got = tuple(store.vocabulary[i] for i in getattr(split, f))
                assert got == ref[f]


def test_make_split_reads_the_resolved_rows_not_the_index():
    vocab = [f"w{i:03d}" for i in range(120)]
    order = np.random.default_rng(3).permutation(len(vocab))
    store = random_gaussian_embedding([vocab[i] for i in order], 2, seed=4)
    words = frozenset(vocab[i] for i in range(0, 120, 9))
    concepts = [resolve(Concept(name="c", words=words), store), concept_of(store, 17)]
    object.__setattr__(store, "index", {})
    for rc in concepts:
        for it in range(4):
            split = make_split(rc, store, it, 3)
            ref = reference_split_words(rc, store, it, 3)
            for f in ROW_FIELDS:
                assert tuple(store.vocabulary[i] for i in getattr(split, f)) == ref[f]


def reference_delete_split(resolved, store, iteration_index, master_seed):
    """The split `make_split` made through the V-length `np.delete` pool,
    kept as its oracle."""
    rng = split_rng(master_seed, resolved.concept.name, iteration_index)
    rows = resolved.rows
    n, n_train = len(rows), math.ceil(len(rows) / 2)
    pos = rows[rng.permutation(n)]
    pool = np.delete(np.arange(len(store)), rows)
    neg = pool[rng.choice(len(pool), size=n, replace=False)]
    return pos[:n_train], neg[:n_train], pos[n_train:], neg[n_train:]


@pytest.mark.parametrize("V", [12, 40, 1001])
@pytest.mark.parametrize("layout", ["first", "last", "both-ends", "run", "runs", "spread"])
def test_split_rows_match_the_delete_pool_reference(V, layout):
    n = {12: 4, 40: 9, 1001: 60}[V]
    rows = {
        "first": range(n),  # rows 0 .. n-1
        "last": range(V - n, V),  # ends at V - 1
        "both-ends": [*range(n // 2), *range(V - (n - n // 2), V)],
        "run": range(V // 3, V // 3 + n),
        "runs": [*range(1, 1 + n // 2), *range(V // 2, V // 2 + n - n // 2)],
        "spread": np.random.default_rng(V).choice(V, n, replace=False),
    }[layout]
    store = random_gaussian_embedding([f"w{i:04d}" for i in range(V)], 1, seed=V)
    words = frozenset(store.vocabulary[i] for i in rows)
    rc = resolve(Concept(name=f"{layout}-{V}", words=words), store)
    for seed in (0, 7, -3):
        for it in range(4):
            split = make_split(rc, store, it, seed)
            ref = reference_delete_split(rc, store, it, seed)
            for field, want in zip(ROW_FIELDS, ref):
                got = getattr(split, field)
                assert got.dtype == want.dtype and np.array_equal(got, want)


def test_a_split_allocates_no_vocabulary_sized_array():
    V = 200_000
    store = EmbeddingStore(
        name="tall", vocabulary=tuple(f"w{i}" for i in range(V)),
        vectors=np.ones((V, 1), dtype=np.float32),
    )
    rc = concept_of(store, 400)
    make_split(rc, store, 0, 1)  # warm up
    tracemalloc.start()
    try:
        make_split(rc, store, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < V * 8  # the np.delete pool alone was V * 8 bytes
