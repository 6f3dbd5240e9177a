from dataclasses import replace

import numpy as np
import pytest

from conceptlearn import make_split, random_concept, random_gaussian_embedding, split_rng
from conceptlearn.embeddings import name_key


def concept_of(store, size, seed=11):
    return random_concept(store, size, seed=seed, name=f"c{size}")


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
    assert set(split.train_pos) | set(split.test_pos) == set(rc.in_vocab)
    assert not set(split.train_pos) & set(split.test_pos)


def test_negatives_from_complement_and_disjoint(gaussian_store):
    rc = concept_of(gaussian_store, 20)
    split = make_split(rc, gaussian_store, 0, 1)
    member = set(rc.in_vocab)
    assert not set(split.train_neg) & member
    assert not set(split.test_neg) & member
    lists = [split.train_pos, split.train_neg, split.test_pos, split.test_neg]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not set(lists[i]) & set(lists[j])


def test_determinism_and_iteration_variation(gaussian_store):
    rc = concept_of(gaussian_store, 16)
    a = make_split(rc, gaussian_store, 5, 99)
    b = make_split(rc, gaussian_store, 5, 99)
    c = make_split(rc, gaussian_store, 6, 99)
    d = make_split(rc, gaussian_store, 5, 100)
    assert a == b
    assert a != c
    assert a != d


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


def test_test_pos_membership_frequency(gaussian_store):
    # each word should land in test_pos with probability |test_pos|/n
    rc = concept_of(gaussian_store, 10)
    iters = 2000
    counts = {w: 0 for w in rc.in_vocab}
    for i in range(iters):
        split = make_split(rc, gaussian_store, i, 7)
        for w in split.test_pos:
            counts[w] += 1
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
        assert make_split(rc, gaussian_store, i, 5) == make_split(rc_other, other, i, 5)


def test_split_stream_differs_from_random_list_stream():
    # random_concept draws its words from SeedSequence([seed, name_key(name)]);
    # the iteration-0 split of that list must not replay the same stream
    seed, name = 5, "random-0000"
    draw = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, name_key(name)]))
    )
    assert not np.array_equal(split_rng(seed, name, 0).random(4), draw.random(4))
