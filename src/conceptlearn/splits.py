"""Per-iteration train/test construction: half the concept words train the
classifier, the other half are held out, with equal negative samples drawn
from the rest of the vocabulary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import ResolvedConcept
from .embeddings import EmbeddingStore, name_key

MASK64 = 2**64 - 1


@dataclass(frozen=True)
class EvaluationSplit:
    train_pos: tuple[str, ...]
    train_neg: tuple[str, ...]
    test_pos: tuple[str, ...]
    test_neg: tuple[str, ...]
    iteration_index: int
    seed: int

    @property
    def train_words(self) -> tuple[str, ...]:
        return self.train_pos + self.train_neg

    @property
    def test_words(self) -> tuple[str, ...]:
        return self.test_pos + self.test_neg

    def train_labels(self) -> np.ndarray:
        return np.concatenate(
            [np.ones(len(self.train_pos)), np.zeros(len(self.train_neg))]
        )

    def test_labels(self) -> np.ndarray:
        return np.concatenate(
            [np.ones(len(self.test_pos)), np.zeros(len(self.test_neg))]
        )


def split_rng(
    master_seed: int, concept_name: str, iteration_index: int
) -> np.random.Generator:
    """Splittable stream: one independent Philox stream per
    (seed, concept, iteration), independent of execution order and of the
    embedding, so every embedding sees the same draws for a concept.

    The iteration is a spawn key under the (seed, concept) entropy that
    `random_concept` uses, so a random list's word draw and its splits never
    share a stream."""
    ss = np.random.SeedSequence(
        [master_seed & MASK64, name_key(concept_name)], spawn_key=(iteration_index,)
    )
    return np.random.Generator(np.random.Philox(ss))


def make_split(
    resolved: ResolvedConcept,
    store: EmbeddingStore,
    iteration_index: int,
    master_seed: int,
) -> EvaluationSplit:
    """One labeled train/test partition.

    Positives: a uniform shuffle of the resolved words, first ceil(n/2) to
    train (odd sizes favor training). Negatives: a single without-replacement
    draw from V minus the concept, first |train_pos| to train and the rest to
    test, so the two negative sets are disjoint within an iteration.
    """
    words = resolved.in_vocab
    n = len(words)
    if n < 4:
        raise ValueError(f"concept of {n} words is too small to split")
    if len(store) < 2 * n + 2:
        raise ValueError(
            f"vocabulary of {len(store)} too small for disjoint negatives "
            f"on a concept of {n} words"
        )
    rng = split_rng(master_seed, resolved.concept.name, iteration_index)

    n_train = math.ceil(n / 2)
    perm = rng.permutation(n)
    train_pos = tuple(words[i] for i in perm[:n_train])
    test_pos = tuple(words[i] for i in perm[n_train:])

    member = set(words)
    pool = [w for w in store.vocabulary if w not in member]
    neg_idx = rng.choice(len(pool), size=n, replace=False)
    train_neg = tuple(pool[i] for i in neg_idx[:n_train])
    test_neg = tuple(pool[i] for i in neg_idx[n_train:])

    return EvaluationSplit(
        train_pos=train_pos,
        train_neg=train_neg,
        test_pos=test_pos,
        test_neg=test_neg,
        iteration_index=iteration_index,
        seed=master_seed,
    )
