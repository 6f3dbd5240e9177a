"""Per-iteration train/test construction: half the concept words train the
classifier, the other half are held out, with equal negative samples drawn
from the rest of the vocabulary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import MIN_RESOLVED_SIZE, ResolvedConcept, check_vocabulary_size
from .embeddings import EmbeddingStore, stream


@dataclass(frozen=True, eq=False)
class EvaluationSplit:
    """Vocabulary row indices of one iteration's four word sets."""

    train_pos: np.ndarray
    train_neg: np.ndarray
    test_pos: np.ndarray
    test_neg: np.ndarray
    iteration_index: int

    @property
    def train_rows(self) -> np.ndarray:
        return np.concatenate([self.train_pos, self.train_neg])

    @property
    def test_rows(self) -> np.ndarray:
        return np.concatenate([self.test_pos, self.test_neg])

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
    return stream(master_seed, concept_name, spawn_key=(iteration_index,))


def train_positives(n: int) -> int:
    """Training positives of a split of an n-word concept: ceil(n/2), so odd
    sizes favor training. Training takes as many negatives."""
    return math.ceil(n / 2)


def rows_outside(taken: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The rows `np.delete(np.arange(V), taken)[draws]`, for sorted distinct
    `taken`, without building that V-length pool: pool row j is j plus the
    number of taken rows below it, which are those with at most j pool rows
    below them (taken[i] - i <= j)."""
    return draws + np.searchsorted(taken - np.arange(len(taken)), draws, "right")


def make_split(
    resolved: ResolvedConcept,
    store: EmbeddingStore,
    iteration_index: int,
    master_seed: int,
) -> EvaluationSplit:
    """One labeled train/test partition, as vocabulary row indices.

    Positives: a uniform shuffle of `resolved.rows` (in word order), first
    `train_positives(n)` to train. Negatives: a
    single without-replacement draw from the rows of V minus the concept, in
    vocabulary order, first |train_pos| to train and the rest to test, so the
    two negative sets are disjoint within an iteration.
    """
    n = resolved.size
    if n < MIN_RESOLVED_SIZE:
        raise ValueError(f"concept of {n} words is too small to split")
    check_vocabulary_size(n, len(store))
    rng = split_rng(master_seed, resolved.concept.name, iteration_index)
    rows = resolved.rows

    n_train = train_positives(n)
    pos = rows[rng.permutation(n)]
    neg = rows_outside(np.sort(rows), rng.choice(len(store) - n, size=n, replace=False))

    return EvaluationSplit(
        train_pos=pos[:n_train],
        train_neg=neg[:n_train],
        test_pos=pos[n_train:],
        test_neg=neg[n_train:],
        iteration_index=iteration_index,
    )
