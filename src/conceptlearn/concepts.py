"""Word-list concepts: loading, vocabulary resolution, wildcard expansion,
and random lists for null distributions."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingStore, open_utf8, stream

# halving needs >= 2 train and >= 2 test positives
MIN_RESOLVED_SIZE = 4


class ConceptError(ValueError):
    pass


def check_vocabulary_size(n: int, vocabulary_size: int) -> None:
    """Raise ConceptError unless a vocabulary of `vocabulary_size` words is
    large enough to split an n-word list against disjoint negatives:
    V >= 2n + 2."""
    if vocabulary_size < 2 * n + 2:
        raise ConceptError(
            f"vocabulary of {vocabulary_size} too small for disjoint negatives "
            f"on a concept of {n} words"
        )


@dataclass(frozen=True)
class Concept:
    name: str
    words: frozenset[str]

    def __post_init__(self):
        if not self.words:
            raise ConceptError(f"concept {self.name!r} has no words")


@dataclass(frozen=True)
class ResolvedConcept:
    """A concept intersected with an embedding vocabulary.

    `in_vocab` keeps a deterministic (sorted) order so downstream sampling is
    reproducible, and `rows` their rows in the store resolved against;
    `dropped` records the out-of-vocabulary words.
    """

    concept: Concept
    embedding_name: str
    in_vocab: tuple[str, ...]
    dropped: tuple[str, ...]
    rows: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if len(self.rows) != len(self.in_vocab):
            raise ConceptError("rows and in_vocab differ in length")
        if set(self.in_vocab) | set(self.dropped) != set(self.concept.words):
            raise ConceptError("in_vocab and dropped do not partition the concept")
        if set(self.in_vocab) & set(self.dropped):
            raise ConceptError("in_vocab and dropped overlap")
        if not self.in_vocab:
            raise ConceptError(f"concept {self.concept.name!r} is fully out of vocabulary")

    @property
    def size(self) -> int:
        return len(self.in_vocab)

    @property
    def raw_size(self) -> int:
        return len(self.concept.words)


def read_words(path: str) -> list[tuple[int, str]]:
    """(line number, word) of each word of a word list: a UTF-8 file (a
    byte-order mark is dropped) of one word per line.

    Blank lines and lines starting with `#` are skipped and words are
    folded to lowercase. A line holding more than one word raises
    ConceptError naming its line, since no vector-file word holds
    whitespace.
    """
    with open_utf8(path, ConceptError) as fh:
        lines = fh.readlines()  # bytes that are not UTF-8 fail first
    words = []
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()  # split as the vector-file loader splits
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) > 1:
            raise ConceptError(
                f"{path}:{lineno}: word {line.strip()!r} contains whitespace"
            )
        words.append((lineno, toks[0].lower()))
    return words


def load_concept(path: str, name: str) -> Concept:
    """The concept of a word list (see `read_words`), deduplicated.

    Stem wildcards like `happ*` are rejected: expand them first (CLI
    `expand-wildcards` / expand_wildcards()).
    """
    words = set()
    for lineno, word in read_words(path):
        if "*" in word:
            raise ConceptError(
                f"{path}:{lineno}: wildcard entry {word!r}; expand it "
                "first with `conceptlearn expand-wildcards`"
            )
        words.add(word)
    if not words:
        raise ConceptError(f"{path}: empty word list")
    return Concept(name=name, words=frozenset(words))


def expand_wildcards(path: str, vocabulary) -> list[str]:
    """The words of a word list (see `read_words`), each trailing-`*` stem
    expanded by prefix match against a vocabulary.

    Plain words pass through unchanged. Output is deduplicated and sorted.
    """
    vocab_sorted = sorted(vocabulary)
    out = set()
    for lineno, word in read_words(path):
        stem = word.removesuffix("*")
        if "*" in stem:
            raise ConceptError(f"{path}:{lineno}: unsupported wildcard pattern {word!r}")
        if stem == word:
            out.add(word)
            continue
        i = bisect_left(vocab_sorted, stem)  # the stem's words follow it
        while i < len(vocab_sorted) and vocab_sorted[i].startswith(stem):
            out.add(vocab_sorted[i])
            i += 1
    return sorted(out)


def resolve(concept: Concept, store: EmbeddingStore) -> ResolvedConcept:
    """Partition a concept's words into in-vocabulary and dropped.

    Fewer than MIN_RESOLVED_SIZE usable words cannot form nondegenerate
    train and test halves and raise, as does a list too large for the
    vocabulary (`check_vocabulary_size`).
    """
    in_vocab = sorted(w for w in concept.words if w in store.index)
    dropped = sorted(concept.words - set(in_vocab))
    if len(in_vocab) < MIN_RESOLVED_SIZE:
        raise ConceptError(
            f"concept {concept.name!r} too small after vocabulary "
            f"resolution ({len(in_vocab)} < {MIN_RESOLVED_SIZE})"
        )
    check_vocabulary_size(len(in_vocab), len(store))
    return ResolvedConcept(
        concept=concept,
        embedding_name=store.name,
        in_vocab=tuple(in_vocab),
        dropped=tuple(dropped),
        rows=np.array([store.index[w] for w in in_vocab], dtype=np.intp),
    )


def random_concept(
    store: EmbeddingStore, size: int, seed: int = 0, name: str = "random"
) -> ResolvedConcept:
    """Uniform sample of `size` words (without replacement) from the whole
    vocabulary, packaged as an already-resolved concept."""
    if size > len(store):
        raise ConceptError(f"cannot sample {size} words from {len(store)} available")
    picked = stream(seed, name).choice(len(store), size=size, replace=False).tolist()
    picked.sort(key=store.vocabulary.__getitem__)  # in_vocab is in word order
    words = tuple(store.vocabulary[i] for i in picked)
    concept = Concept(name=name, words=frozenset(words))
    return ResolvedConcept(
        concept=concept, embedding_name=store.name, in_vocab=words, dropped=(),
        rows=np.array(picked, dtype=np.intp),
    )
