"""Word-list concepts: loading, vocabulary resolution, wildcard expansion,
and random lists for null distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, name_key, not_utf8

# halving needs >= 2 train and >= 2 test positives
MIN_RESOLVED_SIZE = 4


class ConceptError(ValueError):
    pass


@dataclass(frozen=True)
class Concept:
    name: str
    words: frozenset[str]
    source: str = ""

    def __post_init__(self):
        if not self.words:
            raise ConceptError(f"concept {self.name!r} has no words")


@dataclass(frozen=True)
class ResolvedConcept:
    """A concept intersected with an embedding vocabulary.

    `in_vocab` keeps a deterministic (sorted) order so downstream sampling is
    reproducible; `dropped` records the out-of-vocabulary words.
    """

    concept: Concept
    embedding_name: str
    in_vocab: tuple[str, ...]
    dropped: tuple[str, ...]

    def __post_init__(self):
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


def load_concept(path: str, name: str) -> Concept:
    """Read a one-word-per-line UTF-8 list file (a byte-order mark is
    dropped).

    Lines starting with `#` are comments; blank lines are skipped; words are
    folded to lowercase and deduplicated. Stem wildcards like `happ*` are
    rejected: expand them first (CLI `expand-wildcards` / expand_wildcards()).
    """
    words = set()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                word = line.strip()
                if not word or word.startswith("#"):
                    continue
                if "*" in word:
                    raise ConceptError(
                        f"{path}:{lineno}: wildcard entry {word!r}; run the "
                        "expand-wildcards utility (--expand-wildcards) first"
                    )
                words.add(word.lower())
    except UnicodeDecodeError:
        raise ConceptError(not_utf8(path)) from None
    if not words:
        raise ConceptError(f"{path}: empty word list")
    return Concept(name=name, words=frozenset(words), source=path)


def expand_wildcards(entries, vocabulary) -> list[str]:
    """Expand trailing-`*` stems by prefix match against a vocabulary.

    Plain entries pass through unchanged. Output is deduplicated and sorted.
    """
    vocab_sorted = sorted(vocabulary)
    out = set()
    for entry in entries:
        entry = entry.strip().lower()
        if not entry:
            continue
        if entry.endswith("*"):
            stem = entry[:-1]
            if "*" in stem:
                raise ConceptError(f"unsupported wildcard pattern {entry!r}")
            out.update(w for w in vocab_sorted if w.startswith(stem))
        elif "*" in entry:
            raise ConceptError(f"unsupported wildcard pattern {entry!r}")
        else:
            out.add(entry)
    return sorted(out)


def resolve(concept: Concept, store: EmbeddingStore) -> ResolvedConcept:
    """Partition a concept's words into in-vocabulary and dropped.

    Fewer than MIN_RESOLVED_SIZE usable words cannot form nondegenerate
    train and test halves and raise.
    """
    in_vocab = sorted(w for w in concept.words if w in store.index)
    dropped = sorted(concept.words - set(in_vocab))
    if len(in_vocab) < MIN_RESOLVED_SIZE:
        raise ConceptError(
            f"concept {concept.name!r} too small after vocabulary "
            f"resolution ({len(in_vocab)} < {MIN_RESOLVED_SIZE})"
        )
    return ResolvedConcept(
        concept=concept,
        embedding_name=store.name,
        in_vocab=tuple(in_vocab),
        dropped=tuple(dropped),
    )


def random_concept(
    store: EmbeddingStore,
    size: int,
    exclude=frozenset(),
    seed: int = 0,
    name: str = "random",
) -> ResolvedConcept:
    """Uniform sample of `size` words (without replacement) from V minus
    `exclude`, packaged as an already-resolved concept."""
    pool = np.delete(
        np.arange(len(store)), [store.index[w] for w in exclude if w in store.index]
    )
    if size > len(pool):
        raise ConceptError(
            f"cannot sample {size} words from {len(pool)} available"
        )
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed & (2**64 - 1), name_key(name)]))
    )
    picked = rng.choice(len(pool), size=size, replace=False)
    words = tuple(sorted(store.vocabulary[i] for i in pool[picked]))
    concept = Concept(name=name, words=frozenset(words), source="random sample")
    return ResolvedConcept(
        concept=concept, embedding_name=store.name, in_vocab=words, dropped=()
    )
