"""Embedding storage: text-file ingestion, lookup, unit normalization, and
synthetic Gaussian embeddings."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


# text read per np.loadtxt call when parsing a vector file; larger blocks
# parse no faster and raise peak memory
BLOCK_BYTES = 1 << 20


class EmbeddingParseError(ValueError):
    """Raised when a vector file cannot be parsed."""


def name_key(name: str) -> int:
    """Stable 64-bit key for a name, independent of PYTHONHASHSEED."""
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


def stream(seed: int, *names: str, spawn_key=()) -> np.random.Generator:
    """The counter-based Philox stream keyed by `seed` (taken modulo 2**64),
    the `name_key` of each name and `spawn_key`; every split, random list
    and Gaussian embedding draws from one."""
    entropy = [seed & (2**64 - 1), *map(name_key, names)]
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EmbeddingSourceSpec:
    """Where and how to read a vector file.

    format: "plain" (every line is a record), "header" (skip a first
    `vocab_count dimension` line) or None to sniff: a first line with exactly
    two integer tokens is treated as a header.
    """

    path: str
    format: str | None = None
    lowercase: bool = False
    max_words: int | None = None

    def __post_init__(self):
        if self.format not in (None, "plain", "header"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.max_words is not None and self.max_words < 1:
            raise ValueError("max_words must be >= 1")


@dataclass(frozen=True)
class EmbeddingStore:
    """A vocabulary with one dense row vector per word.

    Rows are kept in first-occurrence file order. `normalized` records whether
    rows were rescaled to unit Euclidean length.
    """

    name: str
    dimension: int
    vocabulary: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool = False
    skipped_duplicates: int = 0
    index: dict[str, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.vectors.shape != (len(self.vocabulary), self.dimension):
            raise ValueError("vector matrix shape does not match vocabulary/dimension")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("non-finite vector entries")
        if self.index is None:
            idx = {w: i for i, w in enumerate(self.vocabulary)}
            if len(idx) != len(self.vocabulary):
                raise ValueError("duplicate words in vocabulary")
            object.__setattr__(self, "index", idx)
        if self.normalized:
            norms = np.linalg.norm(np.asarray(self.vectors, dtype=np.float64), axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("store marked normalized but rows are not unit length")

    def __len__(self) -> int:
        return len(self.vocabulary)

    def lookup(self, word: str) -> np.ndarray | None:
        """Row vector for `word`, or None if out of vocabulary."""
        i = self.index.get(word)
        if i is None:
            return None
        return self.vectors[i]


def _looks_like_header(line: str) -> bool:
    toks = line.split()
    if len(toks) != 2:
        return False
    try:
        int(toks[0]), int(toks[1])
    except ValueError:
        return False
    return True


def load_embedding(spec: EmbeddingSourceSpec) -> EmbeddingStore:
    """Parse a `word v1 ... vd` text file into an EmbeddingStore.

    The file is UTF-8, with or without a byte-order mark; any whitespace
    separates tokens and blank lines are skipped. The dimension is fixed by
    the first data line; later lines with a different count raise
    EmbeddingParseError naming the 1-based line number, as do non-numeric
    tokens, bytes that are not UTF-8 and non-finite values (nan, inf, or
    beyond the storage dtype's range).
    Duplicate words keep the first occurrence and bump `skipped_duplicates`.
    Values are parsed as float64 and stored as float32 unless `dtype` says
    otherwise (see `load_embedding_dtype`).
    """
    return _load(spec, np.float32)


def load_embedding_dtype(spec: EmbeddingSourceSpec, dtype) -> EmbeddingStore:
    """load_embedding with an explicit storage dtype (float32 or float64)."""
    return _load(spec, np.dtype(dtype))


def _load(spec: EmbeddingSourceSpec, dtype) -> EmbeddingStore:
    # Lines are read about BLOCK_BYTES at a time. Python splits off and
    # bookkeeps the words; one np.loadtxt call parses a block's numbers.
    words: list[str] = []
    seen: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    kept_linenos: list[np.ndarray] = []
    skipped = 0
    dim = None
    fmt = spec.format
    lineno = 0
    full = False
    with open_utf8(spec.path, EmbeddingParseError) as fh:
        while not full and (lines := fh.readlines(BLOCK_BYTES)):
            linenos, rests, keep = [], [], []
            for line in lines:
                lineno += 1
                if lineno == 1:
                    if fmt is None:
                        fmt = "header" if _looks_like_header(line) else "plain"
                    if fmt == "header":
                        continue
                parts = line.split(None, 1)
                if not parts:
                    continue
                word = parts[0].lower() if spec.lowercase else parts[0]
                linenos.append(lineno)
                rests.append(parts[1] if len(parts) > 1 else "")
                if word in seen:
                    skipped += 1
                    keep.append(False)
                    continue
                keep.append(True)
                seen[word] = len(words)
                words.append(word)
                if len(words) == spec.max_words:
                    full = True
                    break
            if not rests:
                continue
            values = _parse_block(spec.path, rests, linenos, dim)
            dim = values.shape[1]
            linenos = np.array(linenos)
            if not all(keep):
                values, linenos = values[keep], linenos[keep]
            with np.errstate(over="ignore"):
                blocks.append(values.astype(dtype, copy=False))
            kept_linenos.append(linenos)
    if not words:
        raise EmbeddingParseError(f"{spec.path}: no vector records found")
    mat = np.concatenate(blocks)
    del blocks  # free the per-block copies before the finiteness passes
    # checked once after the cast, so values that overflow the storage dtype
    # (1e39 as float32) are caught with nan, inf and 1e999
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise EmbeddingParseError(
            f"{spec.path}:{np.concatenate(kept_linenos)[bad[0]]}: "
            "non-finite vector component"
        )
    return EmbeddingStore(
        name=spec.path,
        dimension=dim,
        vocabulary=tuple(words),
        vectors=mat,
        skipped_duplicates=skipped,
        index=seen,
    )


def _parse_block(
    path: str, rests: list[str], linenos: list[int], dim: int | None
) -> np.ndarray:
    """(len(rests), dim) float64 values of one block's number columns.

    np.loadtxt parses the block in C. A block it rejects goes through the
    per-line parse, which gives the same values or names the bad line:
    loadtxt raises on tokens float() accepts (`1_0`, non-ASCII digits) and
    on column counts that change, and silently drops empty rests (with a
    warning when nothing else is left).
    """
    if "" not in rests:
        try:
            values = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            rows, cols = values.shape
            if rows == len(rests) and 0 < cols == (dim or cols):
                return values
    out = []
    for lineno, rest in zip(linenos, rests):
        toks = rest.split()
        try:
            vec = np.array(toks, dtype=np.float64)
        except ValueError:
            raise EmbeddingParseError(
                f"{path}:{lineno}: non-numeric vector component"
            ) from None
        if dim is None:
            dim = len(vec)
            if dim == 0:
                raise EmbeddingParseError(f"{path}:{lineno}: no vector components")
        elif len(vec) != dim:
            raise EmbeddingParseError(
                f"{path}:{lineno}: expected {dim} components, got {len(vec)}"
            )
        out.append(vec)
    return np.array(out)


@contextmanager
def open_utf8(path: str, error: type[Exception]):
    """Open a UTF-8 text file for reading, dropping a byte-order mark.

    Bytes that do not decode raise `error` with the `not_utf8` message.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(not_utf8(path)) from None


def not_utf8(path: str) -> str:
    """`path:line: not valid UTF-8` for a text file whose decoding failed.

    Re-reads the file, so call it only on that error path. The line is
    counted as the failed read counts it.
    """
    # surrogateescape turns each undecodable byte into a lone surrogate,
    # which the utf-8 encoder refuses
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return f"{path}:{lineno}: not valid UTF-8"
    return f"{path}: not valid UTF-8"


def save_embedding(store: EmbeddingStore, path: str, header: bool = False) -> None:
    """Write the store back as a text vector file (12 significant digits)."""
    # per-row tolist() gives the digits of per-value formatting without a
    # whole-matrix list of Python floats in memory
    fmt = " ".join(["%.12g"] * store.dimension)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(store)} {store.dimension}\n")
        for word, row in zip(store.vocabulary, store.vectors):
            fh.write(word + " " + fmt % tuple(row.tolist()) + "\n")


def normalize(store: EmbeddingStore) -> EmbeddingStore:
    """Rescale every row to unit Euclidean length.

    Idempotent: an already-normalized store is returned as is. Rows are
    upcast to float64 so unit norms hold to 1e-9.
    """
    if store.normalized:
        return store
    mat = np.asarray(store.vectors, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero vector for word {store.vocabulary[zero[0]]!r}")
    return EmbeddingStore(
        name=store.name,
        dimension=store.dimension,
        vocabulary=store.vocabulary,
        vectors=mat / norms[:, None],
        normalized=True,
        skipped_duplicates=store.skipped_duplicates,
        index=store.index,
    )


def random_gaussian_embedding(
    vocabulary, dimension: int, seed: int, name: str = "gaussian"
) -> EmbeddingStore:
    """Embedding with every entry drawn i.i.d. from N(0, 1).

    Uses a counter-based Philox stream keyed by `seed`; identical
    (vocabulary, dimension, seed) gives a bitwise-identical matrix.
    """
    vocab = tuple(vocabulary)
    if not vocab:
        raise ValueError("vocabulary must be non-empty")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    mat = stream(seed).standard_normal((len(vocab), dimension))
    return EmbeddingStore(name=name, dimension=dimension, vocabulary=vocab, vectors=mat)
