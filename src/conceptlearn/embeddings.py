"""Embedding storage: text-file ingestion, lookup, unit normalization, and
synthetic Gaussian embeddings."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


# text read per np.loadtxt call when parsing a vector file, and float64
# bytes per row chunk of the whole-matrix passes (finiteness, norms, saving)
# and of a Gaussian draw; larger blocks parse no faster and raise peak memory
BLOCK_BYTES = 1 << 20

# bump when the layout of a `load_cached` entry changes: old entries then
# miss and are replaced
CACHE_VERSION = 1


class EmbeddingParseError(ValueError):
    """Raised when a vector file cannot be parsed."""


class _NonFiniteRow(ValueError):
    """A store's matrix holds a nan or inf; `row` is the first such row."""

    def __init__(self, row: int):
        super().__init__("non-finite vector entries")
        self.row = row


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
    """Where to read a vector file, and whether to lowercase its words."""

    path: str
    lowercase: bool = False


@dataclass(frozen=True)
class EmbeddingStore:
    """A vocabulary with one dense row vector per word.

    Rows are kept in first-occurrence file order. `vectors` holds them as
    loaded; a store from `normalize` also holds each row's float64 length
    in `norms`, and `gather` and `lookup` divide by it.
    """

    name: str
    vocabulary: tuple[str, ...]
    vectors: np.ndarray
    skipped_duplicates: int = 0
    index: dict[str, int] = field(repr=False, compare=False, default=None)
    norms: np.ndarray | None = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.vectors.ndim != 2 or len(self.vectors) != len(self.vocabulary):
            raise ValueError("vectors must be a 2-D matrix with one row per word")
        bad = _first_nonfinite_row(self.vectors)
        if bad is not None:
            raise _NonFiniteRow(bad)
        if self.index is None:
            idx = {w: i for i, w in enumerate(self.vocabulary)}
            if len(idx) != len(self.vocabulary):
                raise ValueError("duplicate words in vocabulary")
            object.__setattr__(self, "index", idx)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def normalized(self) -> bool:
        """Whether rows are read at unit Euclidean length."""
        return self.norms is not None

    def __len__(self) -> int:
        return len(self.vocabulary)

    def lookup(self, word: str) -> np.ndarray | None:
        """Row vector for `word` as `gather` reads it, or None if out of
        vocabulary."""
        i = self.index.get(word)
        return None if i is None else self.gather(i)

    def gather(self, rows) -> np.ndarray:
        """The rows at `rows` (an index, an index array of any shape, or a
        slice) as a new float64 array, divided by their `norms` when the
        store has them. Training, scoring, `lookup` and `save_embedding` read
        the matrix only through here."""
        X = self.vectors[rows]
        if self.norms is None:
            return X.astype(np.float64)  # a copy even of float64 rows
        return X / self.norms[rows][..., None]


def _looks_like_header(line: str) -> bool:
    toks = line.split()
    if len(toks) != 2:
        return False
    try:
        int(toks[0]), int(toks[1])
    except ValueError:
        return False
    return True


def cache_root() -> str:
    """The directory of `load_cached`'s entries: `$XDG_CACHE_HOME/conceptlearn`
    if that is absolute (the XDG Base Directory spec ignores a relative one),
    else `~/.cache/conceptlearn`."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "conceptlearn")


def load_cached(spec: EmbeddingSourceSpec) -> EmbeddingStore:
    """`load_embedding` that parses each vector file once.

    An entry is keyed by the sha256 of the file's bytes together with the
    spec's `lowercase` and CACHE_VERSION, so any change to the content
    misses, whatever its size or mtime. A hit maps the matrix read-only from
    its `.npy` file (forked workers share its pages) and reads the words and
    `skipped_duplicates` from a word file; the store still checks the
    matrix. A miss parses the file and then writes its entry, replacing the
    entry the same path had before. A parse error writes nothing. A cache
    that cannot be read or written costs one line on stderr and an uncached
    load; it never fails the load.
    """
    h = hashlib.sha256(json.dumps([CACHE_VERSION, spec.lowercase]).encode())
    with open(spec.path, "rb") as fh:
        while block := fh.read(BLOCK_BYTES):
            h.update(block)
    key = h.hexdigest()
    entry = os.path.join(
        cache_root(), hashlib.sha256(os.fsencode(os.path.realpath(spec.path))).hexdigest()
    )
    npy, words = os.path.join(entry, key + ".npy"), os.path.join(entry, key + ".words")
    if os.path.exists(npy):
        try:
            with open(words, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
            vectors = np.load(npy, mmap_mode="r")
            if vectors.dtype != np.float32 or vectors.ndim != 2:
                raise ValueError(f"a {vectors.dtype} matrix of shape {vectors.shape}")
            return EmbeddingStore(
                name=spec.path,
                vocabulary=tuple(meta["vocabulary"]),
                # a plain ndarray view: the np.memmap subclass would pass on
                # to every slice and result computed from the matrix
                vectors=np.asarray(vectors),
                skipped_duplicates=meta["skipped_duplicates"],
            )
        except (OSError, EOFError, ValueError, KeyError) as exc:
            _cache_warning(f"cache entry {npy} is unreadable ({exc}); parsing "
                           f"{spec.path} again")
    store = load_embedding(spec)
    try:
        os.makedirs(entry, exist_ok=True)
        meta = {"skipped_duplicates": store.skipped_duplicates,
                "vocabulary": store.vocabulary}
        # the word file first: an entry whose .npy is present is complete
        _replace_file(words, lambda fh: fh.write(
            json.dumps(meta, ensure_ascii=False).encode("utf-8")
        ))
        _replace_file(npy, lambda fh: np.save(fh, store.vectors))
        for name in os.listdir(entry):  # the path's older entry
            if not name.startswith((key, ".")):
                os.unlink(os.path.join(entry, name))
    except OSError as exc:
        _cache_warning(f"cannot write the cache entry of {spec.path} ({exc})")
    return store


def _replace_file(path: str, write) -> None:
    """Write a file through `write(binary file)` under a temporary name in
    its directory, flush it to disk, then rename it to `path`: a reader sees
    the old file or the whole new one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cache_warning(message: str) -> None:
    print(f"warning: vector cache: {message}", file=sys.stderr)


def load_embedding(spec: EmbeddingSourceSpec) -> EmbeddingStore:
    """Parse a `word v1 ... vd` text file into an EmbeddingStore.

    The file is UTF-8, with or without a byte-order mark; a first line of
    exactly two integer tokens is a `vocab_count dimension` header and is
    skipped. Any whitespace separates tokens and blank lines are skipped.
    The dimension is fixed by the first data line; later lines with a
    different count raise EmbeddingParseError naming the 1-based line
    number, as do non-numeric tokens, bytes that are not UTF-8 and
    non-finite values (nan, inf, or beyond float32's range).
    Duplicate words keep the first occurrence and bump `skipped_duplicates`.
    Values are parsed as float64 and stored as float32, straight into the
    one matrix the store keeps: a load peaks at that matrix plus a few
    blocks of text.
    """
    # Lines are read about BLOCK_BYTES at a time. Python splits off and
    # bookkeeps the words; one np.loadtxt call parses a block's numbers, and
    # its kept rows go straight into one matrix, sized from the file with a
    # margin and trimmed in place, so the matrix is held once unless the
    # estimate falls short and a grow moves it (see _rows_estimate).
    seen: dict[str, int] = {}  # the kept words, in file order, and their rows
    kept_linenos: list[np.ndarray] = []
    mat = None
    dim = None
    lineno = records = chars = 0
    with open_utf8(spec.path, EmbeddingParseError) as fh:
        size = os.fstat(fh.fileno()).st_size
        while lines := fh.readlines(BLOCK_BYTES):
            linenos, rests, keep = [], [], []
            for line in lines:
                lineno += 1
                if lineno == 1 and _looks_like_header(line):
                    continue
                parts = line.split(None, 1)
                if not parts:
                    continue
                word = parts[0].lower() if spec.lowercase else parts[0]
                linenos.append(lineno)
                rests.append(parts[1] if len(parts) > 1 else "")
                keep.append(word not in seen)
                seen.setdefault(word, len(seen))
            chars += sum(map(len, lines))
            records += len(rests)
            if not rests:
                continue
            try:
                values = _parse_block(spec.path, rests, linenos, dim)
            except EmbeddingParseError:
                # decode the rest: bytes that are not UTF-8 are reported
                # first, wherever they are and whatever the block size
                while fh.read(BLOCK_BYTES):
                    pass
                raise
            dim = values.shape[1]
            linenos = np.array(linenos)
            if not all(keep):
                values, linenos = values[keep], linenos[keep]
            if mat is None:
                rows = _rows_estimate(size, records, chars, len(seen))
                mat = np.empty((rows, dim), np.float32)
            elif len(seen) > len(mat):
                at_least = max(len(seen), len(mat) + len(mat) // 8)
                rows = _rows_estimate(size, records, chars, at_least)
                mat.resize((rows, dim), refcheck=False)
            with np.errstate(over="ignore"):
                mat[len(seen) - len(values) : len(seen)] = values
            kept_linenos.append(linenos)
    if not seen:
        raise EmbeddingParseError(f"{spec.path}: no vector records found")
    mat.resize((len(seen), dim), refcheck=False)
    try:
        return EmbeddingStore(
            name=spec.path,
            vocabulary=tuple(seen),
            vectors=mat,
            skipped_duplicates=records - len(seen),
            index=seen,
        )
    except _NonFiniteRow as exc:
        # the store checks its matrix once, after the cast, so values that
        # overflow float32 (1e39) are caught with nan, inf and 1e999
        raise EmbeddingParseError(
            f"{spec.path}:{np.concatenate(kept_linenos)[exc.row]}: "
            "non-finite vector component"
        ) from None


def _rows_estimate(size: int, records: int, chars: int, at_least: int) -> int:
    """Matrix rows for a file of `size` bytes: its records at the mean
    length of the `records` read so far in `chars` characters plus 1/64,
    no fewer than `at_least`. The margin
    absorbs the drift of line lengths through a file, so a file of evenly
    long lines is not grown: a grow may move the matrix to a new
    allocation, and whether it does depends on the allocator's state, so
    peak memory would depend on the last digits of the estimate. Rows past
    the last record are never written, so they take address space only."""
    estimate = records * size // chars
    return max(at_least, estimate + estimate // 64)


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

    Bytes that do not decode raise `error`: `path:line: not valid UTF-8`,
    the line counted as the failed read counts it.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
        return
    except UnicodeDecodeError:
        pass
    # read the file again: surrogateescape turns each undecodable byte into
    # a lone surrogate, which the utf-8 encoder refuses
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not valid UTF-8") from None
    raise error(f"{path}: not valid UTF-8")


def save_embedding(store: EmbeddingStore, path: str) -> None:
    """Write the store's rows as `gather` reads them (unit rows for a
    normalized store) to a text vector file, 12 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(store, fh)


def write_rows(store: EmbeddingStore, fh) -> None:
    """Write the store's `word v1 ... vd` lines, as `save_embedding` does, to
    the open text file `fh`."""
    # per-row tolist() gives the digits of per-value formatting without a
    # whole-matrix list of Python floats in memory
    fmt = " ".join(["%.12g"] * store.dimension)
    for start, chunk in _row_chunks(store.vectors):
        stop = start + len(chunk)
        rows = store.gather(slice(start, stop))
        for word, row in zip(store.vocabulary[start:stop], rows):
            fh.write(word + " " + fmt % tuple(row.tolist()) + "\n")


def normalize(store: EmbeddingStore) -> EmbeddingStore:
    """The store read at unit Euclidean length: the same `vectors`, plus
    each row's float64 length in `norms`, by which `gather` divides.

    Idempotent: an already-normalized store is returned as is. A row whose
    norm is zero, or overflows float64, raises ValueError naming its word.
    """
    if store.normalized:
        return store
    with np.errstate(over="ignore"):
        norms = _row_norms(store.vectors)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero vector for word {store.vocabulary[zero[0]]!r}")
    huge = np.flatnonzero(~np.isfinite(norms))
    if huge.size:
        raise ValueError(
            f"vector norm overflows float64 for word {store.vocabulary[huge[0]]!r}"
        )
    normed = copy.copy(store)  # the same checked matrix: no second check
    object.__setattr__(normed, "norms", norms)
    return normed


def _row_chunks(mat: np.ndarray):
    """(first row, row slice) pairs covering `mat`, each slice about
    BLOCK_BYTES as float64, so a pass over the matrix allocates no
    matrix-sized temporary."""
    step = _chunk_rows(mat.shape[1])
    for start in range(0, len(mat), step):
        yield start, mat[start : start + step]


def _chunk_rows(dimension: int) -> int:
    """Rows of a `_row_chunks` chunk: about BLOCK_BYTES of float64, at least 1."""
    return max(1, BLOCK_BYTES // (8 * max(1, dimension)))


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """float64 Euclidean length of each row of `mat`."""
    norms = np.empty(len(mat))
    for start, chunk in _row_chunks(mat):
        chunk = np.asarray(chunk, dtype=np.float64)
        norms[start : start + len(chunk)] = np.linalg.norm(chunk, axis=1)
    return norms


def _first_nonfinite_row(mat: np.ndarray) -> int | None:
    """Index of the first row of `mat` with a nan or inf, or None."""
    for start, chunk in _row_chunks(mat):
        bad = np.flatnonzero(~np.isfinite(chunk).all(axis=1))
        if bad.size:
            return start + int(bad[0])
    return None


def gaussian_blocks(rows: int, dimension: int, seed: int):
    """The rows x dimension N(0, 1) matrix of `random_gaussian_embedding`,
    drawn one block at a time: an iterator of (first row, float64 block)
    pairs of consecutive rows, with the step of `_row_chunks`, each drawn
    from the one `stream(seed)` as it is asked for. The blocks stacked are
    bitwise the matrix one whole draw gives. No rows or a dimension below 1
    raise ValueError here, before the first draw."""
    if rows < 1:
        raise ValueError("vocabulary must be non-empty")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng, step = stream(seed), _chunk_rows(dimension)
    return (
        (start, rng.standard_normal((min(step, rows - start), dimension)))
        for start in range(0, rows, step)
    )


def random_gaussian_embedding(
    vocabulary, dimension: int, seed: int, name: str = "gaussian"
) -> EmbeddingStore:
    """Embedding with every entry drawn i.i.d. from N(0, 1).

    Uses a counter-based Philox stream keyed by `seed`; identical
    (vocabulary, dimension, seed) gives a bitwise-identical matrix.
    """
    vocab = tuple(vocabulary)
    blocks = gaussian_blocks(len(vocab), dimension, seed)
    mat = np.empty((len(vocab), dimension))
    for start, block in blocks:
        mat[start : start + len(block)] = block
    return EmbeddingStore(name=name, vocabulary=vocab, vectors=mat)
