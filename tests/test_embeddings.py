import codecs
import os
import tracemalloc

import numpy as np
import pytest

from conceptlearn import embeddings
from conceptlearn import (
    EmbeddingParseError,
    EmbeddingSourceSpec,
    EmbeddingStore,
    load_embedding,
    normalize,
    random_gaussian_embedding,
    save_embedding,
)
from conftest import normalized_copy


def test_load_plain_file(tiny_store):
    store = load_embedding(EmbeddingSourceSpec(path=str(tiny_store)))
    assert store.dimension == 3
    assert store.vocabulary == ("cat", "dog")
    assert np.array_equal(store.lookup("cat"), np.array([1.0, 0.0, 0.0], dtype=np.float32))
    assert not store.normalized


def test_header_file_autodetected(tmp_path, tiny_store):
    plain = load_embedding(EmbeddingSourceSpec(path=str(tiny_store)))
    headered = tmp_path / "h.txt"
    headered.write_text("2 3\n" + tiny_store.read_text())
    sniffed = load_embedding(EmbeddingSourceSpec(path=str(headered)))
    assert sniffed.vocabulary == plain.vocabulary
    assert np.array_equal(sniffed.vectors, plain.vectors)


def test_dimension_mismatch_names_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("cat 1.0\ndog 1.0 2.0\n")
    with pytest.raises(EmbeddingParseError, match=":2"):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


def test_non_numeric_token(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("cat 1.0 two\n")
    with pytest.raises(EmbeddingParseError, match="non-numeric"):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "1e39"])
def test_non_finite_component_names_line(tmp_path, token):
    p = tmp_path / "bad.txt"
    p.write_text(f"cat 1.0 2.0\n\ndog 3.0 4.0\nbird 1.0 {token}\nfish 5.0 6.0\n")
    with pytest.raises(EmbeddingParseError, match=r"bad\.txt:4: non-finite"):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


def test_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(EmbeddingParseError):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


def test_duplicates_keep_first_and_count(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("cat 1.0 2.0\ncat 9.0 9.0\ndog 3.0 4.0\n")
    store = load_embedding(EmbeddingSourceSpec(path=str(p)))
    assert store.vocabulary == ("cat", "dog")
    assert store.skipped_duplicates == 1
    assert np.allclose(store.lookup("cat"), [1.0, 2.0])


def test_lowercase(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("Cat 1.0\ndog 2.0\nBIRD 3.0\n")
    store = load_embedding(EmbeddingSourceSpec(path=str(p), lowercase=True))
    assert store.vocabulary == ("cat", "dog", "bird")


def test_vocabulary_keeps_file_order(tmp_path):
    words = ["zeta", "alpha", "mid", "beta"]
    p = tmp_path / "v.txt"
    p.write_text("".join(f"{w} {i}.0\n" for i, w in enumerate(words)))
    store = load_embedding(EmbeddingSourceSpec(path=str(p)))
    assert store.vocabulary == tuple(words)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    vocab = tuple(f"w{i}" for i in range(20))
    store = EmbeddingStore(
        name="rt", vocabulary=vocab,
        vectors=rng.normal(size=(20, 6)),
    )
    out = tmp_path / "out.txt"
    save_embedding(store, str(out))
    back = load_embedding(EmbeddingSourceSpec(path=str(out)))
    assert back.vocabulary == store.vocabulary
    assert back.vectors.dtype == np.float32
    assert np.allclose(back.vectors, store.vectors, rtol=2.0**-24, atol=0)


def _reference_text(store):
    """Per-value f-string formatting that save_embedding must reproduce."""
    lines = []
    for word, row in zip(store.vocabulary, store.vectors):
        lines.append(word + " " + " ".join(f"{v:.12g}" for v in row) + "\n")
    return "".join(lines)


def test_save_embedding_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(8)
    special = [-0.0, 5e-324, 1e300, 1.0, 123456789012345.0, -2.5e-7]
    mat = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 6))
    mat[0] = special
    f64 = EmbeddingStore(
        name="f64", vocabulary=tuple(f"w{i}" for i in range(40)),
        vectors=mat,
    )
    text = tmp_path / "in.txt"
    text.write_text(_reference_text(f64).replace("1e+300", "1e+30"))
    f32 = load_embedding(EmbeddingSourceSpec(path=str(text)))
    assert f32.vectors.dtype == np.float32
    # a normalized store writes its unit rows; 1e300 squared overflows the
    # norm, so the float64 one leaves out row 0
    f64_rest = EmbeddingStore(
        name="f64-rest", vocabulary=f64.vocabulary[1:], vectors=mat[1:]
    )
    for store, raw in ((f64, f64_rest), (f32, f32)):
        out = tmp_path / f"{store.name}.txt"
        save_embedding(store, str(out))
        assert out.read_text(encoding="utf-8") == _reference_text(store)
        save_embedding(normalize(raw), str(out))
        assert out.read_text(encoding="utf-8") == _reference_text(normalized_copy(raw))


def test_lookup_oov_returns_none(tiny_store):
    store = load_embedding(EmbeddingSourceSpec(path=str(tiny_store)))
    assert store.lookup("zebra") is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lookup_reads_a_float64_copy(dtype):
    vectors = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
    store = EmbeddingStore(name="c", vocabulary=("a", "b"), vectors=vectors)
    before = store.vectors.copy()
    row = store.lookup("a")
    assert row.dtype == np.float64 and np.array_equal(row, [1.0, 2.0])
    row[0] = 99.0
    assert np.array_equal(store.vectors, before)
    assert np.array_equal(store.lookup("a"), [1.0, 2.0])


def test_normalize_345(small_store):
    store = EmbeddingStore(
        name="n", vocabulary=("a", "b"),
        vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
    )
    normed = normalize(store)
    assert normed.normalized
    assert np.allclose(normed.lookup("a"), [0.6, 0.8])
    assert np.allclose(normed.lookup("b"), [1.0, 0.0])


def test_normalize_idempotent(gaussian_store):
    once = normalize(gaussian_store)
    twice = normalize(once)
    assert twice is once
    norms = np.linalg.norm(once.gather(np.arange(len(once))), axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


def test_normalize_rejects_zero_vector():
    store = EmbeddingStore(
        name="z", vocabulary=("ok", "zero"),
        vectors=np.array([[1.0, 1.0], [0.0, 0.0]]),
    )
    with pytest.raises(ValueError, match="^zero vector for word 'zero'$"):
        normalize(store)


def test_normalized_view_rejects_zero_vector_like_normalize():
    store = EmbeddingStore(
        name="z", vocabulary=("ok", "zero"),
        vectors=np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.float32),
    )
    with pytest.raises(ValueError, match="^zero vector for word 'zero'$"):
        normalize(store)


def test_normalize_rejects_a_norm_that_overflows():
    store = EmbeddingStore(
        name="o", vocabulary=("ok", "huge"),
        vectors=np.array([[1.0, 1.0], [1e300, 1e300]]),
    )
    with pytest.raises(ValueError, match="^vector norm overflows float64 for word 'huge'$"):
        normalize(store)


def test_normalized_lookup_composes(small_store):
    normed = normalize(small_store)
    assert np.allclose(normed.lookup("cat"), [1.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normalize_reads_the_rows_of_the_normalized_copy(dtype):
    rng = np.random.default_rng(5)
    vectors = (rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-3, 4, (300, 1)))
    store = EmbeddingStore(
        name="v", vocabulary=tuple(f"w{i}" for i in range(300)),
        vectors=vectors.astype(dtype),
    )
    copy, normed = normalized_copy(store), normalize(store)
    assert normed.normalized and normed.vectors is store.vectors
    assert normed.index is store.index and normalize(normed) is normed
    rows = rng.integers(0, 300, size=(4, 9))
    assert normed.gather(rows).tobytes() == copy.vectors[rows].tobytes()
    assert normed.gather(slice(40, 90)).tobytes() == copy.vectors[40:90].tobytes()
    assert normed.lookup("w17").tobytes() == copy.lookup("w17").tobytes()
    assert store.gather(rows).dtype == np.float64


def test_row_passes_do_not_depend_on_the_chunk(monkeypatch):
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((50, 33)) * 10.0 ** rng.integers(-5, 6, (50, 1))
    vectors[41, 7] = np.inf
    whole = np.linalg.norm(vectors, axis=1)
    for block_bytes in (1, 8 * 33 * 3, 1 << 20):
        monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
        assert embeddings._row_norms(vectors).tobytes() == whole.tobytes()
        assert embeddings._first_nonfinite_row(vectors) == 41
        assert embeddings._first_nonfinite_row(vectors[:41]) is None


def test_gaussian_moments():
    vocab = [f"w{i}" for i in range(10_000)]
    store = random_gaussian_embedding(vocab, 300, seed=99)
    entries = store.vectors.ravel()
    assert abs(entries.mean()) < 0.01
    assert abs(entries.var() - 1.0) < 0.02


def test_gaussian_deterministic():
    vocab = [f"w{i}" for i in range(50)]
    a = random_gaussian_embedding(vocab, 300, seed=7)
    b = random_gaussian_embedding(vocab, 300, seed=7)
    c = random_gaussian_embedding(vocab, 300, seed=8)
    assert a.dimension == 300
    assert np.array_equal(a.vectors, b.vectors)
    assert not np.array_equal(a.vectors, c.vectors)


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 3])
def test_gaussian_matches_philox_reference(seed):
    reference = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed & (2**64 - 1)))
    ).standard_normal((40, 5))
    store = random_gaussian_embedding([f"w{i}" for i in range(40)], 5, seed=seed)
    assert np.array_equal(store.vectors, reference)


@pytest.mark.parametrize("block_bytes", [8, 2400, 1 << 20])
@pytest.mark.parametrize("rows, dim", [(7, 1), (40, 3), (1000, 300)])
def test_gaussian_blocks_are_one_draw(monkeypatch, block_bytes, rows, dim):
    """Blocks of one row, blocks with a short last one and a single block
    stack to the whole draw of `stream(seed)`, as does the matrix of
    `random_gaussian_embedding`."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
    reference = embeddings.stream(5).standard_normal((rows, dim))
    blocks = list(embeddings.gaussian_blocks(rows, dim, 5))
    step = max(1, block_bytes // (8 * dim))
    assert [start for start, _ in blocks] == list(range(0, rows, step))
    assert {len(b) for _, b in blocks[:-1]} <= {step}
    assert np.concatenate([b for _, b in blocks]).tobytes() == reference.tobytes()
    store = random_gaussian_embedding([f"w{i}" for i in range(rows)], dim, seed=5)
    assert store.vectors.tobytes() == reference.tobytes()


def test_gaussian_rejects_bad_args():
    with pytest.raises(ValueError):
        random_gaussian_embedding([], 3, seed=0)
    with pytest.raises(ValueError):
        random_gaussian_embedding(["a"], 0, seed=0)
    # before the first block is asked for
    with pytest.raises(ValueError, match="^vocabulary must be non-empty$"):
        embeddings.gaussian_blocks(0, 3, seed=0)
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        embeddings.gaussian_blocks(1, 0, seed=0)


def test_store_invariant_checks():
    one_row_per_word = "^vectors must be a 2-D matrix with one row per word$"
    with pytest.raises(ValueError, match=one_row_per_word):
        EmbeddingStore(name="s", vocabulary=("a", "b"), vectors=np.zeros((3, 2)))
    with pytest.raises(ValueError, match=one_row_per_word):
        EmbeddingStore(name="v", vocabulary=("a", "b"), vectors=np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingStore(
            name="d", vocabulary=("a", "a"),
            vectors=np.zeros((2, 1)),
        )
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingStore(
            name="f", vocabulary=("a",),
            vectors=np.array([[np.nan]]),
        )


def _reference_load(spec):
    """The per-line loader the block parser replaced, kept as its oracle.

    A file that is not UTF-8 fails as such, whatever else is wrong with it.
    """
    with open(spec.path, "rb") as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].decode("utf-8")
        lineno = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise EmbeddingParseError(f"{spec.path}:{lineno}: not valid UTF-8") from None
    words, seen, rows, linenos = [], {}, [], []
    skipped = 0
    dim = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and _is_header(line):
            continue
        if not line.strip():
            continue
        parts = line.split()
        word, toks = parts[0], parts[1:]
        if spec.lowercase:
            word = word.lower()
        try:
            vec = np.array(toks, dtype=np.float64)
        except ValueError:
            raise EmbeddingParseError(
                f"{spec.path}:{lineno}: non-numeric vector component"
            ) from None
        if dim is None:
            dim = len(vec)
            if dim == 0:
                raise EmbeddingParseError(f"{spec.path}:{lineno}: no vector components")
        elif len(vec) != dim:
            raise EmbeddingParseError(
                f"{spec.path}:{lineno}: expected {dim} components, got {len(vec)}"
            )
        if word in seen:
            skipped += 1
            continue
        seen[word] = len(words)
        words.append(word)
        rows.append(vec)
        linenos.append(lineno)
    if not words:
        raise EmbeddingParseError(f"{spec.path}: no vector records found")
    with np.errstate(over="ignore"):
        mat = np.asarray(rows, dtype=np.float32)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise EmbeddingParseError(
            f"{spec.path}:{linenos[bad[0]]}: non-finite vector component"
        )
    return tuple(words), mat, skipped


def _is_header(line):
    """The header rule, restated for the oracle: exactly two tokens, and
    both integers."""
    try:
        count, dim = line.split()
        int(count), int(dim)
    except ValueError:
        return False
    return True


def _outcome(load):
    """What a loader made of a file: its records byte for byte, or its error."""
    try:
        vocab, mat, *rest = load()
    except EmbeddingParseError as exc:
        return "error", str(exc)
    return vocab, mat.dtype.str, mat.shape, mat.tobytes(), *rest


def _block_load(spec):
    store = load_embedding(spec)
    assert store.index == {w: i for i, w in enumerate(store.vocabulary)}
    return store.vocabulary, store.vectors, store.skipped_duplicates


def _formatted(fmt):
    rng = np.random.default_rng(17)
    mat = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-6, 7, size=(12, 3))
    mat[3] = [-0.0, 5e-324, 1e308]
    return "".join(
        f"w{i} " + " ".join(fmt(v) for v in row) + "\n" for i, row in enumerate(mat)
    )


_LINES = "".join(f"w{i} {i}.5 -{i}\n" for i in range(8))  # lines 1-8, several blocks
_LONG_LINE = "long " + "1.00000000000000000000000000 " * 2 + "\n"
_FORTY_VALUES = " ".join(f"{v:.3f}" for v in np.linspace(-1, 1, 40)) + "\n"
_ORACLE_CASES = {
    "repr": (_formatted(repr), {}),
    "g12": (_formatted(lambda v: "%.12g" % v), {}),
    "f5": (_formatted(lambda v: "%.5f" % v), {}),
    "word-only-line-1": ("a\nb 1 2\n", {}),
    "word-only-mid-file": (_LINES + "lonely\n" + _LINES, {}),
    "word-only-trailing-space": (_LINES + "lonely \t\n", {}),
    "dim-plus-one": (_LINES + "x 1 2 3\n", {}),
    "dim-changes-at-block": (_LINES + "".join(f"v{i} 1 2 3\n" for i in range(8)), {}),
    "bad-token-second-block": (_LINES + "x 1 two\n", {}),
    "non-finite-later-block": (_LINES + "x 1 nan\n" + _LINES.replace("w", "u"), {}),
    "overflows-float32": (_LINES + "x 1 1e39\n", {}),
    "non-finite-then-bad-token": ("a inf 1\n" + _LINES + "x 1 two\n", {}),
    "bad-token-on-duplicate": (_LINES + "w3 1 two\n", {}),
    "non-finite-on-duplicate": (_LINES + "w3 1 nan\nw4 1e39 1\n", {}),
    # the error names the file's line, not the row's: duplicates come between
    "non-finite-after-duplicates": (_LINES + _LINES + "x 1 nan\n", {}),
    "duplicates-after-lowercase": ("Cat 1 2\ncat 3 4\nDOG 5 6\ndog 7 8\n", {"lowercase": True}),
    "case-kept": ("Cat 1 2\ncat 3 4\nDOG 5 6\ndog 7 8\n", {}),
    "header-sniffed": ("8 2\n" + _LINES, {}),
    "header-only": ("8 2\n", {}),
    # a 1-dimensional record of an integer word and value is read as a header
    "one-dim-integer-record-is-a-header": ("5 7\nw 1\nv 2\n", {}),
    # ... on line 1 only, and a word with one integer value is a record
    "one-dim-integer-record-on-line-2": ("5 7\n3 4\nw 1\n", {}),
    "word-and-integer-on-line-1": ("w 1\nv 2\n", {}),
    "empty": ("", {}),
    "blank-lines": ("\n  \n" + _LINES.replace("\n", "\n\t\n"), {}),
    "crlf-trailing-space": (_LINES.replace("\n", " \t\r\n"), {}),
    "no-final-newline": (_LINES.rstrip("\n"), {}),
    "hash-in-words": ("#a 1 2\nb#c 3 4\nd# 5 6\n", {}),
    "hash-in-values": (_LINES + "x 1#2 3\n", {}),
    "hash-comment-value": (_LINES + "x 1 #\n", {}),
    "underscore-digits": (_LINES + "x 1_0 2\n" + _LINES.replace("w", "v"), {}),
    "arabic-indic-digits": ("a ١٢ 1\n" + _LINES, {}),
    # the matrix is sized from the first block: long lines there make the
    # estimate short, so it grows; a header, blank lines and duplicates make
    # it too high, so it is trimmed; first lines 1% longer than the mean
    # stay within the estimate's margin
    "estimate-short": (_LONG_LINE + "".join(f"s{i} {i} -{i}\n" for i in range(60)), {}),
    "estimate-margin": ("".join(
        (f"word{i:04d} " if i < 40 else f"w{i:04d} ") + _FORTY_VALUES for i in range(400)
    ), {}),
    "estimate-high": ("30 2\n\n\n" + "a 1 2\nb 3 4\n" * 15, {}),
}


@pytest.mark.filterwarnings("error")  # loadtxt warns on a block with no numbers
@pytest.mark.parametrize("block_bytes", [1, 40, embeddings.BLOCK_BYTES])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_block_parser_matches_line_loop(tmp_path, monkeypatch, case, block_bytes):
    text, kw = _ORACLE_CASES[case]
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("utf-8"))
    spec = EmbeddingSourceSpec(path=str(path), **kw)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
    assert _outcome(lambda: _block_load(spec)) == _outcome(lambda: _reference_load(spec))


def _block_list_load(spec):
    """The loader before the preallocated matrix: a list of per-block
    arrays joined by np.concatenate, with one whole-matrix finite check.
    Kept as the oracle of the current loader."""
    words, seen, blocks, kept_linenos = [], {}, [], []
    skipped = 0
    dim = None
    lineno = 0
    with embeddings.open_utf8(spec.path, EmbeddingParseError) as fh:
        while lines := fh.readlines(embeddings.BLOCK_BYTES):
            linenos, rests, keep = [], [], []
            for line in lines:
                lineno += 1
                if lineno == 1 and embeddings._looks_like_header(line):
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
            if not rests:
                continue
            values = embeddings._parse_block(spec.path, rests, linenos, dim)
            dim = values.shape[1]
            linenos = np.array(linenos)
            if not all(keep):
                values, linenos = values[keep], linenos[keep]
            with np.errstate(over="ignore"):
                blocks.append(values.astype(np.float32))
            kept_linenos.append(linenos)
    if not words:
        raise EmbeddingParseError(f"{spec.path}: no vector records found")
    mat = np.concatenate(blocks)
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=1))
    if bad.size:
        raise EmbeddingParseError(
            f"{spec.path}:{np.concatenate(kept_linenos)[bad[0]]}: "
            "non-finite vector component"
        )
    return tuple(words), mat, skipped, seen


def _preallocated_load(spec):
    store = load_embedding(spec)
    return store.vocabulary, store.vectors, store.skipped_duplicates, store.index


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block_bytes", [1, 40, embeddings.BLOCK_BYTES])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_preallocated_loader_matches_block_list(tmp_path, monkeypatch, case, block_bytes):
    text, kw = _ORACLE_CASES[case]
    path = tmp_path / "v.txt"
    path.write_bytes(text.encode("utf-8"))
    spec = EmbeddingSourceSpec(path=str(path), **kw)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
    assert _outcome(lambda: _preallocated_load(spec)) == _outcome(
        lambda: _block_list_load(spec)
    )


@pytest.mark.parametrize("block_bytes", [1, 40])
def test_sizing_cases_take_each_branch(tmp_path, monkeypatch, block_bytes):
    """The estimate-* oracle files do grow and trim the matrix, and a
    slightly short bare estimate is covered by the margin, not grown."""
    estimate, estimates = embeddings._rows_estimate, []

    def spy(*args):
        estimates.append(estimate(*args))
        return estimates[-1]

    monkeypatch.setattr(embeddings, "_rows_estimate", spy)
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
    first = {}
    for case in ("estimate-short", "estimate-high", "estimate-margin"):
        text, kw = _ORACLE_CASES[case]
        path = tmp_path / f"{case}.txt"
        path.write_text(text)
        estimates.clear()
        rows = len(load_embedding(EmbeddingSourceSpec(path=str(path), **kw)))
        first[case] = (estimates[0], len(estimates), rows)
    short_first, short_calls, short_rows = first["estimate-short"]
    assert short_first < short_rows and short_calls > 1  # grown in place
    high_first, high_calls, high_rows = first["estimate-high"]
    assert high_first > high_rows == 2 and high_calls == 1  # trimmed, never grown
    margin_first, margin_calls, margin_rows = first["estimate-margin"]
    assert margin_first * 64 // 65 < margin_rows == 400 <= margin_first
    assert margin_calls == 1


def test_max_words_ignores_bytes_after_the_last_word(tmp_path):
    """The loader no longer has a ``max_words`` cap that stopped before the
    last line, so bytes after the last word a cap would have kept are
    decoded too, and a non-UTF-8 byte there fails naming its line."""
    p = tmp_path / "tail.txt"
    p.write_bytes(b"a 1 2\nb 3 4\nc \xe9 5\n")
    with pytest.raises(EmbeddingParseError, match=r"tail\.txt:3: not valid UTF-8$"):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


def test_load_holds_the_matrix_once(tmp_path, monkeypatch):
    """Peak traced memory of a load is what the store keeps (matrix,
    vocabulary, index) plus a few blocks: no second matrix, no matrix-sized
    temporary."""
    rng = np.random.default_rng(3)
    path = tmp_path / "big.txt"
    with open(path, "w") as fh:
        for i, row in enumerate(rng.standard_normal((4000, 64))):
            fh.write(f"w{i} " + " ".join("%.6f" % v for v in row) + "\n")
    block = 32 * 1024
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        store = load_embedding(EmbeddingSourceSpec(path=str(path)))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert store.vectors.nbytes == 4000 * 64 * 4 > 16 * block
    assert peak - kept <= 8 * block


_SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]


@pytest.mark.parametrize("sep", _SPACES, ids=[f"U+{ord(c):04X}" for c in _SPACES])
def test_block_parser_separators_match_line_loop(tmp_path, monkeypatch, sep):
    lines = [f"w{i}{sep}{i}.25{sep}{sep}-{i}{sep}\n" for i in range(6)]
    path = tmp_path / "v.txt"
    path.write_bytes((_LINES + "".join(lines)).encode("utf-8"))
    spec = EmbeddingSourceSpec(path=str(path))
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 40)
    assert _outcome(lambda: _block_load(spec)) == _outcome(lambda: _reference_load(spec))


@pytest.mark.parametrize("header", ["", "2 3\n"])
def test_byte_order_mark_is_dropped(tmp_path, tiny_store, header):
    text = header + tiny_store.read_text()
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(text.encode("utf-8-sig"))
    a = load_embedding(EmbeddingSourceSpec(path=str(plain)))
    b = load_embedding(EmbeddingSourceSpec(path=str(bom)))
    assert b.vocabulary == a.vocabulary == ("cat", "dog")
    assert b.vectors.tobytes() == a.vectors.tobytes()


def test_non_utf8_bytes_name_the_line(tmp_path):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"cat 1 2\r\ndog 3 4\rcaf\xe9 5 6\n")
    with pytest.raises(EmbeddingParseError, match=r"latin1\.txt:3: not valid UTF-8$"):
        load_embedding(EmbeddingSourceSpec(path=str(p)))


def test_loaded_index_is_shared_by_normalize(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("Cat 1 2\ncat 3 4\ndog 0 5\n")
    store = load_embedding(EmbeddingSourceSpec(path=str(p), lowercase=True))
    assert store.index == {"cat": 0, "dog": 1}
    assert normalize(store).index is store.index


def _same_store(a, b):
    assert (a.name, a.dimension, a.vocabulary, a.skipped_duplicates) == (
        b.name, b.dimension, b.vocabulary, b.skipped_duplicates
    )
    assert a.vectors.dtype == b.vectors.dtype == np.float32
    assert a.vectors.tobytes() == b.vectors.tobytes()


@pytest.fixture
def vector_file(tmp_path):
    """A header, upper-case words and a duplicate: every field the cache
    keeps differs from its default."""
    path = tmp_path / "v.txt"
    path.write_text("4 3\nCat 1 2 3\ndog 4 5 6\ncat 7 8 9\nEmu -1 0.5 2e-3\n")
    return path


def test_a_hit_parses_nothing(vector_file, monkeypatch, vector_cache):
    parsed = []

    def spy(*args, _fn=embeddings._parse_block):
        parsed.append(args[1])
        return _fn(*args)

    monkeypatch.setattr(embeddings, "_parse_block", spy)
    spec = EmbeddingSourceSpec(path=str(vector_file), lowercase=True)
    miss = embeddings.load_cached(spec)
    assert parsed and len(list(vector_cache.rglob("*.npy"))) == 1
    parsed.clear()
    hit = embeddings.load_cached(spec)
    assert parsed == []
    assert miss.skipped_duplicates == 1
    _same_store(hit, miss)
    _same_store(hit, load_embedding(spec))
    assert not hit.vectors.flags.writeable
    assert hit.index == miss.index


def test_a_changed_file_misses_whatever_its_size_and_mtime(
    vector_file, monkeypatch, vector_cache
):
    spec = EmbeddingSourceSpec(path=str(vector_file))
    embeddings.load_cached(spec)
    before = vector_file.stat()
    vector_file.write_text(vector_file.read_text().replace("dog 4", "dog 3"))
    os.utime(vector_file, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = vector_file.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    store = embeddings.load_cached(spec)
    assert store.lookup("dog")[0] == 3.0
    _same_store(store, load_embedding(spec))
    # so does lowercasing, and the path keeps one entry: the latest
    lower = EmbeddingSourceSpec(path=str(vector_file), lowercase=True)
    assert embeddings.load_cached(lower).vocabulary == ("cat", "dog", "emu")
    assert len(list(vector_cache.rglob("*"))) == 3  # its directory and 2 files


def test_a_relative_cache_root_is_ignored(vector_file, tmp_path, monkeypatch):
    """A relative XDG_CACHE_HOME would move the cache with the working
    directory: `~/.cache` takes its place."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", "rel")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert embeddings.cache_root() == str(tmp_path / ".cache" / "conceptlearn")
    embeddings.load_cached(EmbeddingSourceSpec(path=str(vector_file)))
    assert len(list((tmp_path / ".cache" / "conceptlearn").rglob("*.npy"))) == 1
    assert list(work.iterdir()) == []


@pytest.mark.parametrize(
    "damage", ["truncated npy", "empty npy", "float64 npy", "1-D npy", "missing words"]
)
def test_a_damaged_entry_is_ignored_and_rewritten(
    vector_file, monkeypatch, capsys, vector_cache, damage
):
    spec = EmbeddingSourceSpec(path=str(vector_file), lowercase=True)
    embeddings.load_cached(spec)
    [npy] = vector_cache.rglob("*.npy")
    if damage == "truncated npy":
        npy.write_bytes(npy.read_bytes()[:-5])
    elif damage == "empty npy":
        npy.write_bytes(b"")
    elif damage == "float64 npy":
        np.save(npy, np.load(npy).astype(np.float64))
    elif damage == "1-D npy":
        np.save(npy, np.load(npy).ravel())
    else:
        npy.with_suffix(".words").unlink()
    store = embeddings.load_cached(spec)
    _same_store(store, load_embedding(spec))
    err = capsys.readouterr().err
    assert err.startswith(f"warning: vector cache: cache entry {npy} is unreadable")
    assert err.count("\n") == 1
    monkeypatch.setattr(embeddings, "_parse_block", None)  # a hit parses nothing
    _same_store(embeddings.load_cached(spec), store)
    assert capsys.readouterr().err == ""


def test_a_failed_replace_removes_its_temporary_file(tmp_path):
    target = tmp_path / "entry.npy"
    target.write_bytes(b"old")

    def write(fh):
        fh.write(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        embeddings._replace_file(str(target), write)
    assert [p.name for p in tmp_path.iterdir()] == ["entry.npy"]
    assert target.read_bytes() == b"old"
