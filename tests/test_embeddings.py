import numpy as np
import pytest

from conceptlearn import (
    EmbeddingParseError,
    EmbeddingSourceSpec,
    EmbeddingStore,
    load_embedding,
    load_embedding_dtype,
    normalize,
    random_gaussian_embedding,
    save_embedding,
)


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
    explicit = load_embedding(EmbeddingSourceSpec(path=str(headered), format="header"))
    for store in (sniffed, explicit):
        assert store.vocabulary == plain.vocabulary
        assert np.array_equal(store.vectors, plain.vectors)


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
    if token == "1e39":  # beyond float32 only
        store = load_embedding_dtype(EmbeddingSourceSpec(path=str(p)), np.float64)
        assert store.lookup("bird")[1] == 1e39


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


def test_lowercase_and_max_words(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("Cat 1.0\ndog 2.0\nbird 3.0\n")
    store = load_embedding(EmbeddingSourceSpec(path=str(p), lowercase=True, max_words=2))
    assert store.vocabulary == ("cat", "dog")


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
        name="rt", dimension=6, vocabulary=vocab,
        vectors=rng.normal(size=(20, 6)),
    )
    out = tmp_path / "out.txt"
    save_embedding(store, str(out))
    back = load_embedding_dtype(EmbeddingSourceSpec(path=str(out)), np.float64)
    assert back.vocabulary == store.vocabulary
    assert np.allclose(back.vectors, store.vectors, rtol=1e-11, atol=0)


def _reference_text(store, header=False):
    """Per-value f-string formatting that save_embedding must reproduce."""
    lines = [f"{len(store)} {store.dimension}\n"] if header else []
    for word, row in zip(store.vocabulary, store.vectors):
        lines.append(word + " " + " ".join(f"{v:.12g}" for v in row) + "\n")
    return "".join(lines)


def test_save_embedding_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(8)
    special = [-0.0, 5e-324, 1e300, 1.0, 123456789012345.0, -2.5e-7]
    mat = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-8, 9, size=(40, 6))
    mat[0] = special
    f64 = EmbeddingStore(
        name="f64", dimension=6, vocabulary=tuple(f"w{i}" for i in range(40)),
        vectors=mat,
    )
    text = tmp_path / "in.txt"
    text.write_text(_reference_text(f64).replace("1e+300", "1e+30"))
    f32 = load_embedding(EmbeddingSourceSpec(path=str(text)))
    assert f32.vectors.dtype == np.float32
    for store in (f64, f32):
        for header in (False, True):
            out = tmp_path / f"{store.name}-{header}.txt"
            save_embedding(store, str(out), header=header)
            assert out.read_text(encoding="utf-8") == _reference_text(store, header)


def test_lookup_oov_returns_none(tiny_store):
    store = load_embedding(EmbeddingSourceSpec(path=str(tiny_store)))
    assert store.lookup("zebra") is None


def test_normalize_345(small_store):
    store = EmbeddingStore(
        name="n", dimension=2, vocabulary=("a", "b"),
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
    norms = np.linalg.norm(once.vectors, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-9)


def test_normalize_rejects_zero_vector():
    store = EmbeddingStore(
        name="z", dimension=2, vocabulary=("ok", "zero"),
        vectors=np.array([[1.0, 1.0], [0.0, 0.0]]),
    )
    with pytest.raises(ValueError, match="zero vector for word 'zero'"):
        normalize(store)


def test_normalized_lookup_composes(small_store):
    normed = normalize(small_store)
    assert np.allclose(normed.lookup("cat"), [1.0, 0.0])


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


def test_gaussian_rejects_bad_args():
    with pytest.raises(ValueError):
        random_gaussian_embedding([], 3, seed=0)
    with pytest.raises(ValueError):
        random_gaussian_embedding(["a"], 0, seed=0)


def test_store_invariant_checks():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingStore(
            name="d", dimension=1, vocabulary=("a", "a"),
            vectors=np.zeros((2, 1)),
        )
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingStore(
            name="f", dimension=1, vocabulary=("a",),
            vectors=np.array([[np.nan]]),
        )
    with pytest.raises(ValueError, match="not unit length"):
        EmbeddingStore(
            name="u", dimension=2, vocabulary=("a",),
            vectors=np.array([[3.0, 4.0]]), normalized=True,
        )
