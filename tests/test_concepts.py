import numpy as np
import pytest

from conceptlearn import (
    Concept,
    ConceptError,
    expand_wildcards,
    load_concept,
    random_concept,
    random_gaussian_embedding,
    resolve,
)
from conceptlearn.embeddings import name_key


def write_list(tmp_path, text, name="list.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_concept_basic(tmp_path):
    path = write_list(tmp_path, "mom\nbrother\ncousin\n")
    concept = load_concept(path, "family")
    assert concept.name == "family"
    assert concept.words == {"mom", "brother", "cousin"}


def test_load_concept_folds_case_and_dedups(tmp_path):
    path = write_list(tmp_path, "Happy\nhappy\n")
    assert load_concept(path, "c").words == {"happy"}


def test_load_concept_comments_and_blanks(tmp_path):
    path = write_list(tmp_path, "# header\n\nword\n  \n# more\nother\n")
    assert load_concept(path, "c").words == {"word", "other"}


def test_load_concept_drops_byte_order_mark(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_bytes("the\nof\n".encode("utf-8"))
    bom = tmp_path / "bom.txt"
    bom.write_bytes("the\nof\n".encode("utf-8-sig"))
    assert load_concept(str(bom), "c").words == load_concept(str(plain), "c").words == {"the", "of"}


def test_load_concept_empty_errors(tmp_path):
    path = write_list(tmp_path, "# only a comment\n")
    with pytest.raises(ConceptError, match="empty"):
        load_concept(path, "c")


def test_load_concept_rejects_wildcards(tmp_path):
    path = write_list(tmp_path, "happ*\n")
    with pytest.raises(ConceptError, match="expand-wildcards"):
        load_concept(path, "c")


def test_expand_wildcards():
    vocab = ["happy", "happier", "happiness", "sad", "hap"]
    out = expand_wildcards(["happ*", "sad"], vocab)
    assert out == ["happier", "happiness", "happy", "sad"]
    with pytest.raises(ConceptError):
        expand_wildcards(["ha*py"], vocab)


def test_resolve_partitions(gaussian_store):
    words = set(gaussian_store.vocabulary[:10]) | {"missing1", "missing2"}
    concept = Concept(name="c", words=frozenset(words))
    rc = resolve(concept, gaussian_store)
    assert set(rc.in_vocab) | set(rc.dropped) == words
    assert not set(rc.in_vocab) & set(rc.dropped)
    assert rc.size == 10
    assert rc.raw_size == 12
    assert rc.dropped == ("missing1", "missing2")


def test_resolve_fully_in_vocab(gaussian_store):
    concept = Concept(name="c", words=frozenset(gaussian_store.vocabulary[:6]))
    assert resolve(concept, gaussian_store).dropped == ()


def test_resolve_too_small_errors(gaussian_store):
    concept = Concept(name="c", words=frozenset({"no1", "no2", "no3", "no4", "no5"}))
    with pytest.raises(ConceptError, match="too small after vocabulary resolution"):
        resolve(concept, gaussian_store)


def test_random_concept_size_and_determinism(gaussian_store):
    a = random_concept(gaussian_store, 40, seed=5)
    b = random_concept(gaussian_store, 40, seed=5)
    c = random_concept(gaussian_store, 40, seed=6)
    assert a.size == 40
    assert a.dropped == ()
    assert a.in_vocab == b.in_vocab
    assert a.in_vocab != c.in_vocab


def test_random_concept_whole_vocabulary(gaussian_store):
    rc = random_concept(gaussian_store, len(gaussian_store), seed=0)
    assert set(rc.in_vocab) == set(gaussian_store.vocabulary)


def test_random_concept_respects_exclude(gaussian_store):
    excluded = frozenset(gaussian_store.vocabulary[:100])
    rc = random_concept(gaussian_store, 50, exclude=excluded, seed=3)
    assert not set(rc.in_vocab) & excluded


def test_random_concept_insufficient_pool(gaussian_store):
    with pytest.raises(ConceptError, match="cannot sample"):
        random_concept(gaussian_store, len(gaussian_store) + 1, seed=0)


def test_random_concept_uniform():
    store = random_gaussian_embedding([f"w{i}" for i in range(10)], 4, seed=0)
    counts = {w: 0 for w in store.vocabulary}
    draws = 10_000
    for k in range(draws):
        rc = random_concept(store, 1, seed=k, name="u")
        counts[rc.in_vocab[0]] += 1
    # binomial(10000, 0.1): sigma = sqrt(n p (1-p)) = 30
    expected, sigma = draws / 10, np.sqrt(draws * 0.1 * 0.9)
    for c in counts.values():
        assert abs(c - expected) <= 4 * sigma


def test_random_concept_matches_word_pool_reference():
    # the word-pool draw the index complement replaced, kept as oracle
    def reference(store, size, exclude, seed, name):
        pool = [w for w in store.vocabulary if w not in frozenset(exclude)]
        entropy = [seed & (2**64 - 1), name_key(name)]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        picked = rng.choice(len(pool), size=size, replace=False)
        return tuple(sorted(pool[i] for i in picked))

    vocab = [f"w{i:03d}" for i in range(150)]
    order = np.random.default_rng(4).permutation(len(vocab))
    store = random_gaussian_embedding([vocab[i] for i in order], 3, seed=1)
    excludes = (
        frozenset(),
        frozenset(vocab[::3]) | {"oov-x", "oov-y"},
        frozenset({"oov-only"}),
    )
    for exclude in excludes:
        for size in (4, 7, 10, 31):
            for seed in (0, 9, -1):
                rc = random_concept(store, size, exclude=exclude, seed=seed, name="r")
                assert rc.in_vocab == reference(store, size, exclude, seed, "r")
