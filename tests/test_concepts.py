import re
from dataclasses import replace

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
from conftest import rows_of


def write_list(tmp_path, text, name="list.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
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
    with pytest.raises(ConceptError, match="`conceptlearn expand-wildcards`") as err:
        load_concept(path, "c")
    assert "--expand-wildcards" not in str(err.value)


# words whose upper and title case fold back to them (not "straße")
_LIST_WORDS = ["mom", "brother", "cousin", "café", "naïve", "日本", "w01", "x-ray",
               "o'clock", "c#", "ångström"]
_CASES = [str.lower, str.upper, str.title]
_NOT_WORDS = ["", " \t", "#", "# a comment", "#café", "  # indented comment"]


def _relaid_lines(rng, words):
    """The lines of a list of `words`, each once to three times in a random
    case with random surrounding whitespace, among `#` and blank lines, in
    random order."""
    lines = [
        " " * rng.integers(2) + _CASES[rng.integers(3)](w) + "\t" * rng.integers(2)
        for w in words for _ in range(rng.integers(1, 4))
    ]
    lines += [_NOT_WORDS[i] for i in rng.integers(len(_NOT_WORDS), size=rng.integers(6))]
    return [lines[i] for i in rng.permutation(len(lines))]


def _list_bytes(rng, lines):
    """A file of `lines`: one line end of `\n`, `\r\n` or `\r`, an optional
    final one and an optional byte-order mark."""
    end = ["\n", "\r\n", "\r"][rng.integers(3)]
    text = "\ufeff" * rng.integers(2) + end.join(lines) + end * rng.integers(2)
    return text.encode("utf-8")


def test_load_concept_does_not_depend_on_the_list_layout(tmp_path):
    """Metamorphic: permuting, re-casing or duplicating a list's lines, or
    adding `#` and blank lines, a byte-order mark or other line ends, loads
    the same concept; a two-word line among them fails at its line."""
    rng = np.random.default_rng(11)
    path = tmp_path / "list.txt"
    for _ in range(200):
        words = [w for w in _LIST_WORDS if rng.random() < 0.6] or ["mom"]
        lines = _relaid_lines(rng, words)
        path.write_bytes(_list_bytes(rng, lines))
        assert load_concept(str(path), "c") == Concept("c", frozenset(words))
        at = int(rng.integers(len(lines) + 1))
        lines.insert(at, " happy 3\t")
        path.write_bytes(_list_bytes(rng, lines))
        message = f"{path}:{at + 1}: word 'happy 3' contains whitespace"
        with pytest.raises(ConceptError, match=f"^{re.escape(message)}$"):
            load_concept(str(path), "c")


def test_expand_wildcards(tmp_path):
    vocab = ["happy", "happier", "happiness", "sad", "hap"]
    out = expand_wildcards(write_list(tmp_path, "# stems\nHapp*\n\nsad\n"), vocab)
    assert out == ["happier", "happiness", "happy", "sad"]
    for pattern in ("ha*py", "**"):
        path = write_list(tmp_path, f"sad\n{pattern}\n")
        message = f"{path}:2: unsupported wildcard pattern '{pattern}'"
        with pytest.raises(ConceptError, match=f"^{re.escape(message)}$"):
            expand_wildcards(path, vocab)


@pytest.mark.parametrize(
    "entries",
    [
        ["*"],  # every word
        ["hap*", "happy*"],  # a stem that is itself a word
        ["zz*", "\uffff*"],  # stems past the last word
        ["caf*", "café*", "über*", "ü*", "日*"],  # non-ASCII stems
        ["x*", "sad"],  # no match, and a plain entry
    ],
)
def test_expand_wildcards_matches_a_scan_of_the_vocabulary(tmp_path, entries):
    vocab = ["happy", "happier", "happiness", "sad", "hap", "ha", "café", "cafe",
             "cafés", "über", "uber", "ü", "日本", "日", "zebra", "z", "été"]
    oracle = set()
    for entry in entries:
        if entry.endswith("*"):
            oracle.update(w for w in vocab if w.startswith(entry[:-1]))
        else:
            oracle.add(entry)
    path = write_list(tmp_path, "".join(e + "\n" for e in entries))
    assert expand_wildcards(path, vocab) == sorted(oracle)
    assert expand_wildcards(path, reversed(vocab)) == sorted(oracle)


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


def test_resolved_rows_are_the_rows_of_in_vocab():
    # vocabulary in shuffled order: in_vocab (word) order is not row order
    vocab = [f"w{i:03d}" for i in range(200)]
    order = np.random.default_rng(6).permutation(len(vocab))
    store = random_gaussian_embedding([vocab[i] for i in order], 3, seed=1)
    words = frozenset(vocab[i] for i in range(0, 200, 7)) | {"oov"}
    concepts = [resolve(Concept(name="c", words=words), store)]
    concepts += [random_concept(store, n, seed=n, name="r") for n in (4, 31, 99)]
    for rc in concepts:
        assert rc.in_vocab == tuple(sorted(rc.in_vocab))
        assert rc.rows.dtype == np.intp
        assert np.array_equal(rc.rows, rows_of(store, rc.in_vocab))


def test_resolved_rows_must_match_in_vocab(gaussian_store):
    rc = random_concept(gaussian_store, 8, seed=0)
    with pytest.raises(ConceptError, match="rows and in_vocab differ in length"):
        replace(rc, rows=rc.rows[:-1])


def test_random_concept_matches_word_pool_reference():
    # the word-pool draw the index draw replaced, kept as oracle
    def reference(store, size, seed, name):
        pool = list(store.vocabulary)
        entropy = [seed & (2**64 - 1), name_key(name)]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        picked = rng.choice(len(pool), size=size, replace=False)
        return tuple(sorted(pool[i] for i in picked))

    vocab = [f"w{i:03d}" for i in range(150)]
    order = np.random.default_rng(4).permutation(len(vocab))
    store = random_gaussian_embedding([vocab[i] for i in order], 3, seed=1)
    for size in (4, 7, 10, 31):
        for seed in (0, 9, -1):
            rc = random_concept(store, size, seed=seed, name="r")
            assert rc.in_vocab == reference(store, size, seed, "r")
