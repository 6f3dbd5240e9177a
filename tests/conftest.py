import warnings

import numpy as np
import pytest

from conceptlearn import EmbeddingStore, random_gaussian_embedding

# To report a failing example, hypothesis's pytest plugin imports its patch
# module, which imports libcst when that is installed; libcst then raises a
# DeprecationWarning from mypy_extensions, which `-W error` turns into a
# pytest INTERNALERROR that hides the example. Import it once here, for
# every property test, with that one third-party warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the plugin skips the patch
        pass


@pytest.fixture(autouse=True)
def vector_cache(tmp_path, monkeypatch):
    """The root of the vector-file cache, one per test, so that no test
    reads or writes the user's cache or another test's entries."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "conceptlearn"


@pytest.fixture
def tiny_store(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0\n")
    return path


@pytest.fixture
def small_store():
    return EmbeddingStore(
        name="small",
        vocabulary=("cat", "dog"),
        vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )


@pytest.fixture
def gaussian_store():
    vocab = [f"w{i:04d}" for i in range(400)]
    return random_gaussian_embedding(vocab, 8, seed=123, name="g400")


def pairwise_auc(scores, labels):
    """Brute-force Mann-Whitney oracle: mean over all pos/neg pairs of
    1[pos > neg] + 0.5 * 1[pos == neg]."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def rows_of(store, words):
    """Vocabulary row indices of `words`, in the given order."""
    return np.array([store.index[w] for w in words], dtype=np.intp)


def words_of(store, rows):
    """The words of vocabulary `rows`, in the given order."""
    return tuple(store.vocabulary[r] for r in rows)


def normalized_copy(store):
    """The float64 copy `normalize` once returned, kept as its oracle: a
    plain store whose rows are float64(x) / norm."""
    norms = np.linalg.norm(np.asarray(store.vectors, dtype=np.float64), axis=1)
    return EmbeddingStore(
        name=store.name, vocabulary=store.vocabulary,
        vectors=store.vectors / norms[:, None],
    )
