"""Load a vector file, normalize it, and resolve a word list against it.

Writes a tiny embedding file to a temp directory so the demo is
self-contained; swap in a real GloVe/word2vec/fastText text file to use
your own vectors.
"""

import tempfile
from pathlib import Path

import numpy as np

from conceptlearn import (
    Concept,
    EmbeddingSourceSpec,
    load_embedding,
    normalize,
    resolve,
)

workdir = Path(tempfile.mkdtemp(prefix="conceptlearn-demo-"))

vectors = workdir / "vectors.txt"
vectors.write_text(
    "mom 0.9 0.1 0.0\n"
    "brother 0.8 0.2 0.1\n"
    "cousin 0.7 0.1 0.2\n"
    "carburetor -0.5 0.9 0.3\n"
    "spreadsheet -0.4 0.8 0.4\n"
    "teapot -0.3 0.7 0.6\n"  # resolve needs 2n + 2 words for an n-word concept
    "glacier -0.6 0.2 0.9\n"
    "violin -0.2 0.5 0.7\n"
    "compass -0.7 0.6 0.1\n"
    "lantern -0.1 0.9 0.5\n"
    "mom 9.0 9.0 9.0\n"  # duplicate: first occurrence wins
)

store = load_embedding(EmbeddingSourceSpec(path=str(vectors), lowercase=True))
print(f"loaded {len(store)} words, dimension {store.dimension}, "
      f"{store.skipped_duplicates} duplicate(s) skipped")
print("mom ->", store.lookup("mom"))
print("zebra ->", store.lookup("zebra"), "(out of vocabulary)")

unit = normalize(store)
print("after normalize, |mom| =", np.linalg.norm(unit.lookup("mom")))

family = Concept(name="family", words=frozenset({"mom", "brother", "cousin", "aunt", "carburetor"}))
resolved = resolve(family, store)
print(f"concept {resolved.concept.name!r}: raw size {resolved.raw_size}, "
      f"resolved size {resolved.size}, dropped {resolved.dropped}")
