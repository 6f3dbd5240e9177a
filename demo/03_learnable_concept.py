"""A concept an embedding actually encodes.

Concept words are shifted along the first axis (N(3*e1, I)) while the rest
of the vocabulary is N(0, I). A linear classifier trained on half the
concept recovers the other half almost perfectly; the analytic optimum for
this geometry is an AUC of about 0.983.
"""

import numpy as np

from conceptlearn import (
    Concept,
    EmbeddingStore,
    ExperimentConfig,
    TrainConfig,
    resolve,
    run_concept,
)

rng = np.random.default_rng(7)
d = 10
concept_words = tuple(f"concept{i:03d}" for i in range(200))
background = tuple(f"filler{i:04d}" for i in range(2400))
vectors = np.vstack([
    rng.normal(size=(len(concept_words), d)) + 3.0 * np.eye(d)[0],
    rng.normal(size=(len(background), d)),
])
store = EmbeddingStore(
    name="separable", vocabulary=concept_words + background, vectors=vectors
)

rc = resolve(Concept(name="axis-shifted", words=frozenset(concept_words)), store)
cfg = ExperimentConfig(iterations=100, master_seed=0, train=TrainConfig())
agg = run_concept(store, rc, cfg)

for name in ("accuracy", "recall", "fpr", "precision", "auc"):
    print(f"{name:>10}: {agg.means[name]:.3f} (sd {agg.stds[name]:.3f})")
print("\nmean AUC approaches the analytic optimum of ~0.983")
