"""Seeded input generation for the benchmark workloads.

Everything a workload feeds the program (vector files, word lists,
manifests) is a pure function of (workload, seed, size). The program only
ever sees the generated files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Concept sizes of the acceptance suite's random-embedding baseline.
TABLE_SIZES = (392, 492, 184, 558, 632, 908, 396, 322, 54, 232)

# Planted concept rows are shifted by this much along one fixed axis. With
# 27 training positives in d = 300 the expected held-out AUC is about 0.95.
PLANT_SHIFT = 4.0
DECIMALS = 5


@dataclass(frozen=True)
class Size:
    """Problem size of every workload. `full` is the measured size; `smoke`
    runs the whole pipeline in seconds for the benchmark's own tests."""

    words: int
    dim: int
    eval_sizes: tuple[int, ...]  # first one is the planted concept
    eval_iterations: int
    eval_lists: int
    roundtrip_words: int
    roundtrip_sizes: tuple[int, ...]
    roundtrip_iterations: int
    setup_repeats: int


SIZES = {
    "full": Size(
        words=20000, dim=300,
        eval_sizes=(54, 184, 232), eval_iterations=25, eval_lists=10,
        roundtrip_words=6000, roundtrip_sizes=TABLE_SIZES, roundtrip_iterations=5,
        setup_repeats=3,
    ),
    "smoke": Size(
        words=1200, dim=24,
        eval_sizes=(20, 30, 40), eval_iterations=4, eval_lists=3,
        roundtrip_words=1000, roundtrip_sizes=(20, 24, 30, 36, 40),
        roundtrip_iterations=3,
        setup_repeats=2,
    ),
}


def vocabulary(words: int) -> tuple[str, ...]:
    """The same word names `gen-random-embedding --words` writes."""
    width = len(str(words - 1))
    return tuple(f"w{i:0{width}d}" for i in range(words))


def write_vectors(path: str, vocab, mat: np.ndarray) -> None:
    """Write `word v1 ... vd` lines with fixed-width `+DD.DDDDD` values.

    Vectorized so that generating a 20k x 300 input costs well under a
    second; the values written are exactly what the program parses back.
    """
    scale = 10**DECIMALS
    q = np.rint(np.asarray(mat, dtype=np.float64) * scale).astype(np.int64)
    whole, frac = np.divmod(np.abs(q), scale)
    if whole.max(initial=0) >= 100:
        raise ValueError("vector component out of the writable range (|x| < 100)")
    cells = np.empty(q.shape + (5 + DECIMALS,), dtype=np.uint8)
    cells[..., 0] = ord(" ")
    cells[..., 1] = np.where(q < 0, ord("-"), ord("+"))
    cells[..., 2] = whole // 10 + ord("0")
    cells[..., 3] = whole % 10 + ord("0")
    cells[..., 4] = ord(".")
    for k in range(DECIMALS):
        cells[..., 5 + k] = frac // 10 ** (DECIMALS - 1 - k) % 10 + ord("0")
    rows = cells.reshape(len(vocab), -1)
    with open(path, "wb") as fh:
        for word, row in zip(vocab, rows):
            fh.write(word.encode("utf-8") + row.tobytes() + b"\n")


def write_words(path: str, words) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(sorted(words)) + "\n")


def write_manifest(path: str, embeddings: dict, concepts: dict) -> None:
    lines = ["[embeddings]"] + [f"{k} = {v}" for k, v in embeddings.items()]
    lines += ["", "[concepts]"] + [f"{k} = {v}" for k, v in concepts.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _word_lists(rng, vocab, sizes):
    """Disjoint random word lists of the given sizes."""
    order = rng.permutation(len(vocab))
    lists, start = [], 0
    for n in sizes:
        lists.append([vocab[i] for i in order[start:start + n]])
        start += n
    return lists


@dataclass(frozen=True)
class Inputs:
    manifest: str
    embeddings: dict  # manifest name -> path
    concepts: dict  # manifest name -> path
    planted: str | None  # name of the planted concept, if any
    gen_seed: int | None  # seed for the CLI's own generator (roundtrip)


def make_inputs(workload: str, seed: int, size: Size, workdir: str) -> Inputs:
    """Generate the workload's files under `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    vocab = vocabulary(size.roundtrip_words if workload == "roundtrip" else size.words)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    mat = rng.standard_normal((len(vocab), size.dim))

    def path(name):
        return os.path.join(workdir, name)

    planted = None
    gen_seed = None
    if workload == "eval-small":
        lists = _word_lists(rng, vocab, size.eval_sizes)
        planted = f"planted{size.eval_sizes[0]}"
        names = [planted] + [f"random{n}" for n in size.eval_sizes[1:]]
        rows = [int(w[1:]) for w in lists[0]]
        mat[rows, 0] += PLANT_SHIFT
        embeddings = {"gauss": path("gauss.txt")}
    elif workload == "roundtrip":
        lists = _word_lists(rng, vocab, size.roundtrip_sizes)
        names = [f"list{n}" for n in size.roundtrip_sizes]
        embeddings = {"base": path("base.txt"), "fresh": path("fresh.txt")}
        gen_seed = int(rng.integers(2**31))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    first = next(iter(embeddings.values()))
    write_vectors(first, vocab, mat)
    concepts = {}
    for name, words in zip(names, lists):
        concepts[name] = path(f"{name}.txt")
        write_words(concepts[name], words)
    manifest = path("run.ini")
    write_manifest(manifest, embeddings, concepts)
    return Inputs(manifest, embeddings, concepts, planted, gen_seed)
