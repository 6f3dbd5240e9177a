"""Command-line entry point.

Subcommands: eval, null, compare, gen-random-embedding, expand-wildcards.
Exit codes: 0 success, 1 input error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, replace

from . import report, stats
from .concepts import ConceptError, expand_wildcards, load_concept, resolve
from .embeddings import (
    EmbeddingParseError,
    EmbeddingSourceSpec,
    load_embedding,
    normalize,
    normalized_view,
    open_utf8,
    random_gaussian_embedding,
    save_embedding,
)
from .experiment import (
    ExperimentConfig,
    default_workers,
    run_concept,
    run_null,
)
from .perceptron import TrainConfig
from .stats import wilcoxon_signed_rank

EVAL_FORMATS = {
    "txt": report.eval_report_text,
    "csv": report.eval_report_csv,
    "jsonl": report.eval_report_jsonl,
}


class InputError(Exception):
    """User-facing input problem; maps to exit code 1."""


@dataclass
class RunManifest:
    embeddings: list[tuple[str, EmbeddingSourceSpec]]
    concepts: list[tuple[str, str]]  # (name, path)

    def embedding(self, name: str) -> EmbeddingSourceSpec:
        for n, spec in self.embeddings:
            if n == name:
                return spec
        raise InputError(f"no embedding named {name!r} in manifest")


def load_manifest(path: str) -> RunManifest:
    """Parse a key/value manifest: an [embeddings] section and a [concepts]
    section, each mapping a unique name to a file path. Names keep their
    case and values are taken literally (no '%' interpolation)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open_utf8(path, InputError) as fh:
            parser.read_file(fh)
    except OSError:
        raise InputError(f"cannot read manifest {path!r}") from None
    except configparser.Error as exc:
        raise InputError(str(exc)) from exc
    if "embeddings" not in parser or "concepts" not in parser:
        raise InputError(f"{path}: manifest needs [embeddings] and [concepts] sections")
    embeddings = [
        (name, EmbeddingSourceSpec(path=p, lowercase=True))
        for name, p in parser["embeddings"].items()
    ]
    concepts = list(parser["concepts"].items())
    if not embeddings or not concepts:
        raise InputError(f"{path}: need at least one embedding and one concept")
    return RunManifest(embeddings=embeddings, concepts=concepts)


def validate_manifest(manifest: RunManifest) -> None:
    """Fail fast on unreadable inputs before any training starts."""
    problems = []
    for name, spec in manifest.embeddings:
        if not os.path.isfile(spec.path):
            problems.append(f"embedding {name!r}: no such file {spec.path!r}")
    for name, path in manifest.concepts:
        if not os.path.isfile(path):
            problems.append(f"concept {name!r}: no such file {path!r}")
    if problems:
        raise InputError("; ".join(problems))


def _experiment_config(args) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            iterations=args.iterations,
            random_list_count=args.random_lists,
            random_list_size=args.random_list_size,
            master_seed=args.seed,
            train=TrainConfig(),
            normalize=args.normalize,
            threshold=args.threshold,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_named_embedding(name: str, spec: EmbeddingSourceSpec, cfg):
    """Load a manifest embedding. When cfg says to normalize, its row norms
    are computed once here, so `run_concept` and `run_null` do not each
    redo them; the matrix itself is not copied."""
    store = replace(load_embedding(spec), name=name)
    return normalized_view(store) if cfg.normalize else store


def _evaluate_embedding(manifest: RunManifest, name: str, cfg, workers: int):
    """Load one manifest embedding and run every manifest concept on it."""
    store = _load_named_embedding(name, manifest.embedding(name), cfg)
    resolved = [resolve(load_concept(path, c), store) for c, path in manifest.concepts]
    return store, [run_concept(store, rc, cfg, workers=workers) for rc in resolved]


def _write(outdir: str, filename: str, text: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest)
    cfg = _experiment_config(args)
    formats = args.format.split(",")
    for fmt in formats:
        if fmt not in EVAL_FORMATS:
            raise InputError(
                f"unknown format {fmt!r} (choose from {','.join(EVAL_FORMATS)})"
            )
    for name, _ in manifest.embeddings:
        store, aggregates = _evaluate_embedding(manifest, name, cfg, args.workers)
        null = run_null(store, cfg, workers=args.workers)
        del store  # free this matrix before the next embedding loads
        for fmt, render in EVAL_FORMATS.items():
            if fmt in formats:
                _write(args.out, f"{name}-eval.{fmt}", render(name, aggregates, null, cfg))
    return 0


def cmd_null(args) -> int:
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest)
    cfg = _experiment_config(args)
    names = [n for n, _ in manifest.embeddings]
    name = args.embedding or names[0]
    store = _load_named_embedding(name, manifest.embedding(name), cfg)
    null = run_null(store, cfg, workers=args.workers)
    _write(args.out, f"{name}-null.txt", report.null_report_text(name, null, cfg))
    _write(args.out, f"{name}-null.jsonl", report.null_report_jsonl(name, null, cfg))
    return 0


def cmd_compare(args) -> int:
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest)
    cfg = _experiment_config(args)
    aucs = {}
    for name in (args.embedding_a, args.embedding_b):
        # only the aggregates are kept, so the first matrix is freed before
        # the second loads
        aggregates = _evaluate_embedding(manifest, name, cfg, args.workers)[1]
        aucs[name] = {agg.concept_name: agg.means["auc"] for agg in aggregates}
    names = [n for n, _ in manifest.concepts]
    a = [aucs[args.embedding_a][n] for n in names]
    b = [aucs[args.embedding_b][n] for n in names]
    outcome, note = compare_outcome(a, b, args.alternative)
    text = report.compare_report_text(
        args.embedding_a, args.embedding_b, names,
        aucs[args.embedding_a], aucs[args.embedding_b], outcome, cfg, note,
    )
    _write(args.out, f"compare-{args.embedding_a}-{args.embedding_b}.txt", text)
    sys.stdout.write(text)
    return 0


def compare_outcome(aucs_a, aucs_b, alternative: str):
    """Wilcoxon outcome for two paired AUC vectors, or None when every pair
    is tied. Attaches the published-comparison caveat when the inputs are the
    known published 3-decimal columns."""
    a = [round(v, 10) for v in aucs_a]
    b = [round(v, 10) for v in aucs_b]
    note = ""
    rounded = (tuple(round(v, 3) for v in a), tuple(round(v, 3) for v in b))
    published = (stats.PUBLISHED_GLOVE_AUCS, stats.PUBLISHED_FASTTEXT_AUCS)
    if rounded in (published, published[::-1]):
        note = stats.REFERENCE_COMPARISON_NOTE
    if a == b:
        return None, note
    outcome = wilcoxon_signed_rank(a, b, alternative=alternative)
    return outcome, note


def _read_lines(path: str) -> list[str]:
    """Lines of a UTF-8 word list; a byte-order mark is dropped."""
    with open_utf8(path, InputError) as fh:
        return fh.readlines()


def cmd_gen_random_embedding(args) -> int:
    if args.vocab:
        vocab = [w.strip().lower() for w in _read_lines(args.vocab) if w.strip()]
        vocab = list(dict.fromkeys(vocab))
    else:
        width = len(str(args.words - 1))
        vocab = [f"w{i:0{width}d}" for i in range(args.words)]
    try:
        store = random_gaussian_embedding(vocab, args.dim, args.seed, name="gaussian")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.normalize:
        store = normalize(store)
    save_embedding(store, args.out_file)
    return 0


def cmd_expand_wildcards(args) -> int:
    spec = EmbeddingSourceSpec(path=args.embedding_file, lowercase=True)
    store = load_embedding(spec)
    entries = [
        line.strip() for line in _read_lines(args.list_file)
        if line.strip() and not line.strip().startswith("#")
    ]
    expanded = expand_wildcards(entries, store.vocabulary)
    if not expanded:
        raise InputError(f"{args.list_file}: expansion produced no words")
    out = "\n".join(expanded) + "\n"
    if args.out_file:
        with open(args.out_file, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conceptlearn",
        description="Measure how well word embeddings capture word-list concepts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--iterations", type=int, default=1000)
        p.add_argument("--normalize", action="store_true",
                       help="unit-normalize vectors before training")
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--random-lists", type=int, default=1000)
        p.add_argument("--random-list-size", type=int, default=400)
        p.add_argument("--workers", type=int, default=default_workers())
        p.add_argument("--out", default="runs/latest")

    p_eval = sub.add_parser("eval", help="evaluate every (embedding, concept) pair")
    p_eval.add_argument("manifest")
    common(p_eval)
    p_eval.add_argument("--format", default="txt,csv,jsonl",
                        help="comma-separated subset of txt,csv,jsonl")
    p_eval.set_defaults(func=cmd_eval)

    p_null = sub.add_parser("null", help="random-list null distribution only")
    p_null.add_argument("manifest")
    common(p_null)
    p_null.add_argument("--embedding", help="manifest embedding name (default: first)")
    p_null.set_defaults(func=cmd_null)

    p_cmp = sub.add_parser("compare", help="paired signed-rank comparison of two embeddings")
    p_cmp.add_argument("manifest")
    p_cmp.add_argument("embedding_a")
    p_cmp.add_argument("embedding_b")
    common(p_cmp)
    p_cmp.add_argument("--alternative", default="two-sided",
                       choices=["greater", "less", "two-sided"])
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-random-embedding",
                           help="write a Gaussian N(0,1) embedding file")
    p_gen.add_argument("out_file")
    p_gen.add_argument("--words", type=int, default=10000)
    p_gen.add_argument("--vocab", help="one word per line; overrides --words")
    p_gen.add_argument("--dim", type=int, default=300)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--normalize", action="store_true")
    p_gen.set_defaults(func=cmd_gen_random_embedding)

    p_exp = sub.add_parser("expand-wildcards",
                           help="expand trailing-* stems against an embedding vocabulary")
    p_exp.add_argument("list_file")
    p_exp.add_argument("embedding_file")
    p_exp.add_argument("--out", dest="out_file")
    p_exp.set_defaults(func=cmd_expand_wildcards)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, EmbeddingParseError, ConceptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
