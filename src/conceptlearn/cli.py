"""Command-line entry point.

Subcommands: eval, null, compare, gen-random-embedding, expand-wildcards.
Exit codes: 0 success, 1 input error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass

from . import report, stats
from .concepts import (
    ConceptError, check_vocabulary_size, expand_wildcards, load_concept, resolve,
)
from .embeddings import (
    EmbeddingParseError,
    EmbeddingSourceSpec,
    load_cached,
    normalize,
    open_utf8,
    random_gaussian_embedding,
    save_embedding,
)
from .experiment import ExperimentConfig, default_workers, run_embedding
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
    case and values are taken literally (no '%' interpolation). An embedding
    name, part of its report file names, may hold no path separator."""
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
    for name, _ in embeddings:
        if {"/", os.sep, os.altsep} & set(name):
            raise InputError(f"{path}: embedding name {name!r} holds a path separator")
    return RunManifest(embeddings=embeddings, concepts=concepts)


def validate_manifest(manifest: RunManifest) -> None:
    """Fail fast on unreadable inputs before any training starts."""
    entries = [(f"embedding {name!r}", spec.path) for name, spec in manifest.embeddings]
    entries += [(f"concept {name!r}", path) for name, path in manifest.concepts]
    problems = [
        f"{entry}: {_file_problem(path) or f'no such file {path!r}'}"
        for entry, path in entries
        if not os.path.isfile(path)
    ]
    if problems:
        raise InputError("; ".join(problems))


def _command_inputs(args) -> tuple[RunManifest, ExperimentConfig]:
    """The checked manifest and config of `eval`, `null` and `compare`."""
    manifest = load_manifest(args.manifest)
    validate_manifest(manifest)
    if args.workers < 1:
        raise InputError("--workers must be >= 1")
    try:
        cfg = ExperimentConfig(
            iterations=args.iterations,
            random_list_count=args.random_lists,
            random_list_size=args.random_list_size,
            master_seed=args.seed,
            normalize=args.normalize,
            threshold=args.threshold,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return manifest, cfg


def _make_outdir(path: str) -> None:
    """Create the report directory: the last check before the first load."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out {path}: {exc.strerror}") from None


def _file_problem(path: str) -> str | None:
    """Why `path` cannot name a file, input or output: it is a directory or
    its parent is not one. None if neither."""
    if os.path.isdir(path):
        return f"{path}: Is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"{path}: no directory {parent}"
    return None


def _check_file(path: str) -> None:
    """Refuse, before any load or draw, a file argument that
    `_file_problem` refuses."""
    problem = _file_problem(path)
    if problem:
        raise InputError(problem)


def _prepare(spec: EmbeddingSourceSpec, cfg, concepts=(), null: bool = True):
    """Load an embedding through the vector-file cache, normalized as asked,
    resolve `concepts` (read once per command, before the first load)
    against it and, with `null`, check the random list size: every input
    error that depends on the embedding's vocabulary."""
    store = load_cached(spec)
    if cfg.normalize:  # run_embedding's own normalize is then a no-op
        try:
            store = normalize(store)
        except ValueError as exc:
            raise InputError(f"{spec.path}: {exc}") from None
    resolved = [resolve(c, store) for c in concepts]
    if null:
        check_vocabulary_size(cfg.random_list_size, len(store))
    return store, resolved


def _preflight(specs, cfg, concepts, null: bool = True) -> None:
    """Before the first fit, `_prepare` each of `specs` (the embeddings after
    a command's first) and free it before the next load, so a bad later
    embedding fails before any fit. A miss writes the cache entry that the
    command's own load of the file then hits."""
    for spec in specs:
        _prepare(spec, cfg, concepts, null)


def _run_embedding(spec: EmbeddingSourceSpec, cfg, workers: int, concepts=(),
                   null: bool = True):
    """`_prepare` an embedding and run `concepts` and the null, as asked, as
    one task list. The matrix is freed on return, before the next loads."""
    store, resolved = _prepare(spec, cfg, concepts, null)
    return run_embedding(store, cfg, resolved, null=null, workers=workers)


def _write(outdir: str, filename: str, text: str) -> None:
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    manifest, cfg = _command_inputs(args)
    formats = args.format.split(",")
    for fmt in formats:
        if fmt not in EVAL_FORMATS:
            raise InputError(
                f"unknown format {fmt!r} (choose from {','.join(EVAL_FORMATS)})"
            )
    concepts = [load_concept(path, c) for c, path in manifest.concepts]
    _make_outdir(args.out)
    _preflight([spec for _, spec in manifest.embeddings[1:]], cfg, concepts)
    for name, spec in manifest.embeddings:
        aggregates, null = _run_embedding(spec, cfg, args.workers, concepts)
        for fmt, render in EVAL_FORMATS.items():
            if fmt in formats:
                _write(args.out, f"{name}-eval.{fmt}", render(name, aggregates, null, cfg))
    return 0


def cmd_null(args) -> int:
    manifest, cfg = _command_inputs(args)
    name = args.embedding or manifest.embeddings[0][0]
    spec = manifest.embedding(name)
    _make_outdir(args.out)
    _, null = _run_embedding(spec, cfg, args.workers)
    _write(args.out, f"{name}-null.txt", report.null_report_text(name, null, cfg))
    _write(args.out, f"{name}-null.jsonl", report.null_report_jsonl(name, null, cfg))
    return 0


def cmd_compare(args) -> int:
    manifest, cfg = _command_inputs(args)
    pair = [(n, manifest.embedding(n)) for n in (args.embedding_a, args.embedding_b)]
    if len(manifest.concepts) < 2:
        raise InputError(f"{args.manifest}: compare needs at least 2 concepts, "
                         f"got {len(manifest.concepts)}")
    concepts = [load_concept(path, c) for c, path in manifest.concepts]
    _make_outdir(args.out)
    _preflight([pair[1][1]], cfg, concepts, null=False)
    aucs = {}
    for name, spec in pair:
        aggregates, _ = _run_embedding(spec, cfg, args.workers, concepts, null=False)
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


def cmd_gen_random_embedding(args) -> int:
    _check_file(args.out_file)
    if args.vocab:
        _check_file(args.vocab)
        # not a word list: a `#` line is a word
        with open_utf8(args.vocab, InputError) as fh:
            lines = fh.readlines()
        for lineno, line in enumerate(lines, start=1):
            if len(line.split()) > 1:  # split as the vector-file loader splits
                raise InputError(f"{args.vocab}:{lineno}: word {line.strip()!r} "
                                 "contains whitespace")
        vocab = [w.strip().lower() for w in lines if w.strip()]
        vocab = list(dict.fromkeys(vocab))
    else:
        width = len(str(args.words - 1))
        vocab = [f"w{i:0{width}d}" for i in range(args.words)]
    try:
        store = random_gaussian_embedding(vocab, args.dim, args.seed, name="gaussian")
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    save_embedding(normalize(store) if args.normalize else store, args.out_file)
    return 0


def cmd_expand_wildcards(args) -> int:
    _check_file(args.list_file)
    _check_file(args.embedding_file)
    if args.out_file:
        _check_file(args.out_file)
    spec = EmbeddingSourceSpec(path=args.embedding_file, lowercase=True)
    store = load_cached(spec)
    expanded = expand_wildcards(args.list_file, store.vocabulary)
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

    defaults = ExperimentConfig()

    def common(p):
        p.add_argument("--seed", type=int, default=defaults.master_seed)
        p.add_argument("--iterations", type=int, default=defaults.iterations)
        p.add_argument("--normalize", action="store_true",
                       help="unit-normalize vectors before training")
        p.add_argument("--threshold", type=float, default=defaults.threshold)
        p.add_argument("--random-lists", type=int, default=defaults.random_list_count)
        p.add_argument("--random-list-size", type=int, default=defaults.random_list_size)
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
