"""Command-line entry point.

Subcommands: eval, null, compare, gen-random-embedding, expand-wildcards.
Exit codes: 0 success, 1 input error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import errno
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
    EmbeddingStore,
    gaussian_blocks,
    load_cached,
    normalize,
    open_utf8,
    write_rows,
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
    problems = []
    for entry, path in entries:
        if not os.path.isfile(path):  # a FIFO or a device exists, yet is no file
            kind = "not a regular file" if os.path.exists(path) else "no such file"
            problems.append(f"{entry}: {_file_problem(path) or f'{kind} {path!r}'}")
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


def _check_outdir(path: str, filenames) -> None:
    """Refuse a report directory that `os.makedirs` could not create, for
    want of a directory or of permission, and a report a command could not
    write there: the last checks before the first load. `_runs` creates the
    directory after the last input check."""
    target = head = path.rstrip(os.sep) or os.sep  # `out/` names `out`
    while not os.path.lexists(head):  # the deepest part of it that exists
        head = os.path.dirname(head) or "."
    if not os.path.isdir(head):
        code = errno.EEXIST if head == target else errno.ENOTDIR
        raise InputError(f"--out {path}: {os.strerror(code)}")
    if head != target and not os.access(head, os.W_OK | os.X_OK):
        raise InputError(f"--out {path}: {os.strerror(errno.EACCES)}")
    for name in filenames if head == target else ():  # a new one holds none
        _check_file(os.path.join(path, name))


def _make_outdir(path: str) -> None:
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


def _runs(specs, cfg, workers: int, out: str, concepts=(), null: bool = True):
    """The check-then-run sequence of `eval`, `null` and `compare`, after each
    command's own checks: `_prepare` every embedding after the first and free
    it, so an input error of a later embedding fails before the first fit
    (its cache miss writes the entry the run then hits); then `_prepare` each
    of `specs` in turn, create the report directory `out` once the first has
    passed its checks, and yield its `run_embedding` of `concepts` and, with
    `null`, the null. So an input error leaves no `out` behind, and no
    matrix is held during the next load."""
    for spec in specs[1:]:
        _prepare(spec, cfg, concepts, null)
    for spec in specs:
        store, resolved = _prepare(spec, cfg, concepts, null)
        _make_outdir(out)
        run = run_embedding(store, cfg, resolved, null=null, workers=workers)
        del store, resolved  # not held while the caller's next load runs
        yield run


def _write(outdir: str, filename: str, text: str) -> None:
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    manifest, cfg = _command_inputs(args)
    requested = args.format.split(",")
    for fmt in requested:
        if fmt not in EVAL_FORMATS:
            raise InputError(
                f"unknown format {fmt!r} (choose from {','.join(EVAL_FORMATS)})"
            )
    formats = [fmt for fmt in EVAL_FORMATS if fmt in requested]
    concepts = [load_concept(path, c) for c, path in manifest.concepts]
    names, specs = zip(*manifest.embeddings)
    _check_outdir(args.out, [f"{name}-eval.{fmt}" for name in names for fmt in formats])
    runs = _runs(specs, cfg, args.workers, args.out, concepts)
    for name, (aggregates, null) in zip(names, runs):
        for fmt in formats:
            text = EVAL_FORMATS[fmt](name, aggregates, null, cfg)
            _write(args.out, f"{name}-eval.{fmt}", text)
    return 0


def cmd_null(args) -> int:
    manifest, cfg = _command_inputs(args)
    name = args.embedding or manifest.embeddings[0][0]
    spec = manifest.embedding(name)
    _check_outdir(args.out, [f"{name}-null.txt", f"{name}-null.jsonl"])
    [(_, null)] = _runs([spec], cfg, args.workers, args.out)
    _write(args.out, f"{name}-null.txt", report.null_report_text(name, null, cfg))
    _write(args.out, f"{name}-null.jsonl", report.null_report_jsonl(name, null, cfg))
    return 0


def cmd_compare(args) -> int:
    manifest, cfg = _command_inputs(args)
    pair = (args.embedding_a, args.embedding_b)
    specs = [manifest.embedding(n) for n in pair]
    if len(manifest.concepts) < 2:
        raise InputError(f"{args.manifest}: compare needs at least 2 concepts, "
                         f"got {len(manifest.concepts)}")
    concepts = [load_concept(path, c) for c, path in manifest.concepts]
    filename = f"compare-{args.embedding_a}-{args.embedding_b}.txt"
    _check_outdir(args.out, [filename])
    runs = _runs(specs, cfg, args.workers, args.out, concepts, null=False)
    aucs = [  # one {concept: AUC} map per run, in manifest order
        {agg.concept_name: agg.means["auc"] for agg in aggregates}
        for aggregates, _ in runs
    ]
    outcome, note = compare_outcome(*(list(m.values()) for m in aucs), args.alternative)
    names = [n for n, _ in manifest.concepts]
    text = report.compare_report_text(*pair, names, *aucs, outcome, cfg, note)
    _write(args.out, filename, text)
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
        blocks = gaussian_blocks(len(vocab), args.dim, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    # one block of rows at a time: a row's norm and its division are
    # row-local, so each block writes the bytes of the whole store
    fh = open(args.out_file, "w", encoding="utf-8")
    try:
        with fh:
            for start, block in blocks:
                words = tuple(vocab[start : start + len(block)])
                store = EmbeddingStore(name="gaussian", vocabulary=words, vectors=block)
                write_rows(normalize(store) if args.normalize else store, fh)
    except BaseException:
        if os.path.isfile(args.out_file):  # the partial file, not a device
            os.unlink(args.out_file)
        raise
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
