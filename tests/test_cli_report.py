import csv
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conceptlearn import (
    METRIC_NAMES,
    ExperimentConfig,
    NullDistribution,
    TrainConfig,
    load_concept,
    normalize,
    random_concept,
    random_gaussian_embedding,
    resolve,
    run_concept,
    run_null,
    save_embedding,
    wilcoxon_signed_rank,
)
from conceptlearn import report
from conceptlearn.cli import build_parser, compare_outcome, load_manifest, main
from conceptlearn.stats import (
    PUBLISHED_FASTTEXT_AUCS,
    PUBLISHED_GLOVE_AUCS,
    REFERENCE_COMPARISON_NOTE,
)


@pytest.fixture
def workspace(tmp_path):
    """Small embedding file plus two concept lists and a manifest."""
    emb = tmp_path / "emb.txt"
    store = random_gaussian_embedding([f"w{i:03d}" for i in range(120)], 6, seed=1)
    lines = [
        w + " " + " ".join(f"{v:.9g}" for v in row)
        for w, row in zip(store.vocabulary, store.vectors)
    ]
    emb.write_text("\n".join(lines) + "\n")
    ca = tmp_path / "ca.txt"
    ca.write_text("\n".join(store.vocabulary[:10]) + "\n")
    cb = tmp_path / "cb.txt"
    cb.write_text("\n".join(store.vocabulary[50:58]) + "\n")
    manifest = tmp_path / "run.ini"
    manifest.write_text(
        f"[embeddings]\ngauss = {emb}\n\n[concepts]\nalpha = {ca}\nbeta = {cb}\n"
    )
    return tmp_path, manifest


def quick_args(out):
    return [
        "--seed", "3", "--iterations", "4", "--random-lists", "3",
        "--random-list-size", "6", "--workers", "1", "--out", str(out),
    ]


@pytest.mark.parametrize("names", [["eval"], ["null"], ["compare", "gauss", "gauss"]])
def test_a_command_without_flags_runs_the_default_config(workspace, names):
    from conceptlearn import cli

    _, manifest = workspace
    args = build_parser().parse_args([names[0], str(manifest), *names[1:]])
    assert cli._command_inputs(args)[1] == ExperimentConfig()


def test_manifest_parsing(workspace):
    _, manifest = workspace
    m = load_manifest(str(manifest))
    assert [n for n, _ in m.embeddings] == ["gauss"]
    assert [n for n, _ in m.concepts] == ["alpha", "beta"]


def test_eval_writes_reports_with_expected_shape(workspace, tmp_path):
    ws, manifest = workspace
    out = tmp_path / "out"
    assert main(["eval", str(manifest)] + quick_args(out)) == 0
    text = (out / "gauss-eval.txt").read_text()
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    # header + rule + 2 concepts + random(max) + random(avg)
    assert len(body) == 6
    assert "random(max)" in text and "random(avg)" in text
    assert "seed = 3" in text
    csv = (out / "gauss-eval.csv").read_text()
    assert csv.count("\n") >= 4
    records = [
        json.loads(l) for l in (out / "gauss-eval.jsonl").read_text().splitlines()
    ]
    kinds = [r["record"] for r in records]
    assert kinds == ["config", "concept", "concept", "random_max", "random_avg"]


def test_eval_format_parity(workspace, tmp_path):
    ws, manifest = workspace
    out = tmp_path / "out"
    main(["eval", str(manifest)] + quick_args(out))
    csv_lines = [
        l for l in (out / "gauss-eval.csv").read_text().splitlines()
        if l and not l.startswith("#") and not l.startswith("list,")
    ]
    records = [
        json.loads(l) for l in (out / "gauss-eval.jsonl").read_text().splitlines()
    ]
    by_name = {r.get("name"): r for r in records if r["record"] == "concept"}
    for line in csv_lines[:2]:
        cells = line.split(",")
        means = by_name[cells[0]]["means"]
        for value, key in zip(cells[2:7], ("accuracy", "recall", "fpr", "precision", "auc")):
            assert value == f"{means[key]:.3f}"


def test_a_csv_report_quotes_a_concept_name_holding_a_comma_or_a_quote(
    workspace, tmp_path
):
    ws, _ = workspace
    m = ws / "quoted.ini"
    m.write_text(
        f"[embeddings]\ngauss = {ws / 'emb.txt'}\n"
        f"[concepts]\nfoo,bar = {ws / 'ca.txt'}\n\"q\" = {ws / 'cb.txt'}\n"
    )
    out = tmp_path / "o"
    assert main(["eval", str(m), "--format", "csv"] + quick_args(out)) == 0
    with open(out / "gauss-eval.csv", newline="") as f:
        rows = list(csv.reader(l for l in f if not l.startswith("#")))
    assert [len(r) for r in rows] == [8] * 5
    assert [r[0] for r in rows] == ["list", "foo,bar", '"q"', "random(max)", "random(avg)"]


def test_eval_reruns_byte_identical(workspace, tmp_path):
    ws, manifest = workspace
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["eval", str(manifest)] + quick_args(out1))
    main(["eval", str(manifest)] + quick_args(out2))
    for name in ("gauss-eval.txt", "gauss-eval.csv", "gauss-eval.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eval_normalizes_once_per_embedding(workspace, tmp_path, monkeypatch):
    """`--normalize` trains every fit on the loaded matrix itself, divided by
    one set of row norms per command: zero matrix copies."""
    from conceptlearn import cli, embeddings, experiment

    ws, manifest = workspace
    gamma = ws / "cg.txt"
    gamma.write_text("\n".join(f"w{i:03d}" for i in range(80, 90)) + "\n")
    three = ws / "three.ini"
    three.write_text(manifest.read_text() + f"gamma = {gamma}\n")
    loaded, read = [], []

    def tracking_load(spec):
        store = embeddings.load_cached(spec)
        loaded.append(store.vectors)
        return store

    monkeypatch.setattr(cli, "load_cached", tracking_load)
    for attr in ("train", "train_many", "score"):
        def spy(first, store, *rest, _fn=getattr(experiment, attr)):
            read.append((store.vectors, store.norms))
            return _fn(first, store, *rest)

        monkeypatch.setattr(experiment, attr, spy)
    out = tmp_path / "out"
    for command in ("eval", "null"):
        read.clear()
        assert main([command, str(three), "--normalize"] + quick_args(out)) == 0
        assert read and all(vectors is loaded[-1] for vectors, _ in read)
        assert len({id(norms) for _, norms in read}) == 1
        assert read[0][1] is not None
    assert len(loaded) == 2

    # the reports equal those of the library normalizing inside every call
    spec = embeddings.EmbeddingSourceSpec(path=str(ws / "emb.txt"), lowercase=True)
    raw = replace(embeddings.load_embedding(spec), name="gauss")
    cfg = ExperimentConfig(
        iterations=4, random_list_count=3, random_list_size=6, master_seed=3,
        normalize=True,
    )
    aggregates = [
        run_concept(raw, resolve(load_concept(str(path), name), raw), cfg)
        for name, path in (("alpha", ws / "ca.txt"), ("beta", ws / "cb.txt"),
                           ("gamma", gamma))
    ]
    null = run_null(raw, cfg)
    assert (out / "gauss-eval.jsonl").read_text() == report.eval_report_jsonl(
        "gauss", aggregates, null, cfg
    )
    assert (out / "gauss-null.jsonl").read_text() == report.null_report_jsonl(
        "gauss", null, cfg
    )


@pytest.mark.parametrize("command", ["eval", "compare", "null"])
@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_each_embedding_is_freed_before_the_next_loads(
    workspace, tmp_path, monkeypatch, command, normalize
):
    from conceptlearn import cli, embeddings

    ws, manifest = workspace
    second = ws / "emb2.txt"
    second.write_text((ws / "emb.txt").read_text())
    two = ws / "two.ini"
    two.write_text(manifest.read_text().replace(
        "[concepts]", f"other = {second}\n\n[concepts]"
    ))
    matrices, alive = [], []

    def tracking_load(spec):
        alive.append(sum(ref() is not None for ref in matrices))
        store = embeddings.load_cached(spec)
        matrices.append(weakref.ref(store.vectors))
        return store

    monkeypatch.setattr(cli, "load_cached", tracking_load)
    names = ["gauss", "other"] if command == "compare" else []
    argv = [command, str(two), *names] + quick_args(tmp_path / "out") + normalize
    assert main(argv) == 0
    if command == "null":  # one embedding, so no preflight: one load
        assert alive == [0]
    else:  # the preflight load of `other`, then both runs
        assert alive == [0, 0, 0]


@pytest.mark.parametrize("flags, passes", [([], 1), (["--normalize"], 1)])
def test_a_cli_load_checks_the_matrix_once_per_store(
    workspace, tmp_path, monkeypatch, flags, passes
):
    """The store's constructor checks the loaded matrix for non-finite
    values, on a cache miss and on a hit, and `normalize` reuses the checked
    matrix."""
    from conceptlearn import embeddings

    calls = []

    def spy(mat, _fn=embeddings._first_nonfinite_row):
        calls.append(mat.shape)
        return _fn(mat)

    monkeypatch.setattr(embeddings, "_first_nonfinite_row", spy)
    _, manifest = workspace
    for run in ("miss", "hit"):
        calls.clear()
        out = tmp_path / run
        assert main(["null", str(manifest)] + quick_args(out) + flags) == 0
        assert calls == [(120, 6)] * passes


@pytest.fixture
def two_embeddings(workspace):
    """The workspace manifest plus a second embedding, `other`, of the same
    words."""
    ws, manifest = workspace
    store = random_gaussian_embedding([f"w{i:03d}" for i in range(120)], 5, seed=2)
    (ws / "other.txt").write_text("".join(
        w + " " + " ".join(f"{v:.9g}" for v in row) + "\n"
        for w, row in zip(store.vocabulary, store.vectors)
    ))
    two = ws / "two-embeddings.ini"
    two.write_text(manifest.read_text().replace(
        "[concepts]", f"other = {ws / 'other.txt'}\n\n[concepts]"
    ))
    return two


@pytest.mark.parametrize("command, loads", [("eval", 2), ("null", 1), ("compare", 2)])
def test_one_pool_per_loaded_embedding_and_the_same_reports_at_any_worker_count(
    two_embeddings, tmp_path, monkeypatch, command, loads
):
    """Concepts and null lists of an embedding share one worker pool, no
    larger than its task list, and the reports do not depend on the worker
    count."""
    from concurrent.futures import ProcessPoolExecutor

    from conceptlearn import experiment

    # tasks per embedding: one per list, a concept or a null list (at d <= 6
    # a list's 4 iterations hold far less than a task's training bytes)
    tasks = {"eval": 2 + 3, "null": 3, "compare": 2}[command]

    pools = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
    names = ["gauss", "other"] if command == "compare" else []
    reports = {}
    for workers in (1, 2, 3):
        pools.clear()
        out = tmp_path / f"w{workers}"
        argv = [command, str(two_embeddings), *names] + quick_args(out)
        assert main(argv + ["--workers", str(workers)]) == 0
        assert pools == ([] if workers == 1 else [min(workers, tasks)] * loads)
        reports[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert reports[1] and reports[2] == reports[1] and reports[3] == reports[1]


def test_eval_reports_survive_a_header_workers_a_task_cut_and_a_save(
    workspace, tmp_path, monkeypatch
):
    """Eval reports are byte-identical with and without a `V d` header line,
    at 1 and 2 workers, at the default TASK_BYTES and at one of two or
    three fits, and for the vector file that `save_embedding` writes from
    the loaded float32 store, whose headed copy has CRLF line ends: all 16
    combinations."""
    from conceptlearn import experiment
    from conceptlearn.embeddings import EmbeddingSourceSpec, load_embedding

    ws, manifest = workspace
    emb = ws / "emb.txt"
    files = {(False, False): emb}
    saved = ws / "saved.txt"
    save_embedding(load_embedding(EmbeddingSourceSpec(str(emb), lowercase=True)), str(saved))
    files[False, True] = saved
    for source, end in [(emb, "\n"), (saved, "\r\n")]:
        headed = ws / f"headed-{source.name}"
        headed.write_text("120 6\n" + source.read_text(), newline=end)
        files[True, source == saved] = headed
    assert saved.read_bytes() != emb.read_bytes()
    assert files[True, True].read_bytes().count(b"\r\n") == 121
    reports = {}
    for (header, resaved), workers, task_bytes in itertools.product(
        files, ["1", "2"], [experiment.TASK_BYTES, 1000]
    ):
        # 1000 bytes hold 2 training matrices of alpha and beta, 3 of a random list
        monkeypatch.setattr(experiment, "TASK_BYTES", task_bytes)
        m = ws / "m.ini"
        m.write_text(manifest.read_text().replace(str(emb), str(files[header, resaved])))
        out = tmp_path / f"{header}-{resaved}-{workers}-{task_bytes}"
        assert main(["eval", str(m)] + quick_args(out) + ["--workers", workers]) == 0
        reports[out.name] = {p.name: p.read_bytes() for p in out.iterdir()}
    first = next(iter(reports.values()))
    assert len(first) == 3
    assert all(r == first for r in reports.values())


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("normalize", [[], ["--normalize"]])
def test_a_cache_miss_and_hit_write_the_same_reports(
    two_embeddings, tmp_path, monkeypatch, vector_cache, workers, normalize
):
    from conceptlearn import embeddings

    parsed = []

    def spy(*args, _fn=embeddings._parse_block):
        parsed.append(args[1])
        return _fn(*args)

    monkeypatch.setattr(embeddings, "_parse_block", spy)
    for command, names in [("eval", []), ("null", []), ("compare", ["gauss", "other"])]:
        shutil.rmtree(vector_cache, ignore_errors=True)
        reports = {}
        for run in ("miss", "hit"):
            parsed.clear()
            out = tmp_path / f"{command}-{run}"
            argv = [command, str(two_embeddings), *names] + quick_args(out)
            assert main(argv + normalize + ["--workers", workers]) == 0
            assert bool(parsed) == (run == "miss")
            reports[run] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert reports["miss"] and reports["hit"] == reports["miss"]
        entries = 1 if command == "null" else 2  # null loads the first embedding only
        assert len(list(vector_cache.rglob("*.npy"))) == entries


def test_an_unusable_cache_root_loads_uncached(workspace, tmp_path, monkeypatch, capsys):
    _, manifest = workspace
    cached = tmp_path / "cached"
    assert main(["null", str(manifest)] + quick_args(cached)) == 0
    capsys.readouterr()
    not_a_directory = tmp_path / "file"
    not_a_directory.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    out = tmp_path / "uncached"
    assert main(["null", str(manifest)] + quick_args(out)) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: vector cache: cannot write the cache entry of ")
    assert err.count("\n") == 1
    for report in cached.iterdir():
        assert (out / report.name).read_bytes() == report.read_bytes()


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_a_concept_a_later_embedding_lacks_fails_before_any_fit(
    tmp_path, monkeypatch, capsys, command
):
    from conceptlearn import experiment

    def write(path, words, seed):
        store = random_gaussian_embedding(words, 4, seed=seed)
        path.write_text("".join(
            w + " " + " ".join(f"{v:.9g}" for v in row) + "\n"
            for w, row in zip(store.vocabulary, store.vectors)
        ))

    write(tmp_path / "big.txt", [f"w{i:03d}" for i in range(400)], 1)
    write(tmp_path / "small.txt", [f"x{i:02d}" for i in range(50)], 2)
    (tmp_path / "c.txt").write_text("".join(f"w{i:03d}\n" for i in range(30)))
    (tmp_path / "d.txt").write_text("".join(f"w{i:03d}\n" for i in range(30, 60)))
    m = tmp_path / "m.ini"
    m.write_text(f"[embeddings]\nbig = {tmp_path / 'big.txt'}\n"
                 f"small = {tmp_path / 'small.txt'}\n"
                 f"[concepts]\nc = {tmp_path / 'c.txt'}\nd = {tmp_path / 'd.txt'}\n")
    fits = []
    for attr in ("train", "train_many"):
        monkeypatch.setattr(experiment, attr, lambda *a, _n=attr: fits.append(_n))
    names = ["big", "small"] if command == "compare" else []
    argv = [command, str(m), *names] + quick_args(tmp_path / "o")
    assert main(argv + ["--random-list-size", "30"]) == 1
    assert fits == []
    assert capsys.readouterr().err == (
        "error: concept 'c' too small after vocabulary resolution (0 < 4)\n"
    )


def test_a_random_list_a_later_embedding_cannot_hold_fails_before_any_fit(
    two_embeddings, tmp_path, monkeypatch, capsys
):
    from conceptlearn import experiment

    ws = two_embeddings.parent
    (ws / "other.txt").write_text("".join((ws / "other.txt").read_text().splitlines(
        keepends=True
    )[:60]))
    fits = []
    for attr in ("train", "train_many"):
        monkeypatch.setattr(experiment, attr, lambda *a, _n=attr: fits.append(_n))
    argv = ["eval", str(two_embeddings)] + quick_args(tmp_path / "o")
    assert main(argv + ["--random-list-size", "30"]) == 1
    assert fits == []
    assert capsys.readouterr().err == (
        "error: vocabulary of 60 too small for disjoint negatives on a "
        "concept of 30 words\n"
    )


def test_without_fork_a_multi_worker_run_is_serial_and_says_so_once(
    two_embeddings, tmp_path, monkeypatch
):
    import multiprocessing
    import warnings

    from conceptlearn import experiment

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", None)  # never started
    serial, forked = tmp_path / "serial", tmp_path / "forked"
    assert main(["eval", str(two_embeddings)] + quick_args(serial)) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        argv = ["eval", str(two_embeddings)] + quick_args(forked) + ["--workers", "2"]
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == [
        "cannot fork worker processes here; running on 1 worker"
    ]
    for report in serial.iterdir():
        assert (forked / report.name).read_bytes() == report.read_bytes()


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_concept_files_are_read_once_per_command(
    two_embeddings, tmp_path, monkeypatch, command
):
    from conceptlearn import cli

    read = []

    def spy(path, name, _fn=cli.load_concept):
        read.append(path)
        return _fn(path, name)

    monkeypatch.setattr(cli, "load_concept", spy)
    names = ["gauss", "other"] if command == "compare" else []
    argv = [command, str(two_embeddings), *names] + quick_args(tmp_path / "o")
    assert main(argv) == 0
    concepts = load_manifest(str(two_embeddings)).concepts
    assert sorted(read) == sorted(path for _, path in concepts)


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_a_wildcard_list_fails_before_any_embedding_loads(
    two_embeddings, tmp_path, monkeypatch, capsys, command
):
    from conceptlearn import cli

    ws = two_embeddings.parent
    (ws / "cb.txt").write_text("w05*\n")
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    names = ["gauss", "other"] if command == "compare" else []
    argv = [command, str(two_embeddings), *names] + quick_args(tmp_path / "o")
    assert main(argv) == 1
    assert loads == []
    assert "cb.txt:1: wildcard entry 'w05*'" in capsys.readouterr().err


def test_compare_checks_its_names_and_concept_count_before_any_load(
    two_embeddings, tmp_path, monkeypatch, capsys
):
    from conceptlearn import cli

    ws = two_embeddings.parent
    one = ws / "one-concept.ini"
    one.write_text(two_embeddings.read_text().replace(f"beta = {ws / 'cb.txt'}\n", ""))
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    for manifest, names, message in [
        (two_embeddings, ["gauss", "zz"], "no embedding named 'zz' in manifest"),
        (one, ["gauss", "other"], f"{one}: compare needs at least 2 concepts, got 1"),
    ]:
        argv = ["compare", str(manifest), *names] + quick_args(tmp_path / "o")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert loads == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["eval", "null", "compare"])
def test_an_unusable_out_fails_before_any_load(
    two_embeddings, tmp_path, monkeypatch, capsys, command
):
    from conceptlearn import cli

    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    names = ["gauss", "other"] if command == "compare" else []
    assert main([command, str(two_embeddings), *names] + quick_args(out)) == 1
    assert loads == []
    assert capsys.readouterr().err == f"error: --out {out}: File exists\n"


@pytest.mark.parametrize("command, report_name", [
    ("eval", "other-eval.jsonl"), ("null", "gauss-null.jsonl"),
    ("compare", "compare-gauss-other.txt"),
])
def test_a_report_path_that_is_a_directory_fails_before_any_load(
    two_embeddings, tmp_path, monkeypatch, capsys, command, report_name
):
    """The command's last report is a directory: it exits 1 before the
    first load and writes no report."""
    from conceptlearn import cli

    out = tmp_path / "out"
    (out / report_name).mkdir(parents=True)
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    names = ["gauss", "other"] if command == "compare" else []
    assert main([command, str(two_embeddings), *names] + quick_args(out)) == 1
    assert loads == []
    assert capsys.readouterr().err == f"error: {out / report_name}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == [report_name]


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_an_input_error_of_a_later_embedding_leaves_no_out_behind(
    two_embeddings, tmp_path, capsys, command
):
    ws = two_embeddings.parent
    lines = (ws / "other.txt").read_text().splitlines(keepends=True)
    (ws / "other.txt").write_text("".join(lines[8:]))  # alpha keeps w008, w009
    out = tmp_path / "out"
    names = ["gauss", "other"] if command == "compare" else []
    assert main([command, str(two_embeddings), *names] + quick_args(out)) == 1
    assert capsys.readouterr().err == (
        "error: concept 'alpha' too small after vocabulary resolution (2 < 4)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("under, message", [
    ("/out", "Not a directory"), ("/", "File exists"),
])
def test_an_out_under_a_file_fails_before_any_load(
    workspace, tmp_path, monkeypatch, capsys, under, message
):
    """`os.makedirs`' own message for the `--out`, before any load."""
    from conceptlearn import cli

    _, manifest = workspace
    (tmp_path / "taken").write_text("a file, not a directory\n")
    out = f"{tmp_path / 'taken'}{under}"
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    assert main(["eval", str(manifest)] + quick_args(out)) == 1
    assert loads == []
    assert capsys.readouterr().err == f"error: --out {out}: {message}\n"


def test_a_manifest_entry_that_is_not_a_regular_file_is_named_so(
    workspace, tmp_path, capsys
):
    _, manifest = workspace
    pipe = tmp_path / "pipe.txt"
    os.mkfifo(pipe)
    m = tmp_path / "fifo.ini"
    m.write_text(manifest.read_text() + f"c = {pipe}\n")
    assert main(["eval", str(m)] + quick_args(tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: concept 'c': not a regular file {str(pipe)!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "null", "compare"])
def test_a_zero_row_under_normalize_is_an_input_error_before_any_fit(
    two_embeddings, tmp_path, monkeypatch, capsys, command
):
    from conceptlearn import experiment

    ws = two_embeddings.parent
    emb = ws / "emb.txt"
    lines = emb.read_text().splitlines(keepends=True)
    lines[5] = "w005 " + " ".join(["0"] * 6) + "\n"
    emb.write_text("".join(lines))
    fits = []
    monkeypatch.setattr(experiment, "_run_fits", lambda *a: fits.append(a))
    names = ["gauss", "other"] if command == "compare" else []
    argv = [command, str(two_embeddings), *names] + quick_args(tmp_path / "o")
    assert main(argv + ["--normalize"]) == 1
    assert fits == []
    assert capsys.readouterr().err == f"error: {emb}: zero vector for word 'w005'\n"


def test_eval_jsonl_names_the_reported_embedding():
    vocab = [f"w{i:03d}" for i in range(60)]
    store = random_gaussian_embedding(vocab, 4, seed=1, name="y")
    cfg = ExperimentConfig(iterations=2, random_list_count=2, random_list_size=5)
    aggregates = [run_concept(store, random_concept(store, 6, seed=2, name="c"), cfg)]
    text = report.eval_report_jsonl("x", aggregates, run_null(store, cfg), cfg)
    records = [json.loads(line) for line in text.splitlines()]
    named = [r for r in records if "embedding" in r]
    assert [r["record"] for r in named] == ["config", "concept"]
    assert {r["embedding"] for r in named} == {"x"}


def test_eval_fail_fast_on_missing_inputs(tmp_path):
    manifest = tmp_path / "bad.ini"
    manifest.write_text("[embeddings]\ne = /nope/e.txt\n[concepts]\nc = /nope/c.txt\n")
    rc = main(["eval", str(manifest), "--out", str(tmp_path / "o")])
    assert rc == 1


def test_eval_rejects_unknown_format(workspace, tmp_path):
    _, manifest = workspace
    rc = main(
        ["eval", str(manifest), "--format", "xml", "--out", str(tmp_path / "o")]
    )
    assert rc == 1


def test_null_command(workspace, tmp_path):
    _, manifest = workspace
    out = tmp_path / "out"
    assert main(["null", str(manifest)] + quick_args(out)) == 0
    text = (out / "gauss-null.txt").read_text()
    assert "random(max)" in text and "histogram auc" in text
    records = [
        json.loads(l) for l in (out / "gauss-null.jsonl").read_text().splitlines()
    ]
    assert sum(r["record"] == "null_list" for r in records) == 3


def test_a_null_histogram_counts_each_mean_in_the_line_that_holds_it():
    """Means on every k/20, 0 and 1 included: each is counted in the line
    whose printed interval, [lo, hi) or the last, closed one, holds it."""
    values = [k / 20 for k in range(21)]
    per_list = tuple({name: v for name in METRIC_NAMES} for v in values)
    null = NullDistribution(per_list=per_list, max_row=per_list[-1],
                            mean_row=per_list[10], list_size=6)
    text = report.null_report_text("g", null, ExperimentConfig())
    for name in METRIC_NAMES:
        section = text.split(f"histogram {name} ")[1].split("histogram ")[0]
        lines = re.findall(r"  \[([\d.]+), ([\d.]+)([)\]]): (\d+)", section)
        assert len(lines) == 20 and lines[-1][:3] == ("0.95", "1.00", "]")
        for lo, hi, close, count in lines:
            held = [v for v in values
                    if float(lo) <= v < float(hi) or close == "]" and v == float(hi)]
            assert int(count) == len(held)


def test_compare_identical_embedding_reports_indistinguishable(workspace, tmp_path):
    ws, manifest = workspace
    # same embedding under two names
    emb_path = load_manifest(str(manifest)).embeddings[0][1].path
    m2 = ws / "two.ini"
    ca = ws / "ca.txt"
    m2.write_text(
        f"[embeddings]\na = {emb_path}\nb = {emb_path}\n"
        f"[concepts]\nalpha = {ca}\nbeta = {ws / 'cb.txt'}\n"
    )
    out = tmp_path / "out"
    assert main(["compare", str(m2), "a", "b"] + quick_args(out)) == 0
    text = (out / "compare-a-b.txt").read_text()
    assert "indistinguishable" in text


def test_compare_outcome_attaches_published_note():
    outcome, note = compare_outcome(
        list(PUBLISHED_FASTTEXT_AUCS), list(PUBLISHED_GLOVE_AUCS), "greater"
    )
    assert note == REFERENCE_COMPARISON_NOTE
    assert outcome.w_minus == 5.0
    outcome2, note2 = compare_outcome([0.9, 0.8, 0.7], [0.5, 0.6, 0.4], "greater")
    assert note2 == ""


def test_compare_report_text_mean_median_rows():
    cfg = ExperimentConfig(iterations=1, train=TrainConfig(epochs=1))
    names = ["c1", "c2", "c3"]
    a = {"c1": 0.9, "c2": 0.8, "c3": 0.7}
    b = {"c1": 0.6, "c2": 0.85, "c3": 0.65}
    outcome, note = compare_outcome([a[n] for n in names], [b[n] for n in names], "greater")
    text = report.compare_report_text("ea", "eb", names, a, b, outcome, cfg, note)
    assert f"{np.mean([0.9, 0.8, 0.7]):.3f}" in text
    assert f"{np.median([0.6, 0.85, 0.65]):.3f}" in text
    assert "wilcoxon" in text


def test_gen_random_embedding_roundtrip(tmp_path):
    out = tmp_path / "g.txt"
    assert main(
        ["gen-random-embedding", str(out), "--words", "30", "--dim", "4", "--seed", "9"]
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    assert len(lines[0].split()) == 5
    # same seed regenerates identical bytes
    out2 = tmp_path / "g2.txt"
    main(["gen-random-embedding", str(out2), "--words", "30", "--dim", "4", "--seed", "9"])
    assert out.read_bytes() == out2.read_bytes()


def test_expand_wildcards_command(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("happy 1.0\nhappier 2.0\nsad 3.0\n")
    lst = tmp_path / "l.txt"
    lst.write_text("happ*\nsad\n")
    out = tmp_path / "expanded.txt"
    assert main(["expand-wildcards", str(lst), str(emb), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["happier", "happy", "sad"]
    # without --out the list goes to stdout
    capsys.readouterr()
    assert main(["expand-wildcards", str(lst), str(emb)]) == 0
    assert capsys.readouterr() == (out.read_text(), "")


def test_an_empty_expansion_is_input_error(tmp_path, capsys):
    emb, lst = tmp_path / "e.txt", tmp_path / "l.txt"
    emb.write_text("happy 1.0\nsad 3.0\n")
    lst.write_text("glad*\n")
    out = tmp_path / "expanded.txt"
    assert main(["expand-wildcards", str(lst), str(emb), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {lst}: expansion produced no words\n")
    assert not out.exists()


@pytest.mark.parametrize("target", ["", "missing/out.txt", "file.txt/out.txt"])
def test_expand_wildcards_checks_its_out_file_before_the_load(
    tmp_path, monkeypatch, capsys, target
):
    from conceptlearn import cli

    emb, lst = tmp_path / "e.txt", tmp_path / "l.txt"
    emb.write_text("happy 1.0\nsad 3.0\n")
    lst.write_text("happ*\n")
    (tmp_path / "file.txt").write_text("")
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    out = str(tmp_path / target)
    reason = f"no directory {os.path.dirname(out)}" if target else "Is a directory"
    assert main(["expand-wildcards", str(lst), str(emb), "--out", out]) == 1
    assert loads == []
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"


def test_expand_wildcards_names_the_line_of_a_bad_pattern(tmp_path, capsys):
    emb, lst = tmp_path / "e.txt", tmp_path / "l.txt"
    emb.write_text("happy 1.0\nsad 3.0\n")
    lst.write_text("happ*\na*b\n")
    assert main(["expand-wildcards", str(lst), str(emb)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {lst}:2: unsupported wildcard pattern 'a*b'\n"
    )


def test_a_concept_line_of_two_words_fails_at_its_line(workspace, tmp_path, capsys):
    ws, manifest = workspace
    (ws / "ca.txt").write_text("w001 3\nw002\n")
    assert main(["eval", str(manifest)] + quick_args(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"error: {ws / 'ca.txt'}:1: word 'w001 3' contains whitespace\n"
    )
    assert not (tmp_path / "o").exists()


def test_non_utf8_vector_file_is_input_error(tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_bytes(b"happy 1.0\nsad 3.0\ncaf\xe9 2.0\n")
    lst = tmp_path / "l.txt"
    lst.write_text("happ*\n")
    assert main(["expand-wildcards", str(lst), str(emb)]) == 1
    assert capsys.readouterr().err == f"error: {emb}:3: not valid UTF-8\n"


def test_non_utf8_word_lists_are_input_errors(workspace, tmp_path, capsys):
    ws, manifest = workspace
    emb = load_manifest(str(manifest)).embeddings[0][1].path
    bad = ws / "latin1.txt"
    bad.write_bytes(b"w001\nw002\n\xe9t\xe9\n")
    m = ws / "latin1.ini"
    m.write_text(f"[embeddings]\ng = {emb}\n[concepts]\nbad = {bad}\n")
    commands = [
        ["eval", str(m)] + quick_args(tmp_path / "o"),
        ["expand-wildcards", str(bad), emb],
        ["gen-random-embedding", str(tmp_path / "g.txt"), "--vocab", str(bad)],
    ]
    for argv in commands:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}:3: not valid UTF-8\n"


def test_runtime_error_exit_code(workspace, tmp_path, monkeypatch, capsys):
    from conceptlearn import experiment

    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite training loss at epoch 1")

    # a fit that fails mid-run
    monkeypatch.setattr(experiment, "train", diverge)
    monkeypatch.setattr(experiment, "train_many", diverge)
    _, manifest = workspace
    assert main(["eval", str(manifest)] + quick_args(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(
        "runtime error: iteration 0 of concept 'alpha' failed: non-finite"
    )


@pytest.mark.parametrize("command, flags, size", [
    ("eval", [], 80),  # a concept of 80 words
    ("null", ["--random-list-size", "60"], 60),
])
def test_list_too_large_for_the_vocabulary_fails_before_any_fit(
    workspace, tmp_path, monkeypatch, capsys, command, flags, size
):
    from conceptlearn import experiment

    ws, manifest = workspace
    big = ws / "big.txt"
    big.write_text("\n".join(f"w{i:03d}" for i in range(80)) + "\n")
    m = ws / "big.ini"
    m.write_text(manifest.read_text() + f"big = {big}\n")
    fits = []
    for attr in ("train", "train_many"):
        monkeypatch.setattr(experiment, attr, lambda *a, _n=attr: fits.append(_n))
    argv = [command, str(m)] + quick_args(tmp_path / "o") + flags
    assert main(argv) == 1
    assert fits == []
    assert capsys.readouterr().err == (
        "error: vocabulary of 120 too small for disjoint negatives on a "
        f"concept of {size} words\n"
    )


def test_non_finite_vector_is_input_error(workspace, tmp_path, capsys, vector_cache):
    ws, _ = workspace
    lines = (ws / "emb.txt").read_text().splitlines(keepends=True)
    lines[6] = "w006 " + " ".join(["0.5"] * 5 + ["1e39"]) + "\n"  # inf as float32
    emb = ws / "nonfinite.txt"
    emb.write_text("".join(lines))
    m = ws / "nonfinite.ini"
    m.write_text(f"[embeddings]\ng = {emb}\n[concepts]\nalpha = {ws / 'ca.txt'}\n")
    assert main(["eval", str(m)] + quick_args(tmp_path / "o")) == 1
    assert f"{emb}:7: non-finite vector component" in capsys.readouterr().err
    assert not vector_cache.exists()  # a parse error writes no cache entry


def _src_env():
    """os.environ with the imported package's source tree first on
    PYTHONPATH, for a subprocess that imports it."""
    import conceptlearn

    src = os.path.dirname(os.path.dirname(os.path.abspath(conceptlearn.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_leaves_scipy_unloaded():
    env = _src_env()
    code = (
        "import sys, conceptlearn, conceptlearn.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_a_normal_branch_compare_runs_without_scipy(workspace, tmp_path, monkeypatch):
    """A compare of 24 concepts takes the normal branch, also in a process
    where `import scipy` fails, and prints the p of scipy's ndtr."""
    from scipy.special import ndtr
    from scipy.stats import rankdata

    from conceptlearn import cli

    ws, _ = workspace
    manifest = _two_embedding_manifest(ws)
    concepts = ""
    for k in range(24):
        (ws / f"c{k}.txt").write_text("".join(f"w{i:03d}\n" for i in range(5 * k, 5 * k + 5)))
        concepts += f"c{k} = {ws / f'c{k}.txt'}\n"
    text = manifest.read_text()
    manifest.write_text(text[: text.index("[concepts]")] + "[concepts]\n" + concepts)
    pairs = []

    def spy(a, b, alternative):
        pairs.append((a, b))
        return wilcoxon_signed_rank(a, b, alternative)

    monkeypatch.setattr(cli, "wilcoxon_signed_rank", spy)
    argv = ["compare", str(manifest), "gauss", "other"]
    assert main(argv + quick_args(tmp_path / "in-process")) == 0
    # the two-sided p from the paired AUCs, as the report's signed-rank test reads them
    d = np.subtract(*pairs[0])
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    _, counts = np.unique(ranks, return_counts=True)
    sd = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(counts**3 - counts) / 48.0)
    w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    p = min(1.0, 2.0 * float(ndtr((w - n * (n + 1) / 4.0 + 0.5) / sd)))
    assert n > 20

    env = _src_env()
    code = ("import sys; sys.modules['scipy'] = None; from conceptlearn.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    out = subprocess.run(
        [sys.executable, "-c", code, *argv, *quick_args(tmp_path / "no-scipy")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "(two-sided, normal)" in out.stdout
    assert re.search(r" p=(\S+)$", out.stdout, re.M).group(1) == f"{p:.6g}"
    name = "compare-gauss-other.txt"
    assert (tmp_path / "no-scipy" / name).read_bytes() == (
        tmp_path / "in-process" / name
    ).read_bytes()


def _two_embedding_manifest(ws):
    """The workspace concepts over two different embeddings of one vocabulary."""
    store = random_gaussian_embedding([f"w{i:03d}" for i in range(120)], 6, seed=2)
    other = ws / "other.txt"
    other.write_text(
        "\n".join(
            w + " " + " ".join(f"{v:.9g}" for v in row)
            for w, row in zip(store.vocabulary, store.vectors)
        )
        + "\n"
    )
    m = ws / "pair.ini"
    m.write_text(
        f"[embeddings]\ngauss = {ws / 'emb.txt'}\nother = {other}\n"
        f"[concepts]\nalpha = {ws / 'ca.txt'}\nbeta = {ws / 'cb.txt'}\n"
    )
    return m


def test_compare_aucs_equal_eval_table(workspace, tmp_path):
    ws, _ = workspace
    manifest = _two_embedding_manifest(ws)
    out = tmp_path / "out"
    assert main(["eval", str(manifest), "--format", "csv"] + quick_args(out)) == 0
    assert main(["compare", str(manifest), "gauss", "other"] + quick_args(out)) == 0
    compare = {
        line.split()[0]: [cell.rstrip("*") for cell in line.split()[1:]]
        for line in (out / "compare-gauss-other.txt").read_text().splitlines()
        if line.startswith(("alpha", "beta"))
    }
    for column, name in enumerate(("gauss", "other")):
        rows = (out / f"{name}-eval.csv").read_text().splitlines()
        eval_auc = {
            cells[0]: cells[6]
            for cells in (r.split(",") for r in rows)
            if cells[0] in ("alpha", "beta")
        }
        assert {c: v[column] for c, v in compare.items()} == eval_auc


def test_every_report_carries_the_full_config(workspace, tmp_path):
    ws, manifest = workspace
    m2 = _two_embedding_manifest(ws)
    out = tmp_path / "out"
    flags = quick_args(out) + ["--normalize", "--threshold", "0.4"]
    assert main(["eval", str(manifest)] + flags) == 0
    assert main(["null", str(manifest)] + flags) == 0
    assert main(["compare", str(m2), "gauss", "other"] + flags) == 0
    train = {"learning_rate": 0.1, "epochs": 100, "early_stop_tol": 1e-6, "l2": 0.0}
    expected = {
        "seed": 3, "iterations": 4, "random_lists": 3, "random_list_size": 6,
        "normalize": True, "threshold": 0.4, "train": train,
    }
    cfg = ExperimentConfig(
        iterations=4, random_list_count=3, random_list_size=6, master_seed=3,
        normalize=True, threshold=0.4,
    )
    assert report.config_record(cfg) == expected
    flat = {k: v for k, v in expected.items() if k != "train"} | train
    for name in ("gauss-eval.txt", "gauss-eval.csv", "gauss-null.txt",
                 "compare-gauss-other.txt"):
        header = (out / name).read_text().splitlines()
        for key, value in flat.items():
            assert f"# {key} = {value}" in header, (name, key)
    for name in ("gauss-eval.jsonl", "gauss-null.jsonl"):
        records = [json.loads(l) for l in (out / name).read_text().splitlines()]
        config = records[0]
        assert config["record"] == "config"
        assert {k: config[k] for k in expected} == expected, name
        sizes = {r["size"] for r in records if r["record"].startswith("random_")}
        assert sizes == {6}, name


def test_manifest_value_with_percent_sign(workspace, tmp_path):
    ws, manifest = workspace
    emb = ws / "emb%20v1.txt"
    emb.write_bytes((ws / "emb.txt").read_bytes())
    m = ws / "pct.ini"
    m.write_text(f"[embeddings]\ngauss = {emb}\n[concepts]\nalpha = {ws / 'ca.txt'}\n")
    assert load_manifest(str(m)).embeddings[0][1].path == str(emb)
    assert main(["eval", str(m)] + quick_args(tmp_path / "o")) == 0


def test_manifest_duplicate_key_is_input_error(workspace, tmp_path, capsys):
    ws, _ = workspace
    m = ws / "dup.ini"
    m.write_text(
        f"[embeddings]\ngauss = {ws / 'emb.txt'}\n"
        f"[concepts]\nalpha = {ws / 'ca.txt'}\nalpha = {ws / 'cb.txt'}\n"
    )
    assert main(["eval", str(m)] + quick_args(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert str(m) in err and re.search(r"line\s+5\b", err)


def test_manifest_byte_order_mark_is_dropped(workspace, tmp_path):
    ws, manifest = workspace
    bom = ws / "bom.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    plain, marked = tmp_path / "plain", tmp_path / "bom"
    assert main(["eval", str(manifest)] + quick_args(plain)) == 0
    assert main(["eval", str(bom)] + quick_args(marked)) == 0
    for name in ("gauss-eval.txt", "gauss-eval.csv", "gauss-eval.jsonl"):
        assert (plain / name).read_bytes() == (marked / name).read_bytes()


def test_non_utf8_manifest_is_input_error(workspace, tmp_path, capsys):
    ws, manifest = workspace
    bad = ws / "latin1.ini"
    bad.write_bytes(manifest.read_bytes() + b"# caf\xe9\n")
    line = manifest.read_text().count("\n") + 1
    assert main(["eval", str(bad)] + quick_args(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {bad}:{line}: not valid UTF-8\n"


SECTIONS = "manifest needs [embeddings] and [concepts] sections"
ENTRIES = "need at least one embedding and one concept"


@pytest.mark.parametrize("text, reason", [
    ("[embeddings]\ngauss = {emb}\n", SECTIONS),
    ("[embeddings]\ngauss = {emb}\n[concepts]\n", ENTRIES),
    ("[embeddings]\n[concepts]\nalpha = {ca}\n", ENTRIES),
], ids=["no [concepts]", "empty [concepts]", "empty [embeddings]"])
def test_a_manifest_without_concepts_or_embeddings_is_input_error(
    workspace, tmp_path, capsys, text, reason
):
    ws, _ = workspace
    m = ws / "short.ini"
    m.write_text(text.format(emb=ws / "emb.txt", ca=ws / "ca.txt"))
    assert main(["eval", str(m)] + quick_args(tmp_path / "o")) == 1
    assert capsys.readouterr().err == f"error: {m}: {reason}\n"
    assert not (tmp_path / "o").exists()


def test_missing_manifest_is_input_error(tmp_path, capsys):
    missing = tmp_path / "none.ini"
    assert main(["eval", str(missing), "--out", str(tmp_path / "o")]) == 1
    assert str(missing) in capsys.readouterr().err


def test_manifest_names_keep_case(workspace, tmp_path):
    ws, _ = workspace
    m = ws / "case.ini"
    m.write_text(
        f"[embeddings]\nGauss = {ws / 'emb.txt'}\n[concepts]\nPosEmo = {ws / 'ca.txt'}\n"
    )
    manifest = load_manifest(str(m))
    assert [n for n, _ in manifest.embeddings] == ["Gauss"]
    assert [n for n, _ in manifest.concepts] == ["PosEmo"]
    out = tmp_path / "o"
    assert main(["eval", str(m), "--format", "csv"] + quick_args(out)) == 0
    rows = (out / "Gauss-eval.csv").read_text().splitlines()
    assert any(r.startswith("PosEmo,") for r in rows)


@pytest.mark.parametrize("name", ["x/y", "../escaped"])
@pytest.mark.parametrize("command", ["eval", "null", "compare"])
def test_an_embedding_name_with_a_path_separator_fails_before_any_fit(
    workspace, monkeypatch, capsys, command, name
):
    # the name becomes part of a report file name: `x/y` would fail at the
    # first write and `../escaped` would write beside --out
    from conceptlearn import experiment

    ws, _ = workspace
    m = ws / "sep.ini"
    m.write_text(f"[embeddings]\n{name} = {ws / 'emb.txt'}\n"
                 f"[concepts]\nalpha = {ws / 'ca.txt'}\nbeta = {ws / 'cb.txt'}\n")
    fits = []
    for attr in ("train", "train_many"):
        monkeypatch.setattr(experiment, attr, lambda *a, _n=attr: fits.append(_n))
    files = set(ws.rglob("*"))
    names = [name, name] if command == "compare" else []
    assert main([command, str(m), *names] + quick_args(ws / "runs" / "o")) == 1
    assert fits == []
    assert set(ws.rglob("*")) == files
    assert capsys.readouterr().err == (
        f"error: {m}: embedding name {name!r} holds a path separator\n"
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--iterations", "0"),
        ("--random-list-size", "3"),
        ("--random-list-size", "60"),  # V/2: too large for disjoint negatives
        ("--threshold", "nan"),
        ("--threshold", "1.5"),
        ("--workers", "0"),
        ("--workers", "-2"),
    ],
)
def test_invalid_experiment_flag_is_input_error(workspace, tmp_path, capsys, flag, value):
    _, manifest = workspace
    argv = ["eval", str(manifest)] + quick_args(tmp_path / "o") + [flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_random_embedding_rejects_a_vocab_word_with_whitespace(tmp_path, capsys):
    vocab = tmp_path / "v.txt"
    vocab.write_text("paris\nnew york\n")
    out = tmp_path / "g.txt"
    assert main(["gen-random-embedding", str(out), "--vocab", str(vocab)]) == 1
    assert capsys.readouterr().err == (
        f"error: {vocab}:2: word 'new york' contains whitespace\n"
    )
    assert not out.exists()


def test_gen_random_embedding_reads_a_vocab_file(tmp_path):
    vocab = tmp_path / "v.txt"
    # lowercased, first position kept, a `#` line is a word, blank lines skipped
    vocab.write_text("Paris\n\nLondon\n#tag\n  \nparis\nTokyo\n")
    out = tmp_path / "g.txt"
    assert main(["gen-random-embedding", str(out), "--vocab", str(vocab), "--dim", "3"]) == 0
    lines = out.read_text().splitlines()
    assert [line.split()[0] for line in lines] == ["paris", "london", "#tag", "tokyo"]
    assert {len(line.split()) for line in lines} == {4}


@pytest.mark.parametrize("target", ["", "missing/g.txt", "file.txt/g.txt"])
def test_gen_random_embedding_checks_its_out_file_before_the_draw(
    tmp_path, monkeypatch, capsys, target
):
    from conceptlearn import cli

    (tmp_path / "file.txt").write_text("")
    draws = []
    monkeypatch.setattr(cli, "gaussian_blocks", lambda *a, **k: draws.append(a))
    out = str(tmp_path / target)
    reason = f"no directory {os.path.dirname(out)}" if target else "Is a directory"
    assert main(["gen-random-embedding", out, "--words", "30", "--dim", "4"]) == 1
    assert draws == []
    assert capsys.readouterr().err == f"error: {out}: {reason}\n"


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
@pytest.mark.parametrize("block_bytes", [8, 2400, 1 << 20])
@pytest.mark.parametrize("unit", [False, True], ids=["raw", "normalize"])
def test_gen_random_embedding_writes_the_bytes_of_the_whole_store(
    tmp_path, monkeypatch, seed, block_bytes, unit
):
    """Written a block at a time (250 one-row blocks, 100 + 100 + 50, or
    one), the file is the whole store's, normalized or not, with `--words`
    and with `--vocab`."""
    from conceptlearn import embeddings

    monkeypatch.setattr(embeddings, "BLOCK_BYTES", block_bytes)
    vocab = tmp_path / "v.txt"
    vocab.write_text("Paris\nLondon\n\nparis\nRome\nOslo\nBern\nLima\nKyiv\n")
    flags = ["--seed", str(seed)] + ["--normalize"] * unit
    runs = [(["--words", "250", "--dim", "3"], [f"w{i:03d}" for i in range(250)], 3),
            (["--vocab", str(vocab), "--dim", "1"],
             ["paris", "london", "rome", "oslo", "bern", "lima", "kyiv"], 1)]
    for args, words, dim in runs:
        out, ref = tmp_path / "g.txt", tmp_path / "ref.txt"
        assert main(["gen-random-embedding", str(out), *args, *flags]) == 0
        store = random_gaussian_embedding(words, dim, seed)
        save_embedding(normalize(store) if unit else store, str(ref))
        assert out.read_bytes() == ref.read_bytes()


def test_gen_random_embedding_holds_one_block_not_the_matrix():
    """Peak memory (VmHWM) of a 20,000 x 300 gen over a 2,000 x 300 gen, each
    in a fresh process: a 20,000 x 300 float64 matrix alone is 48 MB."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("VmHWM is read from /proc/self/status, which this platform lacks")
    env = _src_env()
    code = (
        "import os, sys, tempfile\n"
        "from conceptlearn.cli import main\n"
        "with tempfile.TemporaryDirectory() as d:\n"
        "    out = os.path.join(d, 'g.txt')\n"
        "    assert main(['gen-random-embedding', out, '--words', sys.argv[1]]) == 0\n"
        "print([l.split()[1] for l in open('/proc/self/status')"
        " if l.startswith('VmHWM:')][0])\n"
    )
    peak_kb = {
        words: int(subprocess.run(
            [sys.executable, "-c", code, str(words)], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        ).stdout)
        for words in (2_000, 20_000)
    }
    assert peak_kb[20_000] - peak_kb[2_000] < 8 * 1024


def test_gen_random_embedding_leaves_no_file_on_an_error(tmp_path, monkeypatch, capsys):
    """A zero row in the second block fails `--normalize` after the first
    block is written, with exit 2, and the partial file is removed."""
    from conceptlearn import cli, embeddings

    out = tmp_path / "g.txt"

    def zero_row(*args, _fn=embeddings.gaussian_blocks):
        for start, block in _fn(*args):
            if start:
                block[3] = 0.0
            yield start, block

    written = []

    def spy(store, fh, _fn=embeddings.write_rows):
        written.append(len(store))
        return _fn(store, fh)

    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 2400)  # 100 rows at d = 3
    monkeypatch.setattr(cli, "gaussian_blocks", zero_row)
    monkeypatch.setattr(cli, "write_rows", spy)
    argv = ["gen-random-embedding", str(out), "--words", "250", "--dim", "3"]
    assert main(argv + ["--normalize"]) == 2
    assert capsys.readouterr().err == "runtime error: zero vector for word 'w103'\n"
    assert written == [100]
    assert not out.exists()
    assert main(argv) == 0  # unnormalized, a zero row is written
    assert out.read_text().splitlines()[103] == "w103 0 0 0"


@pytest.mark.parametrize("argv", [
    ["expand-wildcards", "{dir}", "{emb}"],
    ["expand-wildcards", "{list}", "{dir}"],
    ["gen-random-embedding", "{out}", "--vocab", "{dir}"],
], ids=["word list", "vector file", "vocab file"])
def test_a_directory_as_an_input_file_is_input_error(
    tmp_path, monkeypatch, capsys, argv
):
    from conceptlearn import cli

    (tmp_path / "d").mkdir()
    (tmp_path / "e.txt").write_text("happy 1.0\nsad 3.0\n")
    (tmp_path / "l.txt").write_text("happ*\n")
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    paths = {"dir": tmp_path / "d", "emb": tmp_path / "e.txt",
             "list": tmp_path / "l.txt", "out": tmp_path / "g.txt"}
    assert main([a.format(**paths) for a in argv]) == 1
    assert loads == []
    assert capsys.readouterr() == ("", f"error: {tmp_path / 'd'}: Is a directory\n")
    assert not (tmp_path / "g.txt").exists()


@pytest.mark.parametrize("entry", ["embedding 'gauss'", "concept 'beta'"])
@pytest.mark.parametrize("names", [["eval"], ["null"], ["compare", "gauss", "gauss"]])
def test_a_directory_named_in_a_manifest_is_input_error(
    workspace, tmp_path, monkeypatch, capsys, names, entry
):
    from conceptlearn import cli

    ws, manifest = workspace
    d = ws / "adir"
    d.mkdir()
    key = entry.split("'")[1]
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {d}", manifest.read_text())
    manifest.write_text(text)
    loads = []
    monkeypatch.setattr(cli, "load_cached", loads.append)
    out = tmp_path / "o"
    assert main([names[0], str(manifest), *names[1:], "--out", str(out)]) == 1
    assert loads == []
    assert capsys.readouterr() == ("", f"error: {entry}: {d}: Is a directory\n")
    assert not out.exists()


def test_gen_random_embedding_zero_words_is_input_error(tmp_path, capsys):
    out = tmp_path / "g.txt"
    for flags in (["--words", "0"], ["--dim", "0"]):  # before the file is opened
        assert main(["gen-random-embedding", str(out), *flags]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
