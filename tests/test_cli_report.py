import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conceptlearn import (
    ExperimentConfig,
    TrainConfig,
    load_concept,
    random_concept,
    random_gaussian_embedding,
    resolve,
    run_concept,
    run_null,
)
from conceptlearn import report
from conceptlearn.cli import compare_outcome, load_manifest, main
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
        store = embeddings.load_embedding(spec)
        loaded.append(store.vectors)
        return store

    monkeypatch.setattr(cli, "load_embedding", tracking_load)
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


@pytest.mark.parametrize("command", ["eval", "compare"])
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
        store = embeddings.load_embedding(spec)
        matrices.append(weakref.ref(store.vectors))
        return store

    monkeypatch.setattr(cli, "load_embedding", tracking_load)
    names = ["gauss", "other"] if command == "compare" else []
    argv = [command, str(two), *names] + quick_args(tmp_path / "out") + normalize
    assert main(argv) == 0
    assert alive == [0, 0]


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


def test_compare_identical_embedding_reports_indistinguishable(workspace, tmp_path):
    ws, manifest = workspace
    # same embedding under two names
    emb_path = load_manifest(str(manifest)).embeddings[0][1].path
    m2 = ws / "two.ini"
    ca = ws / "ca.txt"
    m2.write_text(
        f"[embeddings]\na = {emb_path}\nb = {emb_path}\n[concepts]\nalpha = {ca}\n"
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


def test_expand_wildcards_command(tmp_path):
    emb = tmp_path / "e.txt"
    emb.write_text("happy 1.0\nhappier 2.0\nsad 3.0\n")
    lst = tmp_path / "l.txt"
    lst.write_text("happ*\nsad\n")
    out = tmp_path / "expanded.txt"
    assert main(["expand-wildcards", str(lst), str(emb), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["happier", "happy", "sad"]


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


def test_runtime_error_exit_code(workspace, tmp_path):
    _, manifest = workspace
    # concept larger than half the vocabulary -> split failure mid-run
    ws = manifest.parent
    big = ws / "big.txt"
    store_words = [f"w{i:03d}" for i in range(120)]
    big.write_text("\n".join(store_words[:80]) + "\n")
    m = ws / "big.ini"
    emb_path = load_manifest(str(manifest)).embeddings[0][1].path
    m.write_text(f"[embeddings]\ng = {emb_path}\n[concepts]\nbig = {big}\n")
    rc = main(["eval", str(m)] + quick_args(tmp_path / "o"))
    assert rc == 2


def test_non_finite_vector_is_input_error(workspace, tmp_path, capsys):
    ws, _ = workspace
    lines = (ws / "emb.txt").read_text().splitlines(keepends=True)
    lines[6] = "w006 " + " ".join(["0.5"] * 5 + ["1e39"]) + "\n"  # inf as float32
    emb = ws / "nonfinite.txt"
    emb.write_text("".join(lines))
    m = ws / "nonfinite.ini"
    m.write_text(f"[embeddings]\ng = {emb}\n[concepts]\nalpha = {ws / 'ca.txt'}\n")
    assert main(["eval", str(m)] + quick_args(tmp_path / "o")) == 1
    assert f"{emb}:7: non-finite vector component" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    import conceptlearn

    src = os.path.dirname(os.path.dirname(os.path.abspath(conceptlearn.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, conceptlearn, conceptlearn.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize(
    "flag, value", [("--iterations", "0"), ("--random-list-size", "3")]
)
def test_invalid_experiment_flag_is_input_error(workspace, tmp_path, capsys, flag, value):
    _, manifest = workspace
    argv = ["eval", str(manifest)] + quick_args(tmp_path / "o") + [flag, value]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_random_embedding_zero_words_is_input_error(tmp_path, capsys):
    assert main(["gen-random-embedding", str(tmp_path / "g.txt"), "--words", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
