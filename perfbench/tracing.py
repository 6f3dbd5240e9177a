"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

Spans are recorded from the benchmark's side: `Tracer.patched()` replaces
the module attributes through which both the benchmark and the library's own
orchestration reach each layer, and restores them on exit.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from conceptlearn import cli, concepts, embeddings, experiment, report

LAYERS = (
    "embeddings", "concepts", "splits", "perceptron", "metrics",
    "experiment", "stats", "report", "cli",
)
# Unit of every metric `layer_metrics` returns.
UNITS = {
    "splits.make_split_ms.p50": "ms",
    "splits.make_split_ms.p99": "ms",
    "splits.calls": "count",
    "perceptron.train_ms.p50": "ms",
    "perceptron.train_ms.p99": "ms",
    "perceptron.epochs_mean": "count",
    "perceptron.early_stop_frac": "ratio",
    "perceptron.flop_per_fit": "flop",
    "perceptron.gflop_per_s": "GFLOP/s",
    "perceptron.score_ms.p50": "ms",
    "metrics.evaluate_ms.p50": "ms",
    "embeddings.load_s": "s",
    "embeddings.load_mb_per_s": "MB/s",
    "embeddings.save_s": "s",
    "concepts.resolve_ms": "ms",
    "concepts.random_concept_ms": "ms",
    "experiment.run_concept_s": "s",
    "experiment.run_null_s": "s",
    "experiment.orchestration_frac": "ratio",
    "experiment.parallel_efficiency": "ratio",
    "stats.wilcoxon_ms": "ms",
    "report.render_ms": "ms",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def _load_attrs(out, spec):
    return {"bytes": os.path.getsize(spec.path)}


def _train_attrs(out, split, store, cfg):
    # experiment calls train(split, store, cfg.train)
    return {
        "epochs": out.epochs_run,
        "cap": cfg.epochs,
        "rows": len(split.train_pos) + len(split.train_neg),
        "dim": store.dimension,
    }


# (module whose attribute is replaced, attribute, layer, attribute hook).
# The library looks its collaborators up in the calling module's globals,
# so e.g. `make_split` is patched where `experiment` calls it.
PATCH_POINTS = (
    (embeddings, "load_embedding", "embeddings", _load_attrs),
    (embeddings, "save_embedding", "embeddings", None),
    (embeddings, "random_gaussian_embedding", "embeddings", None),
    (concepts, "load_concept", "concepts", None),
    (concepts, "resolve", "concepts", None),
    (experiment, "random_concept", "concepts", None),
    (experiment, "make_split", "splits", None),
    (experiment, "train", "perceptron", _train_attrs),
    (experiment, "score", "perceptron", None),
    (experiment, "evaluate_scores", "metrics", None),
    (experiment, "run_concept", "experiment", None),
    (experiment, "run_null", "experiment", None),
    (cli, "wilcoxon_signed_rank", "stats", None),
    (cli, "compare_outcome", "cli", None),
    (report, "eval_report_text", "report", None),
    (report, "eval_report_csv", "report", None),
    (report, "eval_report_jsonl", "report", None),
    (report, "compare_report_text", "report", None),
)


class Tracer:
    """Collects one span per traced call: name, layer, start, end, parent
    span and run id, plus per-call counts from the attribute hooks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, hook=None):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "name": name, "layer": layer,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if hook is not None:
                span.update(hook(out, *args, **kwargs))
            return out

        return traced

    @contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in PATCH_POINTS]
        try:
            for mod, attr, layer, hook in PATCH_POINTS:
                setattr(mod, attr, self.wrap(getattr(mod, attr), layer, hook))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans) -> dict[str, float]:
    """Seconds per layer not covered by a child span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        out[s["layer"]] += s["end"] - s["start"] - c
    return out


def layer_metrics(spans, untraced_wall_s: float, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md).
    A layer the workload never calls reads 0."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durs(name):
        return np.array([s["end"] - s["start"] for s in by_name.get(name, ())])

    def pct(name, q, scale=1e3):
        d = durs(name)
        return float(np.percentile(d, q)) * scale if d.size else 0.0

    def total(name, scale=1.0):
        return float(durs(name).sum()) * scale

    fits = by_name.get("perceptron.train", [])
    flops = np.array([4.0 * s["epochs"] * s["rows"] * s["dim"] for s in fits])
    train_s = total("perceptron.train")
    loads = by_name.get("embeddings.load_embedding", [])
    load_s = total("embeddings.load_embedding")
    selfs = self_times(spans)
    outer_experiment = sum(
        s["end"] - s["start"] for s in spans
        if s["layer"] == "experiment"
        and (s["parent"] is None or spans[s["parent"]]["layer"] != "experiment")
    )
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m = {
        "splits.make_split_ms.p50": pct("splits.make_split", 50),
        "splits.make_split_ms.p99": pct("splits.make_split", 99),
        "splits.calls": float(len(by_name.get("splits.make_split", ()))),
        "perceptron.train_ms.p50": pct("perceptron.train", 50),
        "perceptron.train_ms.p99": pct("perceptron.train", 99),
        "perceptron.epochs_mean": float(np.mean([s["epochs"] for s in fits])) if fits else 0.0,
        "perceptron.early_stop_frac": (
            sum(s["epochs"] < s["cap"] for s in fits) / len(fits) if fits else 0.0
        ),
        "perceptron.flop_per_fit": float(flops.mean()) if fits else 0.0,
        "perceptron.gflop_per_s": float(flops.sum()) / train_s / 1e9 if train_s else 0.0,
        "perceptron.score_ms.p50": pct("perceptron.score", 50),
        "metrics.evaluate_ms.p50": pct("metrics.evaluate_scores", 50),
        "embeddings.load_s": pct("embeddings.load_embedding", 50, 1.0),
        "embeddings.load_mb_per_s": (
            sum(s["bytes"] for s in loads) / 1e6 / load_s if load_s else 0.0
        ),
        "embeddings.save_s": total("embeddings.save_embedding"),
        "concepts.resolve_ms": total("concepts.resolve", 1e3),
        "concepts.random_concept_ms": pct("concepts.random_concept", 50),
        "experiment.run_concept_s": pct("experiment.run_concept", 50, 1.0),
        "experiment.run_null_s": total("experiment.run_null"),
        "experiment.orchestration_frac": (
            selfs["experiment"] / outer_experiment if outer_experiment else 0.0
        ),
        "stats.wilcoxon_ms": total("stats.wilcoxon_signed_rank", 1e3),
        "report.render_ms": sum(
            float(durs(n).sum()) for n in by_name if n.startswith("report.")
        ) * 1e3,
        "cli.unaccounted_s": untraced_wall_s - roots,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    return m
