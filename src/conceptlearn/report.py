"""Report emission: human-readable tables mirroring the evaluation table
shape (rows = concepts plus random(max)/random(avg); columns = Size,
Accuracy, Recall, FPR, Prec, AUC), plus CSV and JSON-lines twins carrying
the same numbers.

Reports are deterministic functions of their inputs: no timestamps, fixed
key order, fixed float formatting.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

import numpy as np

from .experiment import (
    AggregateResult,
    ExperimentConfig,
    NullDistribution,
    empirical_p_value,
    format_p_value,
)
from .metrics import METRIC_NAMES
from .stats import WilcoxonOutcome

COLUMNS = ("Size", "Accuracy", "Recall", "FPR", "Prec", "AUC")


def config_record(cfg: ExperimentConfig) -> dict:
    """The effective configuration, the one source of every report's config
    lines and records, so a third party can replay the run."""
    return {
        "seed": cfg.master_seed,
        "iterations": cfg.iterations,
        "random_lists": cfg.random_list_count,
        "random_list_size": cfg.random_list_size,
        "normalize": cfg.normalize,
        "threshold": cfg.threshold,
        "train": asdict(cfg.train),
    }


def config_header(cfg: ExperimentConfig) -> list[str]:
    """`config_record` as '# key = value' lines, `train` flattened, plus the
    fixed protocol conventions."""
    record = config_record(cfg)
    train = record.pop("train")
    lines = [f"{key} = {val}" for key, val in {**record, **train}.items()]
    lines += [
        "split_policy = ceil-half train positives; "
        "train/test negatives drawn disjointly per iteration",
        "precision_convention = 0 when nothing is predicted positive",
        "p_value = add-one empirical estimate against the null AUCs",
    ]
    return [f"# {line}" for line in lines]


def _config_jsonl(embedding_name: str, cfg: ExperimentConfig) -> str:
    return json.dumps(
        {"record": "config", "embedding": embedding_name, **config_record(cfg)},
        sort_keys=True,
    )


def _random_rows_jsonl(null: NullDistribution) -> list[str]:
    return [
        json.dumps({"record": label, "size": null.list_size, "means": row}, sort_keys=True)
        for label, row in (("random_max", null.max_row), ("random_avg", null.mean_row))
    ]


def _metric_cells(row: dict[str, float]) -> list[str]:
    return [f"{row[name]:.3f}" for name in METRIC_NAMES]


def eval_rows(
    aggregates: list[AggregateResult], null: NullDistribution
) -> list[tuple[str, int, dict[str, float], str]]:
    """(label, size, metric-means, p-string) per table row."""
    null_aucs = [m["auc"] for m in null.per_list]
    rows = []
    for agg in aggregates:
        rows.append(
            (
                agg.concept_name,
                agg.resolved_size,
                agg.means,
                format_p_value(agg.means["auc"], null_aucs),
            )
        )
    rows.append(("random(max)", null.list_size, null.max_row, ""))
    rows.append(("random(avg)", null.list_size, null.mean_row, ""))
    return rows


def eval_report_text(
    embedding_name: str,
    aggregates: list[AggregateResult],
    null: NullDistribution,
    cfg: ExperimentConfig,
) -> str:
    lines = [f"# embedding = {embedding_name}"]
    lines += config_header(cfg)
    rows = eval_rows(aggregates, null)
    width = max(12, max(len(r[0]) for r in rows) + 2)
    header = f"{'L':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS) + f"{'p(AUC)':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for label, size, row, p in rows:
        cells = "".join(f"{c:>10}" for c in [str(size)] + _metric_cells(row))
        lines.append(f"{label:<{width}}" + cells + f"{p:>10}")
    return "\n".join(lines) + "\n"


def eval_report_csv(
    embedding_name: str,
    aggregates: list[AggregateResult],
    null: NullDistribution,
    cfg: ExperimentConfig,
) -> str:
    """The eval table as CSV, a field quoted only where RFC 4180 requires it."""
    out = io.StringIO()
    out.write("\n".join([f"# embedding = {embedding_name}", *config_header(cfg)]) + "\n")
    table = csv.writer(out, lineterminator="\n")
    table.writerow(["list", "size", *METRIC_NAMES, "p_auc"])
    for label, size, row, p in eval_rows(aggregates, null):
        table.writerow([label, size, *_metric_cells(row), p.replace("< ", "<")])
    return out.getvalue()


def eval_report_jsonl(
    embedding_name: str,
    aggregates: list[AggregateResult],
    null: NullDistribution,
    cfg: ExperimentConfig,
) -> str:
    """Full-precision structured records, one JSON object per line."""
    null_aucs = [m["auc"] for m in null.per_list]
    out = [_config_jsonl(embedding_name, cfg)]
    for agg in aggregates:
        out.append(
            json.dumps(
                {
                    "record": "concept",
                    "name": agg.concept_name,
                    "embedding": embedding_name,
                    "raw_size": agg.raw_size,
                    "resolved_size": agg.resolved_size,
                    "means": agg.means,
                    "stds": agg.stds,
                    "p_auc": empirical_p_value(agg.means["auc"], null_aucs),
                },
                sort_keys=True,
            )
        )
    out += _random_rows_jsonl(null)
    return "\n".join(out) + "\n"


def null_report_text(
    embedding_name: str, null: NullDistribution, cfg: ExperimentConfig
) -> str:
    """The two random rows plus a per-metric histogram of the full null."""
    lines = [f"# embedding = {embedding_name}"]
    lines += config_header(cfg)
    width = 14
    header = f"{'row':<{width}}" + "".join(f"{c:>10}" for c in COLUMNS[1:])
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in (("random(max)", null.max_row), ("random(avg)", null.mean_row)):
        lines.append(f"{label:<{width}}" + "".join(f"{c:>10}" for c in _metric_cells(row)))
    lines.append("")
    # edges k / 20, not linspace's (7 lie one ulp above k/20): a mean of 0.6
    # counts in [0.60, 0.65). np.histogram closes the last bin; so does its label.
    edges = np.arange(21) / 20
    for name in METRIC_NAMES:
        vals = np.array([m[name] for m in null.per_list])
        counts, _ = np.histogram(vals, bins=edges)
        lines.append(f"histogram {name} (bins of 0.05 over [0, 1], {vals.size} lists):")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            if c:
                lines.append(f"  [{lo:.2f}, {hi:.2f}{']' if hi == 1 else ')'}: {c}")
    return "\n".join(lines) + "\n"


def null_report_jsonl(
    embedding_name: str, null: NullDistribution, cfg: ExperimentConfig
) -> str:
    out = [_config_jsonl(embedding_name, cfg)] + _random_rows_jsonl(null)
    for k, m in enumerate(null.per_list):
        out.append(json.dumps({"record": "null_list", "index": k, "means": m}, sort_keys=True))
    return "\n".join(out) + "\n"


def compare_report_text(
    name_a: str,
    name_b: str,
    concept_names: list[str],
    aucs_a: dict[str, float],
    aucs_b: dict[str, float],
    outcome: WilcoxonOutcome | None,
    cfg: ExperimentConfig,
    note: str = "",
) -> str:
    """Per-concept AUC columns with mean/median rows and the signed-rank
    verdict; '*' marks the better embedding per concept."""
    lines = [f"# comparing {name_a} vs {name_b}"]
    lines += config_header(cfg)
    width = max(12, max(len(n) for n in concept_names) + 2)
    lines.append(f"{'L':<{width}}{name_a:>14}{name_b:>14}")
    lines.append("-" * (width + 28))
    for name in concept_names:
        a, b = aucs_a[name], aucs_b[name]
        ma = "*" if a > b else " "
        mb = "*" if b > a else " "
        lines.append(f"{name:<{width}}{a:>13.3f}{ma}{b:>13.3f}{mb}")
    va = np.array([aucs_a[n] for n in concept_names])
    vb = np.array([aucs_b[n] for n in concept_names])
    lines.append(f"{'Mean':<{width}}{va.mean():>13.3f} {vb.mean():>13.3f} ")
    lines.append(f"{'Median':<{width}}{np.median(va):>13.3f} {np.median(vb):>13.3f} ")
    lines.append("")
    if outcome is None:
        lines.append("wilcoxon: embeddings indistinguishable (all AUC differences are zero)")
    else:
        lines.append(
            f"wilcoxon ({outcome.alternative}, {outcome.method}): "
            f"n={outcome.n_effective} W+={outcome.w_plus:g} W-={outcome.w_minus:g} "
            f"W={outcome.w_statistic:g} p={outcome.p_value:.6g}"
        )
    if note:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
