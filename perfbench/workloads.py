"""The benchmark's workloads: the CLI invocations of one session, the set-up
that every subcommand pays before its first fit, the output checks, and a
mirror that repeats the session through the public functions.

Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import replace
from time import perf_counter

from conceptlearn import cli, concepts, embeddings, experiment, report
from conceptlearn.perceptron import TrainConfig

import inputs

PLANTED_MIN_AUC = 0.8
# A random list's mean AUC is not an average of independent chance AUCs:
# its iterations reuse the same words, and held-out halves of a fixed list
# score slightly below 0.5. So "near chance" is the wider of a fixed band
# and SIGMAS standard errors of the independent-sample mean.
CHANCE_BAND = 0.1
SIGMAS = 6.0


def chance_tol(n: int, samples: int) -> float:
    """Allowed |AUC - 0.5| for the mean of `samples` held-out AUCs of a
    random list of n words (n - ceil(n/2) test positives and negatives)."""
    half = n - math.ceil(n / 2)
    var = (2 * half + 1) / (12.0 * half * half)  # Mann-Whitney null variance
    return max(CHANCE_BAND, SIGMAS * math.sqrt(var / samples))


def _config(seed: int, iterations: int, lists: int,
            list_size: int) -> experiment.ExperimentConfig:
    """The ExperimentConfig the CLI builds from the same flags."""
    return experiment.ExperimentConfig(
        iterations=iterations, random_list_count=lists,
        random_list_size=list_size, master_seed=seed, train=TrainConfig(),
        normalize=False, threshold=0.5,
    )


def _flags(cfg: experiment.ExperimentConfig, workers: int, out: str) -> list[str]:
    return [
        "--seed", str(cfg.master_seed), "--iterations", str(cfg.iterations),
        "--random-lists", str(cfg.random_list_count),
        "--random-list-size", str(cfg.random_list_size),
        "--workers", str(workers), "--out", out,
    ]


def _load(name: str, path: str):
    store = embeddings.load_embedding(embeddings.EmbeddingSourceSpec(path=path, lowercase=True))
    return replace(store, name=name)


def _resolve_all(inp: inputs.Inputs, store):
    return [
        concepts.resolve(concepts.load_concept(path, name), store)
        for name, path in inp.concepts.items()
    ]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _jsonl(path: str) -> list[dict]:
    return [json.loads(line) for line in _read(path).splitlines()]


class Workload:
    name = ""

    def __init__(self, seed: int, size: inputs.Size, inp: inputs.Inputs):
        self.seed, self.size, self.inp = seed, size, inp

    def commands(self, out: str, workers: int = 1) -> list[list[str]]:
        """CLI argument lists of one session, run in order."""
        raise NotImplementedError

    def fits(self) -> int:
        """Split/train/score/metrics passes in one session."""
        raise NotImplementedError

    def setup(self) -> None:
        """load_embedding through the last resolve, for every embedding."""
        raise NotImplementedError

    def check(self, out: str) -> list[str]:
        """Problems found in one session's outputs (empty when correct)."""
        raise NotImplementedError

    def mirror(self, out: str) -> dict[str, bytes]:
        """Repeat the session through the public functions; return the
        outputs it renders, keyed by the file name the CLI writes."""
        raise NotImplementedError

    def output_files(self, out: str) -> list[str]:
        return sorted(os.path.join(out, f) for f in os.listdir(out))


class EvalSmall(Workload):
    name = "eval-small"

    @property
    def cfg(self):
        s = self.size
        return _config(self.seed, s.eval_iterations, s.eval_lists, s.eval_sizes[0])

    def commands(self, out, workers=1):
        return [["eval", self.inp.manifest] + _flags(self.cfg, workers, out)]

    def fits(self):
        return self.size.eval_iterations * (len(self.size.eval_sizes) + self.size.eval_lists)

    def setup(self):
        for name, path in self.inp.embeddings.items():
            _resolve_all(self.inp, _load(name, path))

    def check(self, out):
        problems = []
        records = _jsonl(os.path.join(out, "gauss-eval.jsonl"))
        iters, lists = self.size.eval_iterations, self.size.eval_lists
        for rec in records:
            if rec["record"] == "concept":
                auc, n = rec["means"]["auc"], rec["resolved_size"]
                if rec["name"] == self.inp.planted:
                    if auc < PLANTED_MIN_AUC:
                        problems.append(f"planted concept AUC {auc} < {PLANTED_MIN_AUC}")
                elif abs(auc - 0.5) > chance_tol(n, iters):
                    problems.append(f"random concept {rec['name']} AUC {auc} not near 0.5")
                if not 0.0 < rec["p_auc"] <= 1.0:
                    problems.append(f"p-value {rec['p_auc']} outside (0, 1]")
            elif rec["record"] == "random_avg":
                if abs(rec["means"]["auc"] - 0.5) > chance_tol(rec["size"], iters * lists):
                    problems.append(f"random(avg) AUC {rec['means']['auc']} not near 0.5")
        kinds = sorted(r["record"] for r in records)
        want = sorted(["config", "random_avg", "random_max"] + ["concept"] * len(self.inp.concepts))
        if kinds != want:
            problems.append(f"eval JSONL records {kinds}")
        return problems

    def mirror(self, out):
        cfg, outputs = self.cfg, {}
        for name, path in self.inp.embeddings.items():
            store = _load(name, path)
            resolved = _resolve_all(self.inp, store)
            aggregates = [experiment.run_concept(store, rc, cfg, workers=1) for rc in resolved]
            null = experiment.run_null(store, cfg, workers=1)
            for fmt, render in (("txt", report.eval_report_text),
                                ("csv", report.eval_report_csv),
                                ("jsonl", report.eval_report_jsonl)):
                outputs[f"{name}-eval.{fmt}"] = render(name, aggregates, null, cfg).encode()
        return outputs

    def parallel_efficiency(self) -> float:
        """T(1 worker) / (2 x T(2 workers)) of the workload's null, untraced.
        The store is loaded beforehand, so both times cover only the lists."""
        name, path = next(iter(self.inp.embeddings.items()))
        store = _load(name, path)
        times = []
        for workers in (1, 2):
            t0 = perf_counter()
            experiment.run_null(store, self.cfg, workers=workers)
            times.append(perf_counter() - t0)
        return times[0] / (2.0 * times[1])


_COMPARE_ROW = re.compile(r"^(\S+)\s+([0-9.]+)\*?\s+([0-9.]+)\*?\s*$")
_COMPARE_P = re.compile(r"^wilcoxon .* p=(\S+)$")


class Roundtrip(Workload):
    name = "roundtrip"
    pair = ("base", "fresh")

    @property
    def cfg(self):
        s = self.size
        return _config(self.seed, s.roundtrip_iterations, 1000, 400)

    def commands(self, out, workers=1):
        a, b = self.pair
        gen = ["gen-random-embedding", self.inp.embeddings["fresh"],
               "--words", str(self.size.roundtrip_words), "--dim", str(self.size.dim),
               "--seed", str(self.inp.gen_seed)]
        cmp_ = ["compare", self.inp.manifest, a, b] + _flags(self.cfg, workers, out)
        return [gen, cmp_]

    def fits(self):
        return 2 * len(self.inp.concepts) * self.size.roundtrip_iterations

    def setup(self):
        for name, path in self.inp.embeddings.items():
            _resolve_all(self.inp, _load(name, path))

    def report_name(self):
        return "compare-{}-{}.txt".format(*self.pair)

    def output_files(self, out):
        return super().output_files(out) + [self.inp.embeddings["fresh"]]

    def check(self, out):
        problems = []
        text = _read(os.path.join(out, self.report_name()))
        rows = [m.groups() for m in map(_COMPARE_ROW.match, text.splitlines()) if m]
        rows = [r for r in rows if r[0] in self.inp.concepts]
        if len(rows) != len(self.inp.concepts):
            problems.append(f"compare report has {len(rows)} concept rows")
        iters = self.size.roundtrip_iterations
        for name, *aucs in rows:
            n = int(name.removeprefix("list"))
            for auc in map(float, aucs):
                # the report rounds to 3 decimals
                if abs(auc - 0.5) > chance_tol(n, iters) + 5e-4:
                    problems.append(f"compare AUC {auc} of {name} not near 0.5")
        ps = [m.group(1) for m in map(_COMPARE_P.match, text.splitlines()) if m]
        if len(ps) != 1 or not 0.0 < float(ps[0]) <= 1.0:
            problems.append(f"compare p-value missing or outside (0, 1]: {ps}")
        with open(self.inp.embeddings["fresh"], "rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != self.size.roundtrip_words:
            problems.append(f"generated embedding has {lines} lines, "
                            f"not {self.size.roundtrip_words}")
        return problems

    def mirror(self, out):
        cfg, outputs = self.cfg, {}
        fresh = os.path.join(out, "fresh.txt")
        store = embeddings.random_gaussian_embedding(
            inputs.vocabulary(self.size.roundtrip_words), self.size.dim, self.inp.gen_seed,
            name="gaussian",
        )
        embeddings.save_embedding(store, fresh)
        with open(fresh, "rb") as fh:
            outputs[os.path.basename(self.inp.embeddings["fresh"])] = fh.read()
        paths = {**self.inp.embeddings, "fresh": fresh}
        a, b = self.pair
        pair_key = f"pair:{a}:{b}"
        aucs = {}
        for name in self.pair:
            store = _load(name, paths[name])
            aucs[name] = {
                rc.concept.name: experiment.run_concept(
                    store, replace(rc, embedding_name=pair_key), cfg, workers=1
                ).means["auc"]
                for rc in _resolve_all(self.inp, store)
            }
        names = list(aucs[a])
        outcome, note = cli.compare_outcome(
            [aucs[a][n] for n in names], [aucs[b][n] for n in names], "two-sided"
        )
        outputs[self.report_name()] = report.compare_report_text(
            a, b, names, aucs[a], aucs[b], outcome, cfg, note
        ).encode()
        return outputs


WORKLOADS = {w.name: w for w in (EvalSmall, Roundtrip)}
