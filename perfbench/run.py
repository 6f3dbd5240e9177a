"""conceptlearn benchmark: times the `conceptlearn` CLI end to end and, in a
separate traced run, each layer through its public functions.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-small --seed 1 --seconds 55 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object; a readable table, the
environment fingerprint and the report hash go to standard error, and the
full result (plus spans, for traced runs) to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
CLI_TIMEOUT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "fits_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fingerprint() -> dict:
    """Library and BLAS stack, cores and thread settings behind a result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.startswith(("OMP_", "OPENBLAS_", "MKL_"))
        },
    }


class Launcher:
    """Client of launcher.py, which starts every CLI process (see there for
    why). CPU time and peak RSS come from wait4 on the CLI's pid, so they
    cover that process and the fork workers it reaped, and nothing else."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, log_path: str) -> dict:
        request = {
            "argv": [sys.executable, "-m", "conceptlearn.cli", *argv],
            "env": env, "log": log_path, "timeout": CLI_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return {"argv": argv[0], **json.loads(reply)}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CLI_TIMEOUT_S)
        self.proc.stdout.close()


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Session:
    """Runs the workload's CLI invocations and checks what they write."""

    def __init__(self, wl, work: str, launcher: Launcher):
        self.wl, self.work, self.launcher = wl, work, launcher
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.count = 0
        self.first_digest = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run(self, workers: int = 1) -> dict:
        out = os.path.join(self.work, f"out{self.count}")
        self.count += 1
        os.makedirs(out)
        procs = []
        t0 = perf_counter()
        for argv in self.wl.commands(out, workers):
            procs.append(self.launcher.run(argv, self.env, os.path.join(self.work, "cli.log")))
            if procs[-1]["code"] != 0:
                break
        wall = perf_counter() - t0
        self.attempted += len(procs)
        bad = [p for p in procs if p["code"] != 0]
        problems = [f"{p['argv']} exited {p['code']}" for p in bad]
        if not bad:
            try:
                problems = self.wl.check(out)
                sha = digest(self.wl.output_files(out))
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
                problems, sha = [f"unreadable output: {exc!r}"], None
            if self.first_digest is None:
                self.first_digest = sha
            elif sha != self.first_digest:
                problems.append("outputs differ from the first session's")
        self.fail(problems, len(bad) or 1)
        return {
            "out": out, "wall_s": wall, "procs": procs,
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "rss_mb": max(p["rss_mb"] for p in procs),
        }

    def fail(self, problems: list[str], count: int = 1) -> None:
        if problems:
            self.failed += count
            self.problems += problems


def time_setup(wl) -> float:
    gc.collect()
    t0 = perf_counter()
    wl.setup()
    return perf_counter() - t0


def timed_runs(wl, session: Session, seconds: float) -> tuple[dict, list]:
    """Untraced: alternate a CLI session and an in-process set-up for
    `seconds`, so that both are sampled across the whole run. A session is
    not started when a typical session plus set-up would end past the
    deadline, but at least one session and `setup_repeats` set-ups run.
    Reports medians."""
    runs, setups = [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        runs.append(session.run())
        shutil.rmtree(runs[-1]["out"])
        setups.append(time_setup(wl))
        now = perf_counter()
        if now + (now - start) / len(runs) > deadline:
            break
    while len(setups) < wl.size.setup_repeats:
        setups.append(time_setup(wl))
    med = statistics.median
    metrics = {
        "wall_s": med(r["wall_s"] for r in runs),
        "fits_per_s": med(wl.fits() / r["wall_s"] for r in runs),
        "cpu_s": med(r["cpu_s"] for r in runs),
        "peak_rss_mb": med(r["rss_mb"] for r in runs),
        "setup_s": med(setups),
    }
    return metrics, runs


def traced_run(wl, session: Session, run_id: str, spans_path: str) -> tuple[dict, list]:
    """One untraced session for reference and one at 2 workers, whose
    outputs must be identical; then the same tasks through the public
    functions with a span at each call, whose outputs must equal the CLI's
    byte for byte."""
    import tracing

    ref = session.run()
    par = session.run(workers=2)
    mirror_dir = os.path.join(session.work, "mirror")
    os.makedirs(mirror_dir)
    tracer = tracing.Tracer(run_id)
    gc.collect()
    t0 = perf_counter()
    with tracer.patched():
        outputs = wl.mirror(mirror_dir)
    traced_wall = perf_counter() - t0
    cli_files = {os.path.basename(p): p for p in wl.output_files(ref["out"])}
    session.attempted += 1
    mismatched = []
    for name, data in outputs.items():
        with open(cli_files.get(name, os.devnull), "rb") as fh:
            if fh.read() != data:
                mismatched.append(name)
    if set(outputs) != set(cli_files):
        mismatched.append(f"file sets {sorted(outputs)} vs {sorted(cli_files)}")
    session.fail([f"mirror differs from the CLI: {m}" for m in mismatched])
    del outputs
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans, ref["wall_s"], traced_wall)
    pe = getattr(wl, "parallel_efficiency", None)
    metrics["experiment.parallel_efficiency"] = pe() if pe else 0.0
    return metrics, [ref, par]


def run_workload(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool,
                 size_name: str) -> dict:
    import inputs
    import tracing
    from workloads import WORKLOADS

    size = inputs.SIZES[size_name]
    tag = f"{name}-s{seed}-t{int(trace)}"
    work = os.path.join(ROOT, ".bench_work", f"{tag}-p{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        inp = inputs.make_inputs(name, seed, size, os.path.join(work, "inputs"))
        wl = WORKLOADS[name](seed, size, inp)
        session = Session(wl, work, launcher)
        if trace:
            metrics, runs = traced_run(wl, session, tag, os.path.join(outdir, f"{tag}-spans.jsonl"))
        else:
            metrics, runs = timed_runs(wl, session, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    units = tracing.UNITS if trace else END_TO_END
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size_name, "fits_per_session": wl.fits(),
        "error_rate": session.failed / session.attempted,
        "report_sha256": session.first_digest, "problems": session.problems,
        "env": fingerprint(), "sessions": runs, **result,
    }
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print_table(detail)
    return result


def print_table(detail: dict) -> None:
    err = sys.stderr
    print(f"== {detail['workload']} seed={detail['seed']} trace={int(detail['trace'])} "
          f"size={detail['size']} fits/session={detail['fits_per_session']}", file=err)
    for k, m in detail["metrics"].items():
        print(f"  {k:<34} {m['value']:>16.6g} {m['unit']}", file=err)
    print(f"  {'error_rate':<34} {detail['error_rate']:>16.6g} "
          f"({detail['failed']}/{detail['attempted']})", file=err)
    print(f"  report_sha256 {detail['report_sha256']}", file=err)
    print(f"  env {json.dumps(detail['env'], sort_keys=True)}", file=err)
    for p in detail["problems"]:
        print(f"  PROBLEM: {p}", file=err)


def main(argv=None) -> int:
    names = ("eval-small", "roundtrip")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the whole pipeline at toy size, in seconds")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conceptlearn", "cli.py")):
        print(f"error: run from the root of a conceptlearn checkout "
              f"(no src/conceptlearn in {ROOT})", file=sys.stderr)
        return 2
    launcher = Launcher()  # first, while this process is still small
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        if args.workload != "all":
            result = run_workload(launcher, args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.size)
        else:
            result = {
                f"{name}/trace{trace}": run_workload(
                    launcher, name, args.seed, args.seconds, bool(trace), args.size)
                for name in names for trace in (0, 1)
            }
    finally:
        launcher.close()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
