"""Sweep benchmark for the ghzsdc command line.

Run from the repository root:

    python3 bench/run_bench.py --workload purify-ad-n4 --seed 1 --seconds 30 --trace 0

A workload is one `ghzsdc sweep` configuration (bench/workloads.json), run
in-process through `ghzsdc.cli.main([...])` exactly as the console script
runs it. The CLI seed of each sweep is drawn from a shipped pool of seeds in
an order fixed by --seed, so every emitted record is compared with a stored
reference (bench/reference/) and with the `SweepRecord` invariants.

--trace 0 times whole sweeps for --seconds and reports the end-to-end
metrics of BENCHMARK.json: sweep_s, setup_s (fresh interpreter importing
ghzsdc and building the CLI parser) and peak_rss_mb. Grid points that raise
or miss the reference count as failed; error_rate is failed / attempted.

--trace 1 repeats cycles of one untraced and two traced sweeps of a single
CLI seed and reports the per-layer metrics of BENCHMARK.json from the spans
(see tracing.py). It checks that both traced sweeps give identical work
counts and that traced and untraced sweeps write byte-identical CSVs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Spans and a full result file are written to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"

BLAS_THREADS = 1
MIN_SWEEPS = 3
SETUP_SAMPLES = 9
SETUP_CODE = "import ghzsdc.cli; ghzsdc.cli.build_parser()"
NUMERIC = ("p", "avg_fidelity", "holevo", "classical_capacity", "coherent_info",
           "quantum_capacity")


def load_spec():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH / "workloads.json").read_text())
    return benchmark, workloads


def load_package():
    """Import ghzsdc from this checkout's src/ with BLAS threads pinned.

    The pin must be in the environment before numpy is first imported."""
    if not (SRC / "ghzsdc" / "__init__.py").is_file():
        raise SystemExit(f"no ghzsdc package under {SRC}; run from a full checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import ghzsdc.cli
    if Path(ghzsdc.__file__).resolve().parent != (SRC / "ghzsdc").resolve():
        raise SystemExit(f"imported ghzsdc from {ghzsdc.__file__}, not from {SRC}")
    return ghzsdc.cli


def run_sweep(cli, workload: dict, cli_seed: int, out: Path):
    """One `ghzsdc sweep` call writing `out`; returns (exit code, wall
    seconds, captured output)."""
    argv = ["sweep", *workload["args"], "--seed", str(cli_seed), "--out", str(out)]
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    return rc, wall, sink.getvalue()


# ---------------------------------------------------------------------------
# Correctness: every emitted record against the stored reference.

class Reference:
    def __init__(self, name: str, workload: dict):
        lines = (BENCH / "reference" / f"{name}.csv").read_text().splitlines()
        self.header = lines[0]
        self.columns = self.header.split(",")
        self.tolerance = workload["tolerance"]
        self.seed_independent = workload["seed_independent"]
        self.rows = {}
        for line in lines[1:]:
            row = line.split(",")
            self.rows.setdefault(int(row[-1]), []).append(row)

    def expected(self, cli_seed: int) -> list:
        if self.seed_independent:
            return [row[:-1] + [str(cli_seed)] for row in self.rows[0]]
        return self.rows[cli_seed]

    def _close(self, got: str, want: str) -> bool:
        try:
            g, w = float(got), float(want)
        except ValueError:
            return False
        return abs(g - w) <= self.tolerance * max(1.0, abs(w))

    def _invariants_hold(self, rec: dict) -> bool:
        """The SweepRecord invariants, re-checked on the emitted text."""
        try:
            v = {k: float(rec[k]) for k in NUMERIC}
            n = int(rec["n"])
        except ValueError:
            return False
        tol = self.tolerance
        return (all(math.isfinite(x) for x in v.values())
                and 0.0 <= v["avg_fidelity"] <= 1.0 + 1e-9
                and -tol <= v["holevo"] <= n + tol
                and abs(v["classical_capacity"] - v["holevo"]) <= tol
                and abs(v["quantum_capacity"] - max(v["coherent_info"], 0.0)) <= tol)

    def check(self, rc: int, csv_path: Path, cli_seed: int):
        """Returns (points attempted, points failed, problem or None)."""
        want = self.expected(cli_seed)
        if rc != 0:
            return len(want), len(want), f"exit code {rc}"
        lines = csv_path.read_text().splitlines()
        if not lines or lines[0] != self.header or len(lines) - 1 != len(want):
            return len(want), len(want), "header or record count differs from the reference"
        failed = 0
        for line, ref in zip(lines[1:], want):
            got = line.split(",")
            rec = dict(zip(self.columns, got))
            same = len(got) == len(ref) and all(
                self._close(g, w) if c in NUMERIC else g == w
                for c, g, w in zip(self.columns, got, ref))
            if not (same and self._invariants_hold(rec)):
                failed += 1
        problem = f"{failed} record(s) differ from the reference" if failed else None
        return len(want), failed, problem


# ---------------------------------------------------------------------------
# Provenance and statistics.

def git_rev():
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(np) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzsdc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_rev": git_rev(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def summary(values: list) -> dict:
    """Median, quartiles, sample count and the highest percentile that has
    at least ten samples beyond it (when the run holds that many)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    if n >= 20:
        out[f"p{math.floor(100 * (n - 10) / n)}"] = values[n - 11]
    return out


def describe(name: str, unit: str, s: dict) -> str:
    extra = ", ".join(f"{k} {v:.6g}" for k, v in s.items() if k not in ("n", "median"))
    return f"{name}: median {s['median']:.6g} {unit} (n={s['n']}{', ' + extra if extra else ''})"


def measure_setup() -> list:
    """Wall time of fresh interpreters importing ghzsdc and building the
    CLI parser, the cost every CLI call pays before any work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which quantises the measured time
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# The two kinds of run.

def untraced_run(cli, ctx, seconds: float):
    durations, attempted, failed, problems = [], 0, 0, []
    csv_path = OUT / f"{ctx['name']}.csv"
    start = time.perf_counter()
    for i in itertools.count():
        cli_seed = ctx["order"][i % len(ctx["order"])]
        rc, wall, log = run_sweep(cli, ctx["workload"], cli_seed, csv_path)
        a, f, problem = ctx["reference"].check(rc, csv_path, cli_seed)
        attempted, failed = attempted + a, failed + f
        if problem:
            problems.append(f"seed {cli_seed}: {problem} {log.strip()}")
        durations.append(wall)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_SWEEPS and elapsed + statistics.median(durations) > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = measure_setup()
    stats = {"sweep_s": summary(durations), "setup_s": summary(setup)}
    metrics = {"sweep_s": stats["sweep_s"]["median"], "setup_s": stats["setup_s"]["median"],
               "peak_rss_mb": rss_mb}
    return metrics, stats, attempted, failed, problems


def traced_run(cli, tracing, ctx, seconds: float):
    cli_seed = ctx["order"][0]
    plain_csv, traced_csv = OUT / f"{ctx['name']}.csv", OUT / f"{ctx['name']}.traced.csv"
    untraced, tracers, per_sweep = [], [], []
    attempted, failed, problems = 0, 0, []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        rc, wall, log = run_sweep(cli, ctx["workload"], cli_seed, plain_csv)
        untraced.append(wall)
        results = [(rc, plain_csv, log)]
        plain_bytes = plain_csv.read_bytes() if rc == 0 else b""
        for _ in range(2):
            tracer = tracing.Tracer(len(tracers))
            with tracer.installed():
                rc, wall, log = run_sweep(cli, ctx["workload"], cli_seed, traced_csv)
            results.append((rc, traced_csv, log))
            if rc == 0 and traced_csv.read_bytes() != plain_bytes:
                problems.append("traced and untraced sweeps wrote different CSVs")
            if tracers and tracer.work_counts() != tracers[0].work_counts():
                problems.append("two traced sweeps gave different work counts")
            tracers.append(tracer)
            per_sweep.append(tracer.layer_metrics(wall))
        for rc, path, log in results:
            a, f, problem = ctx["reference"].check(rc, path, cli_seed)
            attempted, failed = attempted + a, failed + f
            if problem:
                problems.append(f"seed {cli_seed}: {problem} {log.strip()}")
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break
    metrics = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}
    metrics["trace.untraced_sweep_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.sweep_s"] - metrics["trace.untraced_sweep_s"]
    with open(OUT / f"{ctx['name']}.spans.jsonl", "w") as fh:
        for tracer in tracers:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    stats = {"trace.sweep_s": summary([m["trace.sweep_s"] for m in per_sweep]),
             "trace.untraced_sweep_s": summary(untraced),
             "work_counts": tracers[0].work_counts()}
    return metrics, stats, attempted, failed, sorted(set(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchmark, spec = load_spec()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")
    cli = load_package()
    import numpy as np
    import tracing

    workload = spec["workloads"][args.workload]
    ctx = {
        "name": args.workload,
        "workload": workload,
        "reference": Reference(args.workload, workload),
        "order": random.Random(args.seed).sample(range(spec["seed_pool"]), spec["seed_pool"]),
    }
    prov = provenance(np)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, stats, attempted, failed, problems = traced_run(cli, tracing, ctx, args.seconds)
        declared = benchmark["per_layer"]
    else:
        metrics, stats, attempted, failed, problems = untraced_run(cli, ctx, args.seconds)
        declared = benchmark["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print("provenance: " + json.dumps(prov))
    print(f"workload {args.workload}: ghzsdc sweep {' '.join(workload['args'])}")
    print(f"CLI seeds from a pool of {spec['seed_pool']} in the order of --seed {args.seed}; "
          f"every record checked against its stored reference (tolerance "
          f"{workload['tolerance']:g}) and the SweepRecord invariants")
    for name, s in stats.items():
        if name != "work_counts":
            print(describe(name, "s", s))
    for m in declared:
        print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} grid points)")
    for problem in problems:
        print(f"problem: {problem}")

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, provenance=prov, stats=stats,
             problems=problems), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
