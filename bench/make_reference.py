"""Regenerate the reference records the sweep benchmark checks against.

Run from the repository root, only when the physics is meant to change:

    python3 bench/make_reference.py

Writes bench/reference/<workload>.csv for every workload in
bench/workloads.json. A seed-independent workload stores the records of CLI
seed 0 (seed 1 is run too and must give the same values); any other
workload stores the records of every seed in the shipped pool.
"""

from __future__ import annotations

import sys

import run_bench


def records(cli, workload, cli_seed):
    out = run_bench.OUT / "reference.csv"
    rc, _, log = run_bench.run_sweep(cli, workload, cli_seed, out)
    if rc != 0:
        raise SystemExit(f"sweep failed at seed {cli_seed}: {log}")
    header, *rows = out.read_text().splitlines()
    return header, rows


def main() -> int:
    _, spec = run_bench.load_spec()
    cli = run_bench.load_package()
    run_bench.OUT.mkdir(exist_ok=True)
    (run_bench.BENCH / "reference").mkdir(exist_ok=True)
    for name, workload in spec["workloads"].items():
        if workload["seed_independent"]:
            header, rows = records(cli, workload, 0)
            _, again = records(cli, workload, 1)
            if [r.rsplit(",", 1)[0] for r in rows] != [r.rsplit(",", 1)[0] for r in again]:
                raise SystemExit(f"{name}: records depend on the CLI seed")
        else:
            rows = []
            for cli_seed in range(spec["seed_pool"]):
                header, seed_rows = records(cli, workload, cli_seed)
                rows += seed_rows
        (run_bench.BENCH / "reference" / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n")
        print(f"{name}: {len(rows)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
