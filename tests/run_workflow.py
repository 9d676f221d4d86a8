"""Run the CI workflow's `run:` steps locally, in order, as the hosted runner
would:

    python tests/run_workflow.py

It reads .github/workflows/tests.yml (PyYAML must be installed) and runs each
`run:` step with `bash -e` from the root of the tree, under the workflow's,
the job's and the step's `env`. RUNNER_TEMP and GITHUB_ENV point into a
temporary directory, and the NAME=value lines a step appends to GITHUB_ENV
are set for every later step. The `uses:` steps and the `pip install` step
are skipped: in place of the installed package, `src` goes on PYTHONPATH,
and a directory on PATH holds a `ghzsdc` shim that runs `python -m
ghzsdc.cli`, and `python` and `python3` shims, all on the interpreter that
runs this script. The run stops at the first failing step and exits non-zero.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def skipped(step: dict) -> bool:
    return "uses" in step or "pip install" in step.get("run", "")


def env_of(block: dict) -> dict:
    """The `env` of a workflow, job or step, every value as a string."""
    return {name: str(value) for name, value in (block.get("env") or {}).items()}


def read_env_file(path: Path) -> dict:
    """The NAME=value lines of a GITHUB_ENV file."""
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if line.strip())
    return {name: value for name, value in pairs}


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    with tempfile.TemporaryDirectory(prefix="ghzsdc-workflow-") as tmp:
        tmp = Path(tmp)
        shims = tmp / "bin"
        shims.mkdir()
        for name, args in (("ghzsdc", " -m ghzsdc.cli"), ("python", ""), ("python3", "")):
            (shims / name).write_text(f'#!/bin/sh\nexec "{sys.executable}"{args} "$@"\n')
            (shims / name).chmod(0o755)
        runner_temp = tmp / "runner"
        runner_temp.mkdir()
        base = {**os.environ, "RUNNER_TEMP": str(runner_temp),
                "PATH": os.pathsep.join([str(shims), os.environ["PATH"]]),
                "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
                **env_of(workflow)}
        passed = 0
        for job_name, job in workflow["jobs"].items():
            exported = {}
            for index, step in enumerate(job["steps"]):
                name = step.get("name") or step.get("uses") or f"Run {step['run'].splitlines()[0]}"
                if skipped(step):
                    print(f"skipped  {job_name}: {name}", flush=True)
                    continue
                env_file = tmp / f"env-{job_name}-{index}"
                env_file.write_text("")
                script = tmp / f"step-{job_name}-{index}.sh"
                script.write_text(step["run"])
                env = {**base, **env_of(job), **exported, **env_of(step), "GITHUB_ENV": str(env_file)}
                print(f"running  {job_name}: {name}", flush=True)
                start = time.perf_counter()
                status = subprocess.run(["bash", "-e", str(script)], cwd=ROOT, env=env).returncode
                elapsed = time.perf_counter() - start
                if status != 0:
                    print(f"FAILED   {job_name}: {name} (exit {status}, {elapsed:.1f} s)", flush=True)
                    print(f"{passed} run: steps passed before it")
                    return 1
                passed += 1
                print(f"passed   {job_name}: {name} ({elapsed:.1f} s)", flush=True)
                exported.update(read_env_file(env_file))
    print(f"all {passed} run: steps passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
