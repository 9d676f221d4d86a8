"""The local CI runner, tests/run_workflow.py, on a synthetic workflow: it
skips the `uses:` and `pip install` steps, carries GITHUB_ENV lines and the
job's `env` into later steps, and stops at the first failing step."""

import textwrap

import pytest

pytest.importorskip("yaml")

import run_workflow

STEPS = """\
- uses: actions/checkout@v4
- name: Install, which leaves a file if it runs
  run: touch installed && echo python -m pip install .
- run: echo "FOO=bar" >> "$GITHUB_ENV"
- run: |
    test "$FOO" = bar
    test "$JOB_VALUE" = job
    touch first
- run: exit 3
- run: touch second
"""


def write_workflow(path, steps):
    job = "jobs:\n  only:\n    env:\n      JOB_VALUE: job\n    steps:\n" + textwrap.indent(steps, " " * 6)
    path.write_text(job)


def test_runner_skips_exports_and_stops_at_the_first_failure(tmp_path, monkeypatch):
    workflow = tmp_path / "tests.yml"
    monkeypatch.setattr(run_workflow, "ROOT", tmp_path)
    monkeypatch.setattr(run_workflow, "WORKFLOW", workflow)
    write_workflow(workflow, STEPS)
    assert run_workflow.main() == 1
    assert (tmp_path / "first").exists()
    assert not (tmp_path / "second").exists()
    assert not (tmp_path / "installed").exists()
    write_workflow(workflow, STEPS.replace("- run: exit 3\n", ""))
    assert run_workflow.main() == 0
    assert (tmp_path / "second").exists()
