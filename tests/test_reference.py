"""Every non-QNN grid point against the textbook reference of
`tests/reference.py`, which composes the pipeline end to end without the
package."""

import ast
import csv
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import capacity
from ghzsdc.harness import CorrectionPipeline, SweepConfig, run_sweep
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage
from ghzsdc.sdc import distribute

import reference

TESTS_DIR = pathlib.Path(__file__).parent
COLUMNS = ("avg_fidelity", "holevo", "coherent_info", "quantum_capacity")


def test_reference_imports_only_numpy():
    # numpy and the standard library only: nothing reaches the package, not
    # even through a test helper
    tree = ast.parse((TESTS_DIR / "reference.py").read_text())
    roots = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    roots |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert roots == {"functools", "numpy"}


@settings(max_examples=60, deadline=None)
@example(kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, pipeline="raw", n=4, p=0.5)
@example(kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, pipeline="purify",
         n=4, p=1.0)
@example(kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, pipeline="purify", n=3, p=0.0)
@example(kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, pipeline="raw", n=3, p=1.0)
@example(kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN, pipeline="raw", n=4, p=1.0)
@example(kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_ONLY, pipeline="raw", n=3,
         p=1 - 2 ** -52)
@given(kind=st.sampled_from(NoiseKind), stage=st.sampled_from(NoiseStage),
       pipeline=st.sampled_from(["raw", "purify"]), n=st.integers(3, 4), p=st.floats(0.0, 1.0))
def test_sweep_point_matches_reference(kind, stage, pipeline, n, p):
    rounds = 1 if pipeline == "purify" else 0
    want = reference.score(kind.value, p, n, stage is NoiseStage.DISTRIBUTION_AND_RETURN, rounds)
    (record,) = run_sweep(SweepConfig(noise_kind=kind, p_start=p, p_stop=p, p_step=0.1, n=n,
                                      pipeline=pipeline, noise_stage=stage))
    if want["min_overlap"] < 1e-8:
        # the reference's overlap carries about 1e-16 of rounding error,
        # which its square root inflates past 1e-12 this close to 0, so the
        # fidelity is held through its square there
        assert abs(record.avg_fidelity ** 2 - want["avg_fidelity"] ** 2) < 1e-12
    else:
        assert abs(record.avg_fidelity - want["avg_fidelity"]) < 1e-12
    for name in COLUMNS[1:]:
        assert abs(getattr(record, name) - want[name]) < 1e-12, name
    spec = NoiseSpec(kind, p, stage)
    rep = capacity.report(CorrectionPipeline(purify_rounds=rounds)(distribute(n, spec)), spec)
    assert abs(rep.entropy_exchange - want["entropy_exchange"]) < 1e-12


@pytest.mark.parametrize("name, stage", [
    ("sweep_ad_purify_n3.csv", NoiseStage.DISTRIBUTION_ONLY),
    ("sweep_both_ad_purify_n4.csv", NoiseStage.DISTRIBUTION_AND_RETURN),
    ("sweep_both_depol_raw_n4.csv", NoiseStage.DISTRIBUTION_AND_RETURN),
])
def test_golden_rows_match_reference(name, stage):
    # the goldens print 12 significant digits, values up to n
    with open(TESTS_DIR / "data" / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        rounds = {"raw": 0, "purify": 1}[row["pipeline"]]
        want = reference.score(row["noise"], float(row["p"]), int(row["n"]),
                               stage is NoiseStage.DISTRIBUTION_AND_RETURN, rounds)
        for name in COLUMNS:
            assert abs(float(row[name]) - want[name]) < 1e-11, (row["p"], name)
        assert row["classical_capacity"] == row["holevo"]
