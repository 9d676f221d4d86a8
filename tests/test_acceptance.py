"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single pass line so the gate output doubles as a
checklist. The dimension-degradation criterion carries the slow marker;
run the full gate with `pytest -m ""` or `pytest tests/test_acceptance.py`.
"""

import pathlib
import time

import numpy as np
import pytest

from ghzsdc import qcore, qnn
from ghzsdc.harness import SweepConfig, emit_records, run_sweep, trajectory_pairs
from ghzsdc.noise import NoiseKind, NoiseStage, make_channel
from ghzsdc.purify import purify_iterated
from ghzsdc.qcore import QuantumChannel, StateVector
from ghzsdc.sdc import Codeword, encode_usdc, ghz_fidelity, shared_state

import full_space
import reference
from full_space import apply_channel, entropy_exchange, ideal_received_state, stinespring_environment_entropy

DATA_DIR = pathlib.Path(__file__).parent / "data"


def test_criterion_1_noiseless_capacity_anchor():
    start = time.perf_counter()
    cfg = SweepConfig(noise_kind=NoiseKind.BIT_FLIP, p_start=0.0, p_stop=0.0,
                      p_step=0.1, n=3, pipeline="raw", seed=0)
    record = run_sweep(cfg)[0]
    elapsed = time.perf_counter() - start
    assert abs(record.holevo - 3.0) < 1e-9
    assert abs(record.avg_fidelity - 1.0) < 1e-9
    assert elapsed < 1.0, f"noiseless sweep took {elapsed:.2f} s"
    print("criterion 1: pass (holevo 3.0, fidelity 1.0 at p=0)")


def test_criterion_2_encoder_correctness():
    start = time.perf_counter()
    for value in range(8):
        got = np.kron(qcore.I2, encode_usdc(Codeword(3, value)).matrix)
        assert np.max(np.abs(got - reference.encoder(3, value))) < 1e-12, f"operator mismatch at {value:03b}"
    for n in (3, 4, 5, 6):
        images = np.array([ideal_received_state(Codeword(n, v)).amplitudes
                           for v in range(2 ** n)])
        gram = images.conj() @ images.T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-10, f"non-orthonormal at n={n}"
        basis = full_space.ghz_basis(n)
        overlaps = np.abs(images.conj() @ basis.T)
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1, atol=1e-10), \
            f"images leave the entangled basis at n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"encoder check took {elapsed:.2f} s"
    print("criterion 2: pass (encoder images orthonormal for n=3..6)")


def test_criterion_3_half_capacity_claim():
    # the protocol degrades both on distribution and on the return of
    # Alice's qubits; the half-capacity statement holds for that stage
    start = time.perf_counter()
    violations = []
    for kind in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.DEPOLARIZING):
        cfg = SweepConfig(noise_kind=kind, p_start=0.25, p_stop=0.8, p_step=0.05,
                          n=3, pipeline="raw",
                          noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN, seed=0)
        for record in run_sweep(cfg):
            if record.holevo >= 1.5:
                violations.append((kind.value, record.p, record.holevo))
    elapsed = time.perf_counter() - start
    assert not violations, f"holevo >= 1.5 bits at: {violations}"
    assert elapsed < 30.0, f"half-capacity sweep took {elapsed:.2f} s"
    print("criterion 3: pass (holevo < 1.5 bits on p in [0.25, 0.8])")


def test_criterion_4_purification_gain():
    start = time.perf_counter()
    for n in (2, 3):
        for q in (0.05, 0.15, 0.25, 0.35, 0.45):
            copy = apply_channel(shared_state(n).density(),
                                 make_channel(NoiseKind.BIT_FLIP, q), [0])
            result = purify_iterated(copy, 1)
            assert ghz_fidelity(result.kept_state) > ghz_fidelity(copy), f"no gain at n={n}, q={q}"
            # oracle: explicit CNOT layer on the pair, then post-selection
            kept, success = reference.purify(copy.matrix, n)
            assert abs(result.success_probability - success) < 1e-9
            assert np.max(np.abs(result.kept_state.matrix - kept)) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"purification check took {elapsed:.2f} s"
    print("criterion 4: pass (one-round gain matches the brute-force oracle)")


def test_criterion_5_training_sanity():
    start = time.perf_counter()
    # unknown-unitary task: fixed Haar-ish target, fresh network per seed
    gen = np.random.default_rng(7)
    h = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    h = (h + h.conj().T) / 2
    w, v = np.linalg.eigh(h)
    target_u = (v * np.exp(1j * w)) @ v.conj().T
    inputs = [np.array([1, 0]), np.array([0, 1]),
              np.array([1, 1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2)]
    pairs = [qnn.TrainingPair(StateVector(a.astype(complex)), StateVector(target_u @ a))
             for a in inputs]
    for seed in (0, 1, 2):
        _, report = qnn.train(pairs, max_iters=1000, tol=1e-9, rng_seed=seed)
        assert report.final_cost >= 0.98, f"seed {seed} stalled at {report.final_cost:.4f}"

    damping_pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 100)
    _, report = qnn.train(damping_pairs, max_iters=400, rng_seed=0)
    assert 0.84 <= report.final_cost <= 1.0, f"n=2 damping cost {report.final_cost:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"training sanity took {elapsed:.2f} s"
    print(f"criterion 5: pass (unitary task converged on 3/3 seeds; "
          f"n=2 damping cost {report.final_cost:.4f})")


@pytest.mark.slow
def test_criterion_6_dimension_five_degradation():
    start = time.perf_counter()
    finals = {}
    for n in (2, 3, 4, 5):
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, n, 0.3, 0, 100)
        _, report = qnn.train(pairs, max_iters=2000, rng_seed=0)
        finals[n] = report.final_cost
    elapsed = time.perf_counter() - start
    small = min(finals[n] for n in (2, 3, 4))
    assert finals[5] < small, \
        f"n=5 cost {finals[5]:.4f} not below min(n=2..4) = {small:.4f}"
    assert elapsed < 1800.0, f"dimension study took {elapsed:.2f} s"
    print(f"criterion 6: pass (final costs {finals}; n=5 strictly lowest)")


def test_criterion_7_entropy_exchange_oracle():
    ens = [ideal_received_state(Codeword(3, v)).density() for v in range(8)]
    identity = QuantumChannel((np.eye(8),))
    assert abs(entropy_exchange(ens, identity)) < 1e-12

    for kind in (NoiseKind.AMPLITUDE_DAMPING, NoiseKind.DEPOLARIZING):
        for p in (0.0, 0.3, 0.7, 1.0):
            single = make_channel(kind, p)
            ch = QuantumChannel(tuple(np.kron(k, np.eye(4)) for k in single.kraus_ops))
            got = entropy_exchange(ens, ch)
            want = stinespring_environment_entropy(ens, ch)
            assert abs(got - want) < 1e-8, f"{kind.value} p={p}: {got} vs {want}"
    print("criterion 7: pass (entropy exchange matches the Stinespring oracle)")


def test_criterion_8_superposition_of_improvements():
    results = {}
    for pipeline in ("purify", "qnn", "purify-qnn"):
        per_seed = []
        for seed in (0, 1, 2):
            cfg = SweepConfig(noise_kind=NoiseKind.BIT_FLIP, p_start=0.2, p_stop=0.2,
                              p_step=0.1, n=3, pipeline=pipeline, rounds=1,
                              train_at=None if pipeline == "purify" else 0.2,
                              train_iters=600, seed=seed)
            per_seed.append(run_sweep(cfg)[0].avg_fidelity)
        results[pipeline] = float(np.mean(per_seed))
    combined = results["purify-qnn"]
    floor = max(results["purify"], results["qnn"]) - 0.02
    assert combined >= floor, \
        f"combined {combined:.4f} below max(purify, qnn) - 0.02 = {floor:.4f}"
    print(f"criterion 8: pass (purify {results['purify']:.4f}, qnn {results['qnn']:.4f}, "
          f"combined {combined:.4f})")


def test_criterion_9_determinism_and_format(tmp_path):
    cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=0.0,
                      p_stop=0.3, p_step=0.15, n=3, pipeline="purify",
                      rounds=1, seed=0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_records(run_sweep(cfg), a)
    emit_records(run_sweep(cfg), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == (DATA_DIR / "sweep_ad_purify_n3.csv").read_text()
    print("criterion 9: pass (byte-identical reruns; golden file matches)")
