"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test prints a single pass line so the gate output doubles as a
checklist. The dimension-degradation criterion carries the slow marker;
run the full gate with `pytest -m ""` or `pytest tests/test_acceptance.py`.
"""

import pathlib
import time

import numpy as np
import pytest

from ghzsdc import capacity, qcore, qnn
from ghzsdc.capacity import entropy_exchange
from ghzsdc.harness import SweepConfig, emit_records, run_sweep
from ghzsdc.noise import NoiseKind, NoiseStage, make_channel, sample_trajectory
from ghzsdc.purify import purify_round
from ghzsdc.qcore import QuantumChannel, StateVector
from ghzsdc.sdc import Codeword, encode_usdc, ghz_basis, ideal_received_state, shared_state

DATA_DIR = pathlib.Path(__file__).parent / "data"

TABLE_OPERATORS = {
    0b000: np.kron(qcore.I2, qcore.I2),
    0b001: np.kron(qcore.SIGMA_Z, qcore.I2),
    0b010: np.kron(qcore.I2, qcore.SIGMA_X),
    0b011: np.kron(qcore.SIGMA_Z, qcore.SIGMA_X),
    0b100: np.kron(qcore.SIGMA_X, qcore.I2),
    0b101: np.kron(-1j * qcore.SIGMA_Y, qcore.I2),
    0b110: np.kron(qcore.SIGMA_X, qcore.SIGMA_X),
    0b111: np.kron(-1j * qcore.SIGMA_Y, qcore.SIGMA_X),
}


def trajectory_pairs(n, kind, p, count, seed):
    psi = shared_state(n)
    ch = make_channel(kind, p)
    seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=count)
    return [qnn.TrainingPair(sample_trajectory(psi, ch, [0], int(s)), psi) for s in seeds]


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
    for value, want in TABLE_OPERATORS.items():
        got = encode_usdc(Codeword(3, value)).matrix
        assert np.max(np.abs(got - want)) < 1e-12, f"operator mismatch at {value:03b}"
    for n in (3, 4, 5, 6):
        images = np.array([ideal_received_state(n, Codeword(n, v)).amplitudes
                           for v in range(2 ** n)])
        gram = images.conj() @ images.T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-10, f"non-orthonormal at n={n}"
        basis = np.array([s.amplitudes for s in ghz_basis(n).states])
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
            copy = qcore.apply_channel(shared_state(n).density(),
                                       make_channel(NoiseKind.BIT_FLIP, q), [0])
            result = purify_round(qcore.tensor_product(copy, copy))
            assert result.fidelity_after > result.fidelity_before, f"no gain at n={n}, q={q}"
            # oracle: explicit embedded conjugation plus projector post-selection
            m = 2 * n
            layer = np.eye(2 ** m, dtype=complex)
            for i in range(n):
                layer = qcore.embedded_matrix(qcore.CNOT, [i, n + i], m) @ layer
            rho = layer @ qcore.tensor_product(copy, copy).matrix @ layer.conj().T
            kept = np.zeros((2 ** n, 2 ** n), dtype=complex)
            success = 0.0
            for outcome in (0, 2 ** n - 1):
                t = rho.reshape(2 ** n, 2 ** n, 2 ** n, 2 ** n)
                block = t[:, outcome, :, outcome]
                success += float(np.trace(block).real)
                kept += block
            kept /= success
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
        _, report = qnn.train(qnn.NetworkArchitecture(1, 1), pairs,
                              max_iters=1000, tol=1e-9, rng_seed=seed)
        assert report.final_cost >= 0.98, f"seed {seed} stalled at {report.final_cost:.4f}"

    damping_pairs = trajectory_pairs(2, NoiseKind.AMPLITUDE_DAMPING, 0.3, 100, 0)
    _, report = qnn.train(qnn.NetworkArchitecture(2, 1), damping_pairs,
                          max_iters=400, rng_seed=0)
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
        pairs = trajectory_pairs(n, NoiseKind.AMPLITUDE_DAMPING, 0.3, 100, 0)
        _, report = qnn.train(qnn.NetworkArchitecture(n, 1), pairs,
                              max_iters=2000, rng_seed=0)
        finals[n] = report.final_cost
    elapsed = time.perf_counter() - start
    small = min(finals[n] for n in (2, 3, 4))
    assert finals[5] < small, \
        f"n=5 cost {finals[5]:.4f} not below min(n=2..4) = {small:.4f}"
    assert elapsed < 1800.0, f"dimension study took {elapsed:.2f} s"
    print(f"criterion 6: pass (final costs {finals}; n=5 strictly lowest)")


def test_criterion_7_entropy_exchange_oracle():
    def stinespring_environment_entropy(ens, ch):
        # isometry V|phi> = sum_k (K_k|phi>) (x) |k>_env acting on the
        # system half of the eigenpurification of the ensemble average
        mix = sum(1.0 / len(ens) * s.matrix for s in ens)
        evals, vecs = np.linalg.eigh(mix)
        dim = mix.shape[0]
        branches = len(ch.kraus_ops)
        # joint pure state on (env, system, reference)
        joint = np.zeros(branches * dim * dim, dtype=complex)
        for lam, i in [(l, i) for i, l in enumerate(evals) if l > 1e-14]:
            for k, op in enumerate(ch.kraus_ops):
                sys_part = op @ vecs[:, i]
                contrib = np.kron(np.eye(branches)[k],
                                  np.kron(sys_part, vecs[:, i].conj()))
                joint += np.sqrt(lam) * contrib
        t = joint.reshape(branches, dim * dim)
        env = t @ t.conj().T
        evs = np.linalg.eigvalsh(env)
        evs = evs[evs > 1e-12]
        return float(-np.sum(evs * np.log2(evs)))

    ens = [ideal_received_state(3, Codeword(3, v)).density() for v in range(8)]
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
                              train_at=0.2, train_iters=600, seed=seed)
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
