"""The oracles of tests/full_space.py on inputs whose answers are known by
hand: the partial trace, the dense GHZ basis, the protocol's noise as one
full-space channel, the dense fidelity, the Holevo value of an ensemble,
conjugation by an operator on chosen qubits and a channel on chosen
qubits; and the GHZ-frame score of tests/reference.py against its textbook
score."""

import numpy as np
import pytest

from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import SIGMA_X, DensityOperator, StateVector, Unitary
from ghzsdc.sdc import Codeword, shared_state

import reference
from full_space import (
    CNOT,
    apply_channel,
    apply_unitary,
    basis_state,
    fidelity,
    full_space_channel,
    ghz_basis,
    holevo,
    ideal_received_state,
    noise_factors,
    partial_trace,
    random_channel,
    random_state,
)


class TestPartialTrace:
    def test_product_state(self):
        rho = basis_state(2, 0).density()
        out = partial_trace(rho, [0])
        assert np.allclose(out.matrix, basis_state(1, 0).density().matrix)

    @pytest.mark.parametrize("keep", [[0], [1]])
    def test_bell_reduction_is_maximally_mixed(self, keep):
        out = partial_trace(shared_state(2).density(), keep)
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_trace_out_last_qubit(self):
        # derived by expanding the 3-qubit GHZ state and summing the traced index
        out = partial_trace(shared_state(3).density(), [0, 1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_tensor_then_trace_recovers_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_state(rng, 1, 2)
            b = random_state(rng, 2, 4)
            joint = DensityOperator(np.kron(a.matrix, b.matrix))
            assert np.max(np.abs(partial_trace(joint, [0]).matrix - a.matrix)) < 1e-10
            assert np.max(np.abs(partial_trace(joint, [1, 2]).matrix - b.matrix)) < 1e-10


class TestGhzBasis:
    def test_three_qubit_members(self):
        basis = ghz_basis(3)
        psi1 = np.zeros(8); psi1[0] = psi1[7] = 1 / np.sqrt(2)
        assert np.allclose(basis[0], psi1)
        psi8 = np.zeros(8); psi8[3] = 1 / np.sqrt(2); psi8[4] = -1 / np.sqrt(2)
        assert np.allclose(basis[7], psi8)

    @pytest.mark.parametrize("x, want", enumerate(
        np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2)))
    def test_two_qubit_case_is_bell_basis(self, x, want):
        assert np.allclose(ghz_basis(2)[x], want)

    # every width at which the tests read the basis: 2..10, as shared_state
    @pytest.mark.parametrize("n", range(2, 11))
    def test_orthonormal(self, n):
        amps = ghz_basis(n)
        gram = amps.conj() @ amps.T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-10

    @pytest.mark.parametrize("n", range(2, 11))
    def test_two_amplitudes_each(self, n):
        for amps in ghz_basis(n):
            nonzero = np.abs(amps) > 1e-12
            assert nonzero.sum() == 2
            assert np.allclose(np.abs(amps[nonzero]), 1 / np.sqrt(2))


class TestNoiseFactorOracles:
    def test_distribution_only_touches_qubit_zero(self):
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3, NoiseStage.DISTRIBUTION_ONLY)
        ch = full_space_channel(noise_factors(spec, 3))
        direct = apply_channel(shared_state(3).density(),
                               make_channel(spec.kind, spec.p), [0])
        via = apply_channel(shared_state(3).density(), ch, [0, 1, 2])
        assert np.max(np.abs(direct.matrix - via.matrix)) < 1e-12

    def test_both_stage_composes_per_qubit(self):
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.2, NoiseStage.DISTRIBUTION_AND_RETURN)
        ch = full_space_channel(noise_factors(spec, 2))
        single = make_channel(spec.kind, spec.p)
        direct = apply_channel(shared_state(2).density(), single, [0])
        direct = apply_channel(direct, single, [1])
        via = apply_channel(shared_state(2).density(), ch, [0, 1])
        assert np.max(np.abs(direct.matrix - via.matrix)) < 1e-12

    def test_completeness(self):
        spec = NoiseSpec(NoiseKind.PHASE_FLIP, 0.4, NoiseStage.DISTRIBUTION_AND_RETURN)
        ch = full_space_channel(noise_factors(spec, 3))
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(total - np.eye(8))) < 1e-10


class TestFidelity:
    def test_pure_state_fidelity_one(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            psi = random_state(rng, 2)
            assert abs(fidelity(psi, psi.density()) - 1) < 1e-9

    def test_orthogonal_zero(self):
        assert fidelity(basis_state(1, 0), basis_state(1, 1).density()) == 0

    def test_maximally_mixed_single_qubit(self):
        assert abs(fidelity(basis_state(1, 0), DensityOperator(np.eye(2) / 2)) - 1 / np.sqrt(2)) < 1e-12


class TestHolevo:
    def test_single_state_is_zero(self):
        assert holevo([DensityOperator(np.eye(2) / 2)]) == 0.0

    def test_orthogonal_pure_qubit_pair_is_one(self):
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(holevo(states) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_noiseless_protocol_outputs_reach_n_bits(self, n):
        states = [ideal_received_state(Codeword(n, v)).density() for v in range(2 ** n)]
        assert abs(holevo(states) - n) < 1e-9

    def test_depolarized_bell_ensemble_closed_form(self):
        # each Pauli error permutes the Bell basis, so every output has
        # eigenvalues {1 - p, p/3, p/3, p/3} while the average stays I/4
        p = 0.3
        ch = make_channel(NoiseKind.DEPOLARIZING, p)
        states = [apply_channel(StateVector(bell).density(), ch, [0]) for bell in ghz_basis(2)]
        member_entropy = -( (1 - p) * np.log2(1 - p) + p * np.log2(p / 3) )
        expected = 2.0 - member_entropy
        assert abs(holevo(states) - expected) < 1e-10

    def test_never_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            assert holevo([random_state(rng, 1).density() for _ in range(3)]) >= 0


class TestApplyUnitary:
    def test_flip_qubit(self):
        rho = basis_state(1, 0).density()
        out = apply_unitary(rho, Unitary(SIGMA_X), [0])
        assert np.allclose(out.matrix, basis_state(1, 1).density().matrix)

    def test_identity_exact(self):
        rho = random_state(np.random.default_rng(0), 2, 4)
        out = apply_unitary(rho, Unitary(np.eye(4)), [0, 1])
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15

    def test_cnot_row_mapping(self):
        # CNOT maps basis index 2 -> 3
        rho = basis_state(2, 2).density()
        out = apply_unitary(rho, Unitary(CNOT), [0, 1])
        assert np.allclose(out.matrix, basis_state(2, 3).density().matrix)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_eigenvalues_preserved(self, m):
        rng = np.random.default_rng(5)
        rho = random_state(rng, m, 2 ** m)
        # one Kraus operator cut from an isometry is a unitary
        u = Unitary(random_channel(rng, 2, 1).kraus_ops[0])
        targets = list(rng.choice(m, size=2, replace=False))
        out = apply_unitary(rho, u, targets)
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(out.matrix))
        assert np.max(np.abs(before - after)) < 1e-9


class TestApplyChannel:
    def test_trace_and_psd_preserved_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho = random_state(rng, 2, 4)
            out = apply_channel(rho, random_channel(rng, 1, 2), [int(rng.integers(2))])
            assert abs(np.trace(out.matrix).real - 1) < 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


class TestGhzFrameReference:
    # the two scores of tests/reference.py share only the Kraus table: the
    # frame keeps the GHZ-basis weights, the textbook score builds every
    # operator on the full space and the 2n-qubit purification pair, whose
    # n = 4 rounds are the slow part
    @pytest.mark.parametrize("kind", ["bit-flip", "phase-flip", "depolarizing"])
    @pytest.mark.parametrize("both", [False, True])
    def test_matches_the_textbook_score(self, kind, both):
        grid = [(3, rounds, p) for rounds in (0, 1, 2) for p in (0.0, 0.1, 0.37, 0.75, 1.0)]
        for n, rounds, p in grid + [(4, 0, 0.37), (4, 1, 0.37)]:
            want = reference.score(kind, p, n, both, rounds)
            got = reference.ghz_frame_score(kind, p, n, both, rounds)
            assert abs(got["holevo"] - want["holevo"]) < 1e-12
            assert abs(got["avg_fidelity"] ** 2 - want["avg_fidelity"] ** 2) < 1e-12
