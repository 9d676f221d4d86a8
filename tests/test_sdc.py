import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import qcore, sdc
from ghzsdc.harness import CorrectionPipeline, SweepConfig, run_sweep
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityOperator
from ghzsdc.sdc import (
    Codeword,
    decode_ghz,
    distribute,
    encode_usdc,
    ghz_basis,
    ideal_received_state,
    run_protocol,
    shared_state,
    transmit,
)

from full_space import apply_unitary

# Table-1 operators for n=3, codeword-indexed: the first factor acts on
# Alice's first qubit, the second on her last.
TABLE1_OPERATORS = {
    0b000: np.kron(I2, I2),
    0b001: np.kron(SIGMA_Z, I2),
    0b010: np.kron(I2, SIGMA_X),
    0b011: np.kron(SIGMA_Z, SIGMA_X),
    0b100: np.kron(SIGMA_X, I2),
    0b101: np.kron(-1j * SIGMA_Y, I2),
    0b110: np.kron(SIGMA_X, SIGMA_X),
    0b111: np.kron(-1j * SIGMA_Y, SIGMA_X),
}


def pauli_product_encoder(code):
    """Reference encoder built as the published Pauli product: I, sigma_x,
    sigma_z or -i*sigma_y on Alice's first qubit by (x_0, x_{n-1}), then
    sigma_x on qubit q = 2..n-1 when x_{n-q} is set."""
    n = code.n
    first = {(0, 0): I2, (0, 1): SIGMA_X, (1, 0): SIGMA_Z, (1, 1): -1j * SIGMA_Y}
    mat = first[(code.x(0), code.x(n - 1))]
    for q in range(2, n):
        mat = np.kron(mat, SIGMA_X if code.x(n - q) else I2)
    return mat


def random_mixed_state(rng, n, rank):
    a = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


class TestGhzBasis:
    def test_three_qubit_members(self):
        basis = ghz_basis(3)
        psi1 = np.zeros(8); psi1[0] = psi1[7] = 1 / np.sqrt(2)
        assert np.allclose(basis.states[0].amplitudes, psi1)
        psi8 = np.zeros(8); psi8[3] = 1 / np.sqrt(2); psi8[4] = -1 / np.sqrt(2)
        assert np.allclose(basis.states[7].amplitudes, psi8)

    def test_two_qubit_case_is_bell_basis(self):
        basis = ghz_basis(2)
        s = 1 / np.sqrt(2)
        expected = [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]
        for state, want in zip(basis.states, expected):
            assert np.allclose(state.amplitudes, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal(self, n):
        amps = np.array([s.amplitudes for s in ghz_basis(n).states])
        gram = amps.conj() @ amps.T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_amplitudes_each(self, n):
        for s in ghz_basis(n).states:
            nonzero = np.abs(s.amplitudes) > 1e-12
            assert nonzero.sum() == 2
            assert np.allclose(np.abs(s.amplitudes[nonzero]), 1 / np.sqrt(2))

    def test_range_check(self):
        with pytest.raises(ValueError):
            ghz_basis(1)
        with pytest.raises(ValueError):
            ghz_basis(13)
        with pytest.raises(ValueError, match="2..10 qubits"):
            ghz_basis(11)


class TestSharedState:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_is_the_first_basis_state_bit_for_bit(self, n):
        assert np.array_equal(shared_state(n).amplitudes, ghz_basis(n).states[0].amplitudes)

    def test_range_check(self):
        for n in (1, 11):
            with pytest.raises(ValueError, match="2..10 qubits"):
                shared_state(n)

    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_sweeps_build_no_basis(self, stage, monkeypatch):
        def no_basis(n):
            raise AssertionError("the sweep built the GHZ basis")

        monkeypatch.setattr(sdc, "ghz_basis", no_basis)
        sdc.shared_state.cache_clear()
        for pipeline in ("raw", "purify"):
            cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=0.0, p_stop=0.5,
                              p_step=0.25, n=4, pipeline=pipeline, noise_stage=stage)
            assert len(run_sweep(cfg)) == 3


class TestCodeword:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Codeword(3, 8)


class TestEncoder:
    def test_table1_all_rows(self):
        for value, want in TABLE1_OPERATORS.items():
            got = encode_usdc(Codeword(3, value)).matrix
            assert np.max(np.abs(got - want)) < 1e-12, f"codeword {value:03b}"

    def test_identity_codeword(self):
        assert np.allclose(encode_usdc(Codeword(3, 0)).matrix, np.eye(4))

    def test_n4_example(self):
        # bitwise evaluation of X=1011: first factor from (x0, x3)=(1,1),
        # remaining factors from y1=0 and y0=1
        want = np.kron(np.kron(-1j * SIGMA_Y, I2), SIGMA_X)
        assert np.max(np.abs(encode_usdc(Codeword(4, 0b1011)).matrix - want)) < 1e-12

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            encode_usdc(Codeword(2, 1))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_pauli_product_rule(self, n):
        for value in range(2 ** n):
            code = Codeword(n, value)
            assert np.array_equal(encode_usdc(code).matrix, pauli_product_encoder(code)), \
                f"codeword {value:0{n}b}"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_signed_permutation(self, n):
        for value in range(2 ** n):
            mat = encode_usdc(Codeword(n, value)).matrix
            mags = np.abs(mat)
            assert np.allclose(np.sort(mags, axis=1)[:, -1], 1)
            assert np.allclose(mags.sum(axis=0), 1)
            assert np.allclose(mags.sum(axis=1), 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_images_form_the_ghz_basis(self, n):
        # brute-force orthogonality oracle over all codewords
        images = np.array([
            ideal_received_state(n, Codeword(n, value)).amplitudes
            for value in range(2 ** n)
        ])
        gram = images.conj() @ images.T
        assert np.max(np.abs(gram - np.eye(2 ** n))) < 1e-10
        basis = np.array([s.amplitudes for s in ghz_basis(n).states])
        overlaps = np.abs(images.conj() @ basis.T)
        # each image coincides with exactly one basis member (up to sign)
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1, atol=1e-10)
        assert np.allclose(overlaps.sum(axis=0), 1, atol=1e-9)


class TestStages:
    # The dense path conjugates by the encoder matrix; the stages gather by
    # its signed permutation. Every product is by 0 or +-1, so both are exact.
    @settings(max_examples=40, deadline=None)
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=1.0, rank=1, seed=0)
    @example(n=7, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=0.0, rank=128, seed=1)
    @given(n=st.integers(3, 7), kind=st.sampled_from(NoiseKind), stage=st.sampled_from(NoiseStage),
           p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           rank=st.integers(1, 128), seed=st.integers(0, 2 ** 32 - 1))
    def test_transmit_and_ideal_state_match_dense_encoder(self, n, kind, stage, p, rank, seed):
        rng = np.random.default_rng(seed)
        shared = random_mixed_state(rng, n, 1 + (rank - 1) % 2 ** n)
        spec = NoiseSpec(kind, p, stage)
        ch = make_channel(kind, p)
        values = range(2 ** n) if n <= 5 else rng.choice(2 ** n, size=4, replace=False)
        for value in values:
            code = Codeword(n, int(value))
            u = encode_usdc(code)
            want = apply_unitary(shared, u, range(1, n))
            if stage is NoiseStage.DISTRIBUTION_AND_RETURN:
                for q in range(1, n):
                    want = qcore.apply_channel(want, ch, [q])
            assert np.array_equal(transmit(shared, code, spec).matrix, want.matrix)
            psi = np.kron(I2, u.matrix) @ shared_state(n).amplitudes
            assert np.array_equal(ideal_received_state(n, code).amplitudes, psi)

    # transmit runs its return steps on the bare matrix and validates once;
    # the result must be the validated step-by-step channel output.
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 6), kind=st.sampled_from(NoiseKind), p=st.floats(0.0, 1.0),
           value=st.integers(0, 2 ** 6 - 1))
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, p=0.0, value=5)
    @example(n=6, kind=NoiseKind.AMPLITUDE_DAMPING, p=1.0, value=63)
    @example(n=4, kind=NoiseKind.DEPOLARIZING, p=1.0, value=9)
    def test_return_stage_is_stepwise_channel_output(self, n, kind, p, value):
        both = NoiseSpec(kind, p, NoiseStage.DISTRIBUTION_AND_RETURN)
        code = Codeword(n, value % 2 ** n)
        shared = distribute(n, both)
        want = transmit(shared, code, NoiseSpec(kind, p, NoiseStage.DISTRIBUTION_ONLY))
        ch = make_channel(kind, p)
        for q in range(1, n):
            want = qcore.apply_channel(want, ch, [q])
        got = transmit(shared, code, both)
        assert np.array_equal(got.matrix, want.matrix)
        assert abs(np.trace(got.matrix).real - 1) < qcore.ATOL
        assert got.spectrum.min() >= -qcore.ATOL

    def test_distribute_validates_once(self, monkeypatch):
        # the noiseless GHZ density is a program constant; only the channel
        # output is validated
        built = []
        validate = DensityOperator.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        distribute(4, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3))
        assert len(built) == 1

    @pytest.mark.parametrize("shared_n, code_n", [(4, 3), (3, 4)])
    def test_transmit_rejects_width_mismatch(self, shared_n, code_n):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.1)
        with pytest.raises(ValueError, match=f"{shared_n} qubits, codeword width is {code_n}"):
            transmit(distribute(shared_n, spec), Codeword(code_n, 5), spec)

    def test_ideal_received_state_rejects_width_mismatch(self):
        with pytest.raises(ValueError, match="codeword width 3 differs from n=4"):
            ideal_received_state(4, Codeword(3, 1))


class TestDecode:
    def test_point_mass_on_basis_member(self):
        rho = ghz_basis(3).states[0].density()
        dist = decode_ghz(rho)
        assert np.allclose(dist, np.eye(8)[0], atol=1e-12)

    def test_uniform_for_maximally_mixed(self):
        rho = DensityOperator(np.eye(8) / 8)
        assert np.allclose(decode_ghz(rho), np.full(8, 1 / 8), atol=1e-12)

    def test_bit_flip_weights(self):
        # Kraus expansion: weight 0.9 stays on the shared state, 0.1 moves to
        # its qubit-0-flipped partner (|100>+|011>)/sqrt2, basis index 6.
        rho = qcore.apply_channel(shared_state(3).density(),
                                  make_channel(NoiseKind.BIT_FLIP, 0.1), [0])
        dist = decode_ghz(rho)
        assert abs(dist[0] - 0.9) < 1e-12
        assert abs(dist[6] - 0.1) < 1e-12

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T))
        assert abs(decode_ghz(rho).sum() - 1) < 1e-9


class TestRunProtocol:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_noiseless_roundtrip(self, n):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.0)
        for value in range(2 ** n):
            result = run_protocol(n, Codeword(n, value), spec)
            assert abs(result.post_fidelity - 1) < 1e-9
            top = int(np.argmax(result.decode_distribution))
            assert abs(result.decode_distribution[top] - 1) < 1e-9
            # decoding is a bijection over codewords
        tops = set()
        for value in range(2 ** n):
            result = run_protocol(n, Codeword(n, value), spec)
            tops.add(int(np.argmax(result.decode_distribution)))
        assert len(tops) == 2 ** n

    def test_noiseless_table1_received_states(self):
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.0)
        for value, op in TABLE1_OPERATORS.items():
            result = run_protocol(3, Codeword(3, value), spec)
            want = ideal_received_state(3, Codeword(3, value))
            assert qcore.fidelity(want, result.received_state) > 1 - 1e-9

    def test_full_damping_fidelity(self):
        # oracle: amplitude damping p=1 leaves (|000><000| + |011><011|)/2,
        # whose overlap with the shared state is 1/4, so fidelity is 1/2
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 1.0)
        result = run_protocol(3, Codeword(3, 0), spec)
        assert abs(result.post_fidelity - 0.5) < 1e-9

    def test_return_stage_applies_more_noise(self):
        p = 0.3
        only = run_protocol(3, Codeword(3, 5),
                            NoiseSpec(NoiseKind.DEPOLARIZING, p, NoiseStage.DISTRIBUTION_ONLY))
        both = run_protocol(3, Codeword(3, 5),
                            NoiseSpec(NoiseKind.DEPOLARIZING, p, NoiseStage.DISTRIBUTION_AND_RETURN))
        assert both.post_fidelity < only.post_fidelity

    def test_mismatched_codeword_rejected(self):
        with pytest.raises(ValueError):
            run_protocol(3, Codeword(4, 0), NoiseSpec(NoiseKind.BIT_FLIP, 0.0))

    def test_purify_corrector_improves_fidelity(self):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.2)
        raw = run_protocol(3, Codeword(3, 3), spec)
        purified = run_protocol(3, Codeword(3, 3), spec, CorrectionPipeline(purify_rounds=1))
        assert purified.post_fidelity > raw.post_fidelity
