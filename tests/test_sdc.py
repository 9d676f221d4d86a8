import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import qcore, sdc
from ghzsdc.harness import CorrectionPipeline
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.purify import purify_iterated
from ghzsdc.qcore import I2, SIGMA_X, SIGMA_Y, DensityOperator, QuantumChannel, StateVector
from ghzsdc.sdc import (
    Codeword,
    decode_ghz,
    distribute,
    encode_usdc,
    ghz_fidelity,
    run_protocol,
    shared_state,
    transmit,
    twirl,
)

import reference
from full_space import (apply_channel, apply_unitary, fidelity, ghz_basis, ideal_received_state, kraus_sum,
                        kron_embedding, random_channel, random_state, random_x_state, x_matrix, x_state)


def assert_decode_matches_dense_basis(rho):
    """The closed form reads two diagonal entries and one off-diagonal entry
    per outcome; the oracle projects on every dense basis member."""
    basis = ghz_basis(rho.qubit_count)
    want = np.real(np.einsum("ia,ab,ib->i", basis.conj(), rho.matrix, basis))
    got = decode_ghz(rho)
    assert np.max(np.abs(got - np.clip(want, 0.0, None))) < 1e-13
    assert abs(got.sum() - 1) < 1e-12


def assert_distribute_matches_the_kraus_oracles(n, kind, p):
    """distribute against the Kraus conjugations of Kronecker embeddings on
    |GHZ><GHZ|, and against the Born-weighted mixture of the normalised
    branches (K_k (x) I)|GHZ> that the trajectories unravel it into; its
    rank is at most the number of Kraus operators."""
    rho = distribute(n, NoiseSpec(kind, p))
    ghz = shared_state(n).amplitudes
    ch = make_channel(kind, p)
    assert np.max(np.abs(rho.matrix - kraus_sum(ch, np.outer(ghz, ghz.conj()), [0], n))) <= 1e-15
    mix = np.zeros_like(rho.matrix)
    for op in ch.kraus_ops:
        branch = kron_embedding(op, [0], n) @ ghz
        norm = np.linalg.norm(branch)
        if norm > 0:  # a branch whose weight underflows adds nothing
            psi = branch / norm
            mix += norm ** 2 * np.outer(psi, psi.conj())
    assert np.max(np.abs(rho.matrix - mix)) <= 1e-15
    assert np.abs(rho.spectrum[:-len(ch.kraus_ops)]).max(initial=0.0) <= 1e-15


class TestSharedState:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_is_the_first_basis_state_bit_for_bit(self, n):
        assert np.array_equal(shared_state(n).amplitudes, ghz_basis(n)[0])

    def test_range_check(self):
        for n in (1, 11):
            with pytest.raises(ValueError, match="2..10 qubits"):
                shared_state(n)


class TestCodeword:
    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Codeword(3, 8)

    def test_below_three_bits_rejected(self):
        # no stage accepts n = 2, so the codeword is refused where it is built
        with pytest.raises(ValueError, match="n >= 3"):
            Codeword(2, 1)


class TestEncoder:
    def test_identity_codeword(self):
        assert np.allclose(encode_usdc(Codeword(3, 0)).matrix, np.eye(4))

    def test_n4_example(self):
        # bitwise evaluation of X=1011: first factor from (x0, x3)=(1,1),
        # remaining factors from y1=0 and y0=1
        want = np.kron(np.kron(-1j * SIGMA_Y, I2), SIGMA_X)
        assert np.max(np.abs(encode_usdc(Codeword(4, 0b1011)).matrix - want)) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_pauli_product_rule(self, n):
        # the published rule, with Bob's qubit untouched
        for value in range(2 ** n):
            assert np.array_equal(np.kron(I2, encode_usdc(Codeword(n, value)).matrix),
                                  reference.encoder(n, value)), f"codeword {value:0{n}b}"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_signed_permutation(self, n):
        for value in range(2 ** n):
            mat = encode_usdc(Codeword(n, value)).matrix
            mags = np.abs(mat)
            assert np.allclose(np.sort(mags, axis=1)[:, -1], 1)
            assert np.allclose(mags.sum(axis=0), 1)
            assert np.allclose(mags.sum(axis=1), 1)


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
        shared = random_state(rng, n, 1 + (rank - 1) % 2 ** n)
        spec = NoiseSpec(kind, p, stage)
        ch = make_channel(kind, p)
        values = range(2 ** n) if n <= 5 else rng.choice(2 ** n, size=4, replace=False)
        for value in values:
            code = Codeword(n, int(value))
            u = encode_usdc(code)
            want = apply_unitary(shared, u, range(1, n))
            if stage is NoiseStage.DISTRIBUTION_AND_RETURN:
                for q in range(1, n):
                    want = apply_channel(want, ch, [q])
            assert np.array_equal(transmit(shared, code, spec).matrix, want.matrix)
            psi = np.kron(I2, u.matrix) @ shared_state(n).amplitudes
            assert np.array_equal(ideal_received_state(code).amplitudes, psi)

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
            want = apply_channel(want, ch, [q])
        got = transmit(shared, code, both)
        assert np.array_equal(got.matrix, want.matrix)
        assert abs(np.trace(got.matrix).real - 1) < qcore.ATOL
        assert got.spectrum.min() >= -qcore.ATOL

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_distribute_at_p_0_and_1_matches_the_kraus_oracles(self, n, kind, p):
        assert_distribute_matches_the_kraus_oracles(n, kind, p)

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from([2, 3, 5, 10]), kind=st.sampled_from(NoiseKind), p=st.floats(0.0, 1.0))
    def test_distribute_matches_the_kraus_oracles(self, n, kind, p):
        assert_distribute_matches_the_kraus_oracles(n, kind, p)

    def test_distribute_validates_once(self, monkeypatch):
        # the Kraus branches are bare rows; only their mixture is validated
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

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 5), rank=st.integers(1, 32), seed=st.integers(0, 2 ** 32 - 1))
    def test_twirl_is_the_mean_of_the_encoded_images(self, n, rank, seed):
        # the closed form against the explicit mean of the 2^n noiseless
        # images, each conjugated by the published Pauli-product encoder
        sigma = random_state(np.random.default_rng(seed), n, 1 + (rank - 1) % 2 ** n).matrix
        images = [reference.encoder(n, x) for x in range(2 ** n)]
        mean = sum(u @ sigma @ u.conj().T for u in images) / 2 ** n
        assert np.max(np.abs(twirl(DensityOperator(sigma)).matrix - mean)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_twirl_refuses_fewer_than_three_qubits(self, n):
        with pytest.raises(ValueError) as refused:
            twirl(DensityOperator(np.eye(2 ** n) / 2 ** n))
        assert refused.type is ValueError
        assert str(refused.value) == "the bitwise encoder requires n >= 3"


class TestReturnWalk:
    # the walk on a bare n-qubit matrix against the sum of the Kraus
    # conjugations of each of qubits 1..n-1 in turn; noise is None for a
    # random single-qubit channel of r Kraus operators, else the (kind, p) of
    # a protocol channel
    @settings(max_examples=60, deadline=None)
    @example(n=2, r=1, noise=(NoiseKind.AMPLITUDE_DAMPING, 0.0), seed=0)
    @example(n=7, r=1, noise=(NoiseKind.AMPLITUDE_DAMPING, 1.0), seed=1)
    @example(n=5, r=1, noise=(NoiseKind.DEPOLARIZING, 0.0), seed=2)
    @example(n=6, r=1, noise=(NoiseKind.DEPOLARIZING, 1.0), seed=3)
    @given(n=st.integers(2, 7), r=st.integers(1, 4), noise=st.none(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_kraus_oracle(self, n, r, noise, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, 1, r) if noise is None else make_channel(*noise)
        rho = random_state(rng, n, int(rng.integers(1, 2 ** n + 1))).matrix
        walked = sdc._return_walk(ch, rho)
        want = rho
        for q in range(1, n):
            want = kraus_sum(ch, want, [q], n)
        assert walked.shape == rho.shape
        assert np.max(np.abs(walked - want)) < 1e-14

    def test_bit_flip_is_the_exact_permutation(self):
        rng = np.random.default_rng(5)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        flip = [1, 0, 3, 2]
        assert np.array_equal(sdc._return_walk(QuantumChannel((SIGMA_X,)), rho), rho[np.ix_(flip, flip)])

    @pytest.mark.parametrize("kind", [NoiseKind.AMPLITUDE_DAMPING, NoiseKind.DEPOLARIZING])
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_a_width_n_walk_makes_n_moves(self, n, kind, monkeypatch):
        # one move per qubit 1..n-1 and one back to the natural order,
        # counted as the walk unpacks each move of its plan
        made = []

        class Counted(tuple):
            def __iter__(self):
                made.append(self)
                return super().__iter__()

        plan = tuple(Counted(move) for move in sdc._return_plan(n))
        assert [height for _, _, height in plan] == [4] * (n - 1) + [1]
        made.clear()
        monkeypatch.setattr(sdc, "_return_plan", lambda width: plan)
        ch = make_channel(kind, 0.3)
        rho = random_state(np.random.default_rng(n), n, 2).matrix
        sdc._return_walk(ch, rho)
        assert made == list(plan)

    def test_plan_built_once_per_width(self):
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3, NoiseStage.DISTRIBUTION_AND_RETURN)
        shared = distribute(4, spec)
        sdc._return_plan.cache_clear()
        for value in range(16):
            transmit(shared, Codeword(4, value), spec)
        assert sdc._return_plan.cache_info().misses == 1


class TestXState:
    # the X-state stages against the dense ones on the same state: an
    # X-state is its diagonal and anti-diagonal, so those two vectors are the
    # whole state
    @settings(max_examples=40, deadline=None)
    @example(n=2, kind=NoiseKind.DEPOLARIZING, p=1.0, seed=0)
    @example(n=6, kind=NoiseKind.AMPLITUDE_DAMPING, p=0.0, seed=1)
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, p=1.0, seed=2)
    @given(n=st.integers(2, 6), kind=st.sampled_from(NoiseKind), p=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_dense_return_walk(self, n, kind, p, seed):
        rho = random_x_state(np.random.default_rng(seed), n)
        walked = sdc._x_walk(x_state(rho), sdc._x_maps(kind, p), range(1, n))
        dense = sdc._return_walk(make_channel(kind, p), rho)
        assert np.max(np.abs(dense - x_matrix(walked))) < 1e-14

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("qubit", [0, 1, 3])
    def test_one_qubit_matches_the_kraus_oracle(self, kind, qubit):
        # Bob's qubit 0 too, which the return walk never touches
        rho = random_x_state(np.random.default_rng(qubit), 4, zeros=2)
        walked = sdc._x_walk(x_state(rho), sdc._x_maps(kind, 0.3), [qubit])
        assert np.max(np.abs(kraus_sum(make_channel(kind, 0.3), rho, [qubit], 4) - x_matrix(walked))) < 1e-15

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0])
    def test_distribute_matches_the_dense_state(self, kind, n, p):
        want = distribute(n, NoiseSpec(kind, p)).matrix
        assert np.max(np.abs(x_matrix(sdc._x_distribute(n, kind, p)) - want)) < 1e-15

    def test_depolarizing_maps(self):
        # sigma_x and sigma_y move diagonal weight to the other value of the
        # qubit; on the anti-diagonal sigma_x keeps its sign, and sigma_y and
        # sigma_z flip it, so the anti map scales by 1 - p - p/3
        diag, anti = sdc._x_maps(NoiseKind.DEPOLARIZING, 0.3)
        assert np.allclose(diag, [[0.8, 0.2], [0.2, 0.8]], rtol=0, atol=1e-15)
        assert np.allclose(anti, 0.6 * I2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("stage", list(NoiseStage))
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_protocol_states_are_x_states(self, n, kind, stage):
        # the closure that makes the X-state stages exact: every distributed,
        # purified and transmitted state is exactly 0 off the diagonal and
        # the anti-diagonal
        a = np.arange(2 ** n)
        off = (a[:, None] ^ a != 0) & (a[:, None] ^ a != 2 ** n - 1)
        for p in (0.0, 0.3, 0.7, 1.0):
            spec = NoiseSpec(kind, p, stage)
            shared = distribute(n, spec)
            states = [shared, purify_iterated(shared, 1).kept_state]
            states += [transmit(rho, Codeword(n, x), spec) for rho in states[:2] for x in range(2 ** n)]
            assert not any(rho.matrix[off].any() for rho in states)


class TestDecode:
    def test_point_mass_on_basis_member(self):
        rho = StateVector(ghz_basis(3)[0]).density()
        dist = decode_ghz(rho)
        assert np.allclose(dist, np.eye(8)[0], atol=1e-12)

    def test_uniform_for_maximally_mixed(self):
        rho = DensityOperator(np.eye(8) / 8)
        assert np.allclose(decode_ghz(rho), np.full(8, 1 / 8), atol=1e-12)

    def test_bit_flip_weights(self):
        # Kraus expansion: weight 0.9 stays on the shared state, 0.1 moves to
        # its qubit-0-flipped partner (|100>+|011>)/sqrt2, basis index 6.
        rho = apply_channel(shared_state(3).density(),
                            make_channel(NoiseKind.BIT_FLIP, 0.1), [0])
        dist = decode_ghz(rho)
        assert abs(dist[0] - 0.9) < 1e-12
        assert abs(dist[6] - 0.1) < 1e-12

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityOperator((a @ a.conj().T) / np.trace(a @ a.conj().T))
        assert abs(decode_ghz(rho).sum() - 1) < 1e-9

    def test_single_qubit_rejected(self):
        with pytest.raises(ValueError, match="at least 2 qubits"):
            decode_ghz(DensityOperator(np.eye(2) / 2))

    @settings(max_examples=60, deadline=None)
    @example(n=2, rank=1, seed=0)
    @example(n=8, rank=256, seed=1)
    @example(n=8, rank=3, seed=2)
    @given(n=st.integers(2, 8), rank=st.integers(1, 256), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_mixed_states_match_dense_basis(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        assert_decode_matches_dense_basis(random_state(rng, n, 1 + (rank - 1) % 2 ** n))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_distributed_states_match_dense_basis(self, n, kind, p):
        assert_decode_matches_dense_basis(distribute(n, NoiseSpec(kind, p)))

    # codeword X's fidelity read off decoder outcome X, against the dense
    # overlap with the noise-free image of X
    @settings(max_examples=40, deadline=None)
    @example(n=3, source="random", kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, p=0.0, seed=0)
    @example(n=7, source="random", kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, p=0.0, seed=1)
    @example(n=7, source="transmit", kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=1.0, seed=2)
    @example(n=5, source="transmit", kind=NoiseKind.AMPLITUDE_DAMPING,
             stage=NoiseStage.DISTRIBUTION_AND_RETURN, p=0.3, seed=3)
    @given(n=st.integers(3, 7), source=st.sampled_from(["random", "transmit"]),
           kind=st.sampled_from(NoiseKind), stage=st.sampled_from(NoiseStage), p=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_fidelity_matches_dense_overlap(self, n, source, kind, stage, p, seed):
        rng = np.random.default_rng(seed)
        if source == "random":
            rho = random_state(rng, n, int(rng.integers(1, 2 ** n + 1)))
        else:
            spec = NoiseSpec(kind, p, stage)
            rho = transmit(distribute(n, spec), Codeword(n, int(rng.integers(2 ** n))), spec)
        for x in range(2 ** n):
            psi = ideal_received_state(Codeword(n, x)).amplitudes
            dense = np.real(psi.conj() @ rho.matrix @ psi)
            assert abs(ghz_fidelity(rho, x) ** 2 - dense) <= 1e-15, x

    def test_fidelity_admits_what_validation_admits(self):
        # GHZ-basis weights 1 + ATOL / 2 and -ATOL / 2 still validate, and
        # ghz_fidelity clamps them to exactly 1 and 0
        c = 0.5 + 5e-11
        rho = DensityOperator(np.array([[0.5, 0, 0, c], [0, 0, 0, 0], [0, 0, 0, 0], [c, 0, 0, 0.5]]))
        assert ghz_fidelity(rho, 0) == 1.0
        assert ghz_fidelity(rho, 1) == 0.0

    @pytest.mark.parametrize("x", [-1, 8])
    def test_fidelity_index_out_of_range(self, x):
        # -1 would read outcome 7 through numpy's negative indexing
        rho = distribute(3, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3))
        with pytest.raises(ValueError, match=rf"GHZ-basis index {x} out of range \[0, 8\)"):
            ghz_fidelity(rho, x)


class TestRunProtocol:
    def test_result_compares_and_hashes_by_identity(self):
        # elementwise array equality has no single truth value, so two distinct
        # equal-valued results are unequal rather than raising
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.1)
        a, b = run_protocol(Codeword(3, 5), spec), run_protocol(Codeword(3, 5), spec)
        assert a == a
        assert not a == b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_noiseless_roundtrip(self, n):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.0)
        tops = set()
        for value in range(2 ** n):
            result = run_protocol(Codeword(n, value), spec)
            assert abs(result.post_fidelity - 1) < 1e-9
            top = int(np.argmax(result.decode_distribution))
            assert abs(result.decode_distribution[top] - 1) < 1e-9
            tops.add(top)
        # decoding is a bijection over codewords
        assert len(tops) == 2 ** n

    def test_noiseless_table1_received_states(self):
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.0)
        for value in range(8):
            result = run_protocol(Codeword(3, value), spec)
            want = ideal_received_state(Codeword(3, value))
            assert fidelity(want, result.received_state) > 1 - 1e-9

    def test_full_damping_fidelity(self):
        # oracle: amplitude damping p=1 leaves (|000><000| + |011><011|)/2,
        # whose overlap with the shared state is 1/4, so fidelity is 1/2
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 1.0)
        result = run_protocol(Codeword(3, 0), spec)
        assert abs(result.post_fidelity - 0.5) < 1e-9

    def test_return_stage_applies_more_noise(self):
        p = 0.3
        only = run_protocol(Codeword(3, 5),
                            NoiseSpec(NoiseKind.DEPOLARIZING, p, NoiseStage.DISTRIBUTION_ONLY))
        both = run_protocol(Codeword(3, 5),
                            NoiseSpec(NoiseKind.DEPOLARIZING, p, NoiseStage.DISTRIBUTION_AND_RETURN))
        assert both.post_fidelity < only.post_fidelity

    def test_purify_corrector_improves_fidelity(self):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, 0.2)
        raw = run_protocol(Codeword(3, 3), spec)
        purified = run_protocol(Codeword(3, 3), spec, CorrectionPipeline(purify_rounds=1))
        assert purified.post_fidelity > raw.post_fidelity
