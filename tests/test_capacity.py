import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import capacity, qcore
from ghzsdc.capacity import coherent_information, entropy_exchange, holevo
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import DensityOperator, QuantumChannel, StateVector, basis_state
from ghzsdc.sdc import Codeword, distribute, ghz_basis, ideal_received_state, transmit

from full_space import full_space_channel, noise_factors, stinespring_environment_entropy


def binary_entropy(x):
    terms = [q * np.log2(q) for q in (x, 1 - x) if q > 0]
    return -sum(terms)


def random_pure_states(rng, m, count):
    states = []
    for _ in range(count):
        amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        states.append(StateVector(amps / np.linalg.norm(amps)).density())
    return states


def random_channel(rng, m, r):
    """r Kraus operators on m qubits, cut from a random isometry: the d x d
    blocks of the Q factor of a random (r d) x d complex matrix."""
    d = 2 ** m
    q, _ = np.linalg.qr(rng.normal(size=(r * d, d)) + 1j * rng.normal(size=(r * d, d)))
    return QuantumChannel(tuple(q[k * d:(k + 1) * d] for k in range(r)))


def environment_gram(states, ch):
    """Independent entropy-exchange oracle: the environment state in the
    Kraus basis has entries rho_env[k, l] = tr(K_k rho K_l^dag)."""
    mix = sum(s.matrix for s in states) / len(states)
    ops = ch.kraus_ops
    gram = np.array([[np.trace(k @ mix @ l.conj().T) for l in ops] for k in ops])
    evals = np.linalg.eigvalsh(gram)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


class TestHolevo:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one state"):
            holevo([])

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValueError, match="one dimension"):
            holevo([basis_state(1, 0).density(), basis_state(2, 0).density()])

    def test_single_state_is_zero(self):
        assert holevo([DensityOperator(np.eye(2) / 2)]) == 0.0

    def test_orthogonal_pure_qubit_pair_is_one(self):
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(holevo(states) - 1.0) < 1e-12

    def test_noiseless_protocol_outputs_reach_n_bits(self):
        for n in (3, 4):
            states = [ideal_received_state(n, Codeword(n, v)).density()
                      for v in range(2 ** n)]
            assert abs(holevo(states) - n) < 1e-9

    def test_depolarized_bell_ensemble_closed_form(self):
        # each Pauli error permutes the Bell basis, so every output has
        # eigenvalues {1 - p, p/3, p/3, p/3} while the average stays I/4
        p = 0.3
        ch = make_channel(NoiseKind.DEPOLARIZING, p)
        states = [qcore.apply_channel(bell.density(), ch, [0]) for bell in ghz_basis(2).states]
        member_entropy = -( (1 - p) * np.log2(1 - p) + p * np.log2(p / 3) )
        expected = 2.0 - member_entropy
        assert abs(holevo(states) - expected) < 1e-10

    def test_never_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            assert holevo(random_pure_states(rng, 1, 3)) >= 0


class TestClassicalCapacity:
    # Uniform priors are optimal when the outputs are one unitary orbit, since
    # the mixture entropy is concave and invariant under the group's
    # relabelling of the priors; equal spectra for every codeword is the
    # observable trace of that covariance.
    @settings(max_examples=100, deadline=None)
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_ONLY,
             p=0.0, picks=[1])
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=1.0, picks=[1])
    @example(n=6, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=0.0, picks=[63])
    @example(n=6, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=1.0, picks=[1, 32, 63])
    @example(n=4, kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=1.0, picks=[1])
    @example(n=5, kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN,
             p=0.0, picks=[1])
    @given(n=st.integers(3, 6), kind=st.sampled_from(NoiseKind),
           stage=st.sampled_from(NoiseStage), p=st.floats(0.0, 1.0),
           picks=st.lists(st.integers(1, 63), min_size=1, max_size=6, unique=True))
    def test_outputs_are_one_orbit_where_uniform_priors_are_optimal(
            self, n, kind, stage, p, picks):
        # every codeword below n = 6; codeword 0 and a sample of the 64 at n = 6
        spec = NoiseSpec(kind, p, stage)
        shared = distribute(n, spec)
        codes = [0] + picks if n == 6 else range(2 ** n)
        outputs = [transmit(shared, Codeword(n, x), spec) for x in codes]
        for out in outputs:
            assert out.qubit_count == n
            DensityOperator(out.matrix)
        pauli_return = kind is not NoiseKind.AMPLITUDE_DAMPING
        if stage is NoiseStage.DISTRIBUTION_ONLY or pauli_return:
            reference = np.linalg.eigvalsh(outputs[0].matrix)
            for out in outputs[1:]:
                assert np.max(np.abs(np.linalg.eigvalsh(out.matrix) - reference)) < 1e-10


class TestEntropyExchange:
    def test_identity_channel_is_zero(self):
        rng = np.random.default_rng(41)
        ch = QuantumChannel((np.eye(2),))
        for _ in range(200):
            assert abs(entropy_exchange(random_pure_states(rng, 1, 2), ch)) < 1e-9

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_matches_environment_gram_oracle(self, kind, p):
        ch = make_channel(kind, p)
        rng = np.random.default_rng(43)
        for _ in range(5):
            states = random_pure_states(rng, 1, 3)
            assert abs(entropy_exchange(states, ch) - environment_gram(states, ch)) < 1e-9

    def test_multi_qubit_oracle_agreement(self):
        # depolarizing noise embedded on qubit 0 of two-qubit ensembles
        base = make_channel(NoiseKind.DEPOLARIZING, 0.4)
        ops = tuple(np.kron(k, np.eye(2)) for k in base.kraus_ops)
        ch = QuantumChannel(ops)
        rng = np.random.default_rng(47)
        for _ in range(20):
            states = random_pure_states(rng, 2, 3)
            assert abs(entropy_exchange(states, ch) - environment_gram(states, ch)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @example(m=1, r=1, count=1, seed=0)
    @example(m=3, r=6, count=4, seed=1)
    @given(m=st.integers(1, 3), r=st.integers(1, 6), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gram_matches_stinespring_on_random_channels(self, m, r, count, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, m, r)
        states = random_pure_states(rng, m, count)
        assert abs(entropy_exchange(states, ch) - stinespring_environment_entropy(states, ch)) < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p, per_qubit", [
        (0.0, 0.0),
        (0.25, 1.2075187496394219),  # H(3/4, 1/12, 1/12, 1/12); n=4 gives 4.830075
        (0.75, 2.0),
        (1.0, np.log2(3)),
    ])
    def test_depolarizing_both_stages_closed_form(self, n, p, per_qubit):
        # r = d^2 Kraus operators at 0 < p < 1: the uniform GHZ-basis ensemble
        # averages to I/d, so the environment is n independent Pauli registers
        # and the entropy exchange is n * H(1 - p, p/3, p/3, p/3)
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, p, NoiseStage.DISTRIBUTION_AND_RETURN)
        states = [ideal_received_state(n, Codeword(n, v)).density() for v in range(2 ** n)]
        assert abs(entropy_exchange(states, full_space_channel(noise_factors(spec, n))) - n * per_qubit) < 1e-9

    def test_fully_depolarizing_on_mixed_average(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(entropy_exchange(states, ch) - 2.0) < 1e-9

    def test_mixed_member_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            entropy_exchange([DensityOperator(np.eye(2) / 2)], make_channel(NoiseKind.BIT_FLIP, 0.1))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            entropy_exchange([basis_state(2, 0).density()], make_channel(NoiseKind.BIT_FLIP, 0.1))


class TestCoherentInformation:
    def test_identity_channel_gives_input_entropy(self):
        ch = QuantumChannel((np.eye(2),))
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(coherent_information(states, ch) - 1.0) < 1e-9

    def test_fully_depolarizing_is_minus_one(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(coherent_information(states, ch) - (-1.0)) < 1e-9

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.8])
    def test_amplitude_damping_closed_form(self, gamma):
        # for the uniform {|0>, |1>} ensemble the output entropy is
        # H((1-gamma)/2) and the environment entropy is H(gamma/2)
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, gamma)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        expected = binary_entropy((1 - gamma) / 2) - binary_entropy(gamma / 2)
        assert abs(coherent_information(states, ch) - expected) < 1e-10

    def test_damping_crossover_at_half(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 0.5)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(coherent_information(states, ch)) < 1e-10


class TestReport:
    def test_fields_consistent_with_components(self):
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        ch = make_channel(spec.kind, spec.p)
        outputs = [qcore.apply_channel(bell.density(), ch, [0]) for bell in ghz_basis(2).states]
        inputs = [bell.density() for bell in ghz_basis(2).states]
        embedded = full_space_channel(noise_factors(spec, 2))
        rep = capacity.report(holevo(outputs), spec, 2)
        assert abs(rep.entropy_exchange - entropy_exchange(inputs, embedded)) < 1e-12
        assert abs(rep.coherent_information
                   - coherent_information(inputs, embedded)) < 1e-12
        assert rep.quantum_capacity == max(rep.coherent_information, 0.0)
        assert rep.classical_capacity >= rep.holevo - 1e-12

    def test_classical_capacity_at_uniform_priors_is_the_holevo_value(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        states = [qcore.apply_channel(bell.density(), ch, [0]) for bell in ghz_basis(2).states]
        uniform = capacity.report(holevo(states),
                                  NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3), 2)
        assert uniform.classical_capacity == uniform.holevo

    def test_one_eigensolve_for_the_output_mixture(self, monkeypatch):
        # every output carries the spectrum its validation computed, so the
        # only 16 x 16 eigensolve left at n = 4 validates the uniform mixture
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        shared = distribute(4, spec)
        outputs = [transmit(shared, Codeword(4, x), spec) for x in range(16)]
        expected = holevo(outputs)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = capacity.report(holevo(outputs), spec, 4)
        assert sizes.count((16, 16)) == 1
        assert max(sizes) == (16, 16)
        assert rep.holevo == rep.classical_capacity == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("stage", list(NoiseStage))
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.75, 1.0])
    def test_one_entropy_exchange_per_report(self, n, kind, stage, p, monkeypatch):
        # one exchange of the single-qubit channel serves every noisy qubit,
        # and the sums keep the per-factor order, bit for bit
        spec = NoiseSpec(kind, p, stage)
        half = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        factors = noise_factors(spec, n)
        expected_icoh = sum(coherent_information(half, f) for f in factors)
        expected_exchange = sum(entropy_exchange(half, f) for f in factors)
        seen = []
        original = capacity._exchange

        def counted(mix, ch):
            seen.append((mix, ch))
            return original(mix, ch)

        monkeypatch.setattr(capacity, "_exchange", counted)
        rep = capacity.report(1.5, spec, n)
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], np.eye(2) / 2)
        assert seen[0][1] is make_channel(kind, p)
        assert rep.coherent_information == expected_icoh
        assert rep.entropy_exchange == expected_exchange
        assert rep.quantum_capacity == max(expected_icoh, 0.0)

    @settings(max_examples=25, deadline=None)
    @example(n=5, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, p=0.0)
    @example(n=5, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, p=1.0)
    @example(n=3, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_ONLY, p=0.0)
    @example(n=4, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, p=1.0)
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, p=1e-6)
    @given(n=st.integers(3, 5), kind=st.sampled_from(NoiseKind),
           stage=st.sampled_from(NoiseStage), p=st.floats(0.0, 1.0))
    def test_channel_fields_match_full_space_channel(self, n, kind, stage, p):
        # the product form against the full-space channel on the ideal
        # encoded inputs, whose uniform mix is I/d
        spec = NoiseSpec(kind, p, stage)
        ideal = [ideal_received_state(n, Codeword(n, v)).density() for v in range(2 ** n)]
        oracle = full_space_channel(noise_factors(spec, n))
        rep = capacity.report(holevo(ideal), spec, n)
        # the entropy kernel drops no positive eigenvalue, so the products of
        # small per-qubit eigenvalues (p near 0 or 1) count on the full space too
        assert abs(rep.entropy_exchange - entropy_exchange(ideal, oracle)) < 1e-12
        assert abs(rep.coherent_information - coherent_information(ideal, oracle)) < 1e-12
        assert rep.quantum_capacity == max(rep.coherent_information, 0.0)
