import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import capacity, qcore
from ghzsdc.capacity import (
    EnsembleSpec,
    average_state,
    classical_capacity,
    coherent_information,
    entropy_exchange,
    holevo,
    quantum_capacity,
)
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import DensityOperator, QuantumChannel, StateVector, basis_state
from ghzsdc.sdc import Codeword, distribute, ghz_basis, ideal_received_state, transmit

from full_space import full_space_channel, noise_factors


def binary_entropy(x):
    terms = [q * np.log2(q) for q in (x, 1 - x) if q > 0]
    return -sum(terms)


def random_pure_ensemble(rng, m, members):
    states = []
    for _ in range(members):
        amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        states.append(StateVector(amps / np.linalg.norm(amps)).density())
    priors = rng.dirichlet(np.ones(members))
    return EnsembleSpec(priors, tuple(states))


def environment_gram(ens, ch):
    """Independent entropy-exchange oracle: the environment state in the
    Kraus basis has entries rho_env[k, l] = tr(K_k rho K_l^dag)."""
    mix = sum(p * s.matrix for p, s in zip(ens.priors, ens.states))
    ops = ch.kraus_ops
    gram = np.array([[np.trace(k @ mix @ l.conj().T) for l in ops] for k in ops])
    evals = np.linalg.eigvalsh(gram)
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


class TestEnsembleSpec:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EnsembleSpec(np.array([0.5, 0.6]),
                         (basis_state(1, 0).density(), basis_state(1, 1).density()))

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            EnsembleSpec(np.array([1.0]), (basis_state(1, 0).density(),
                                           basis_state(1, 1).density()))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            EnsembleSpec.uniform((basis_state(1, 0).density(),
                                  basis_state(2, 0).density()))

    def test_average_state(self):
        ens = EnsembleSpec(np.array([0.75, 0.25]),
                           (basis_state(1, 0).density(), basis_state(1, 1).density()))
        assert np.allclose(average_state(ens).matrix, np.diag([0.75, 0.25]))


class TestHolevo:
    def test_single_state_is_zero(self):
        ens = EnsembleSpec(np.array([1.0]), (DensityOperator(np.eye(2) / 2),))
        assert holevo(ens) == 0.0

    def test_orthogonal_pure_qubit_pair_is_one(self):
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(holevo(ens) - 1.0) < 1e-12

    def test_noiseless_protocol_outputs_reach_n_bits(self):
        for n in (3, 4):
            states = tuple(ideal_received_state(n, Codeword(n, v)).density()
                           for v in range(2 ** n))
            assert abs(holevo(EnsembleSpec.uniform(states)) - n) < 1e-9

    def test_depolarized_bell_ensemble_closed_form(self):
        # each Pauli error permutes the Bell basis, so every output has
        # eigenvalues {1 - p, p/3, p/3, p/3} while the average stays I/4
        p = 0.3
        ch = make_channel(NoiseKind.DEPOLARIZING, p)
        states = tuple(
            qcore.apply_channel(bell.density(), ch, [0])
            for bell in ghz_basis(2).states)
        member_entropy = -( (1 - p) * np.log2(1 - p) + p * np.log2(p / 3) )
        expected = 2.0 - member_entropy
        assert abs(holevo(EnsembleSpec.uniform(states)) - expected) < 1e-10

    def test_never_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            assert holevo(random_pure_ensemble(rng, 1, 3)) >= 0


class TestClassicalCapacity:
    def test_uniform_value_without_optimization(self):
        states = (basis_state(1, 0).density(), basis_state(1, 1).density())
        assert abs(classical_capacity(states) - 1.0) < 1e-12

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
            assert abs(entropy_exchange(random_pure_ensemble(rng, 1, 2), ch)) < 1e-9

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_matches_environment_gram_oracle(self, kind, p):
        ch = make_channel(kind, p)
        rng = np.random.default_rng(43)
        for _ in range(5):
            ens = random_pure_ensemble(rng, 1, 3)
            assert abs(entropy_exchange(ens, ch) - environment_gram(ens, ch)) < 1e-9

    def test_multi_qubit_oracle_agreement(self):
        # depolarizing noise embedded on qubit 0 of two-qubit ensembles
        base = make_channel(NoiseKind.DEPOLARIZING, 0.4)
        ops = tuple(np.kron(k, np.eye(2)) for k in base.kraus_ops)
        ch = QuantumChannel(ops)
        rng = np.random.default_rng(47)
        for _ in range(20):
            ens = random_pure_ensemble(rng, 2, 3)
            assert abs(entropy_exchange(ens, ch) - environment_gram(ens, ch)) < 1e-9

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
        ens = EnsembleSpec.uniform([ideal_received_state(n, Codeword(n, v)).density()
                                    for v in range(2 ** n)])
        assert abs(entropy_exchange(ens, full_space_channel(noise_factors(spec, n))) - n * per_qubit) < 1e-9

    def test_fully_depolarizing_on_mixed_average(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(entropy_exchange(ens, ch) - 2.0) < 1e-9

    def test_mixed_member_rejected(self):
        ens = EnsembleSpec(np.array([1.0]), (DensityOperator(np.eye(2) / 2),))
        with pytest.raises(ValueError, match="pure"):
            entropy_exchange(ens, make_channel(NoiseKind.BIT_FLIP, 0.1))

    def test_dimension_mismatch_rejected(self):
        ens = EnsembleSpec.uniform((basis_state(2, 0).density(),))
        with pytest.raises(ValueError, match="dimension"):
            entropy_exchange(ens, make_channel(NoiseKind.BIT_FLIP, 0.1))


class TestCoherentInformation:
    def test_identity_channel_gives_input_entropy(self):
        ch = QuantumChannel((np.eye(2),))
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(coherent_information(ens, ch) - 1.0) < 1e-9

    def test_fully_depolarizing_is_minus_one(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(coherent_information(ens, ch) - (-1.0)) < 1e-9

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.8])
    def test_amplitude_damping_closed_form(self, gamma):
        # for the uniform {|0>, |1>} ensemble the output entropy is
        # H((1-gamma)/2) and the environment entropy is H(gamma/2)
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, gamma)
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        expected = binary_entropy((1 - gamma) / 2) - binary_entropy(gamma / 2)
        assert abs(coherent_information(ens, ch) - expected) < 1e-10

    def test_damping_crossover_at_half(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 0.5)
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(coherent_information(ens, ch)) < 1e-10


class TestQuantumCapacity:
    def test_floored_at_zero(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert quantum_capacity(ens, ch) == 0.0

    def test_identity_channel_full_bit(self):
        ch = QuantumChannel((np.eye(2),))
        ens = EnsembleSpec.uniform((basis_state(1, 0).density(),
                                    basis_state(1, 1).density()))
        assert abs(quantum_capacity(ens, ch) - 1.0) < 1e-9


class TestReport:
    def test_fields_consistent_with_components(self):
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        ch = make_channel(spec.kind, spec.p)
        output_states = tuple(
            qcore.apply_channel(bell.density(), ch, [0])
            for bell in ghz_basis(2).states)
        output_ens = EnsembleSpec.uniform(output_states)
        input_ens = EnsembleSpec.uniform(tuple(
            bell.density() for bell in ghz_basis(2).states))
        embedded = full_space_channel(noise_factors(spec, 2))
        rep = capacity.report(classical_capacity(output_states), spec, 2)
        assert abs(rep.holevo - holevo(output_ens)) < 1e-12
        assert abs(rep.entropy_exchange - entropy_exchange(input_ens, embedded)) < 1e-12
        assert abs(rep.coherent_information
                   - coherent_information(input_ens, embedded)) < 1e-12
        assert rep.quantum_capacity == max(rep.coherent_information, 0.0)
        assert rep.classical_capacity >= rep.holevo - 1e-12

    def test_classical_capacity_at_uniform_priors_is_the_holevo_value(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        states = tuple(qcore.apply_channel(bell.density(), ch, [0])
                       for bell in ghz_basis(2).states)
        uniform = capacity.report(classical_capacity(states),
                                  NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3), 2)
        assert uniform.classical_capacity == uniform.holevo

    def test_one_eigensolve_for_the_output_mixture(self, monkeypatch):
        # every output carries the spectrum its validation computed, so the
        # only 16 x 16 eigensolve left at n = 4 validates the uniform mixture
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3)
        shared = distribute(4, spec)
        outputs = [transmit(shared, Codeword(4, x), spec) for x in range(16)]
        expected = holevo(EnsembleSpec.uniform(outputs))
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = capacity.report(classical_capacity(outputs), spec, 4)
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
        half = EnsembleSpec.uniform([basis_state(1, 0).density(), basis_state(1, 1).density()])
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
        ideal = EnsembleSpec.uniform([ideal_received_state(n, Codeword(n, v)).density()
                                      for v in range(2 ** n)])
        oracle = full_space_channel(noise_factors(spec, n))
        rep = capacity.report(classical_capacity(ideal.states), spec, n)
        # the entropy kernel drops no positive eigenvalue, so the products of
        # small per-qubit eigenvalues (p near 0 or 1) count on the full space too
        assert abs(rep.entropy_exchange - entropy_exchange(ideal, oracle)) < 1e-12
        assert abs(rep.coherent_information - coherent_information(ideal, oracle)) < 1e-12
        assert rep.quantum_capacity == max(rep.coherent_information, 0.0)
