import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import capacity
from ghzsdc.harness import CorrectionPipeline, SweepConfig, run_sweep
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import DensityOperator, QuantumChannel
from ghzsdc.purify import PurificationUnderflow, purify_iterated
from ghzsdc.sdc import Codeword, distribute, shared_state, transmit

from full_space import (
    basis_state,
    coherent_information,
    entropy_exchange,
    full_space_channel,
    holevo,
    ideal_received_state,
    noise_factors,
    random_channel,
    random_state,
    shannon_entropy,
    stinespring_environment_entropy,
    x_state,
)


class TestOrbitSpectra:
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
            assert abs(entropy_exchange([random_state(rng, 1).density() for _ in range(2)], ch)) < 1e-9

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_matches_stinespring_oracle(self, kind, p):
        ch = make_channel(kind, p)
        rng = np.random.default_rng(43)
        for _ in range(5):
            states = [random_state(rng, 1).density() for _ in range(3)]
            assert abs(entropy_exchange(states, ch) - stinespring_environment_entropy(states, ch)) < 1e-9

    def test_multi_qubit_oracle_agreement(self):
        # depolarizing noise embedded on qubit 0 of two-qubit ensembles
        base = make_channel(NoiseKind.DEPOLARIZING, 0.4)
        ch = QuantumChannel(tuple(np.kron(k, np.eye(2)) for k in base.kraus_ops))
        rng = np.random.default_rng(47)
        for _ in range(20):
            states = [random_state(rng, 2).density() for _ in range(3)]
            assert abs(entropy_exchange(states, ch) - stinespring_environment_entropy(states, ch)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @example(m=1, r=1, count=1, seed=0)
    @example(m=3, r=6, count=4, seed=1)
    @given(m=st.integers(1, 3), r=st.integers(1, 6), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_gram_matches_stinespring_on_random_channels(self, m, r, count, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, m, r)
        states = [random_state(rng, m).density() for _ in range(count)]
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
        states = [ideal_received_state(Codeword(n, v)).density() for v in range(2 ** n)]
        assert abs(entropy_exchange(states, full_space_channel(noise_factors(spec, n))) - n * per_qubit) < 1e-9

    def test_fully_depolarizing_on_mixed_average(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(entropy_exchange(states, ch) - 2.0) < 1e-9

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
        expected = (shannon_entropy((1 - gamma) / 2, (1 + gamma) / 2)
                    - shannon_entropy(gamma / 2, 1 - gamma / 2))
        assert abs(coherent_information(states, ch) - expected) < 1e-10

    def test_damping_crossover_at_half(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 0.5)
        states = [basis_state(1, 0).density(), basis_state(1, 1).density()]
        assert abs(coherent_information(states, ch)) < 1e-10


class TestReport:
    def test_scoring_leaves_the_superoperator_unbuilt(self):
        # capacity works from the Kraus form: a full-space channel of 4^n
        # operators must never pay for its 16^n-entry superoperator; a
        # dist-stage point transmits nothing, so only the score could build it
        make_channel.cache_clear()
        capacity.report(shared_state(3).density(), NoiseSpec(NoiseKind.DEPOLARIZING, 0.3))
        assert "superoperator" not in make_channel(NoiseKind.DEPOLARIZING, 0.3).__dict__
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.3, NoiseStage.DISTRIBUTION_AND_RETURN)
        embedded = full_space_channel(noise_factors(spec, 3))
        inputs = [ideal_received_state(Codeword(3, v)).density() for v in range(8)]
        entropy_exchange(inputs, embedded)
        coherent_information(inputs, embedded)
        assert "superoperator" not in embedded.__dict__

    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_classical_capacity_at_uniform_priors_is_the_holevo_value(self, stage):
        # the CSV's classical_capacity column is the Holevo value, on both
        # branches of the point scorer
        cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=0.0, p_stop=1.0,
                          p_step=0.5, n=3, noise_stage=stage)
        for record in run_sweep(cfg):
            assert record.classical_capacity == record.holevo

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_fully_damped_purified_point_scores_positive_zero(self, n):
        # at p = 1 the outputs and their mixture are one pure state, whose
        # entropy is +0; a -0 would be written to the CSV as "-0"
        cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=1.0, p_stop=1.0,
                          p_step=1.0, n=n, pipeline="purify",
                          noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN)
        (record,) = run_sweep(cfg)
        assert record.holevo == 0.0
        assert math.copysign(1.0, record.holevo) == 1.0

    @pytest.mark.parametrize("n", [7, 8])
    def test_noiseless_wide_point_carries_n_bits(self, n):
        # at p = 0 the 2^n outputs are the orthogonal GHZ basis, so the
        # Holevo value is n bits at every width, not only the narrow ones
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.0)
        assert abs(capacity.report(distribute(n, spec), spec).holevo - n) < 1e-12

    @pytest.mark.parametrize("stage, validated", [(NoiseStage.DISTRIBUTION_ONLY, 1),
                                                  (NoiseStage.DISTRIBUTION_AND_RETURN, 2)])
    def test_an_orbit_point_validates_its_return_and_its_twirl(self, stage, validated, monkeypatch):
        # a dist-stage point scores the validated shared state itself; stage
        # both validates the return walk's output once (the one-qubit states
        # are the channel side's)
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.3, stage)
        shared = distribute(4, spec)
        built = []
        validate = DensityOperator.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counted)
        capacity.report(shared, spec)
        assert sum(rho.qubit_count == 4 for rho in built) == validated

    def test_one_eigensolve_for_the_output_mixture(self, monkeypatch):
        # every output carries the spectrum its validation computed, so at
        # n = 4 the 16 x 16 eigensolves are the 16 outputs, the twirl of the
        # shared state and the returned twirl, the mixture
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3, NoiseStage.DISTRIBUTION_AND_RETURN)
        shared = distribute(4, spec)
        outputs = [transmit(shared, Codeword(4, x), spec) for x in range(16)]
        expected = holevo(outputs)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rep = capacity.report(shared, spec)
        assert sizes.count((16, 16)) == 18
        assert max(sizes) == (16, 16)
        assert abs(rep.holevo - expected) < 1e-12

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
        rep = capacity.report(shared_state(n).density(), spec)
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
        ideal = [ideal_received_state(Codeword(n, v)).density() for v in range(2 ** n)]
        oracle = full_space_channel(noise_factors(spec, n))
        rep = capacity.report(shared_state(n).density(), spec)
        # the entropy kernel drops no positive eigenvalue, so the products of
        # small per-qubit eigenvalues (p near 0 or 1) count on the full space too
        assert abs(rep.entropy_exchange - entropy_exchange(ideal, oracle)) < 1e-12
        assert abs(rep.coherent_information - coherent_information(ideal, oracle)) < 1e-12
        assert rep.quantum_capacity == max(rep.coherent_information, 0.0)


class TestXReport:
    # the X-state scorer against the dense one; the channel side is one code
    # for both, so it matches bit for bit
    @staticmethod
    def assert_matches(rep, want):
        assert abs(rep.holevo - want.holevo) < 1e-12
        assert abs(rep.avg_fidelity ** 2 - want.avg_fidelity ** 2) < 1e-12
        assert (rep.entropy_exchange, rep.coherent_information, rep.quantum_capacity) == (
            want.entropy_exchange, want.coherent_information, want.quantum_capacity)

    @settings(max_examples=40, deadline=None)
    @example(n=4, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=0, p=0.75)
    @example(n=7, kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=2, p=1.0)
    @example(n=3, kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, rounds=1, p=0.0)
    @example(n=5, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=1, p=0.3)
    @given(n=st.integers(3, 7), kind=st.sampled_from(NoiseKind), stage=st.sampled_from(NoiseStage),
           rounds=st.integers(0, 2), p=st.floats(0.0, 1.0))
    def test_x_report_matches_the_dense_report(self, n, kind, stage, rounds, p):
        # one corrected dense state, scored by both on its two vectors
        spec = NoiseSpec(kind, p, stage)
        shared = distribute(n, spec)
        if rounds:
            shared = purify_iterated(shared, rounds).kept_state
        self.assert_matches(capacity._x_report(x_state(shared.matrix), spec), capacity.report(shared, spec))

    @settings(max_examples=40, deadline=None)
    @example(n=3, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=0, p=0.0)
    @example(n=7, kind=NoiseKind.AMPLITUDE_DAMPING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=2, p=1.0)
    @example(n=7, kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_ONLY, rounds=1, p=0.0)
    @example(n=6, kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN, rounds=2, p=1.0)
    # bit flip at p = 1/2 underflows at round 40 (tests/test_purify.py)
    @example(n=3, kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, rounds=40, p=0.5)
    @given(n=st.integers(3, 7), kind=st.sampled_from(NoiseKind), stage=st.sampled_from(NoiseStage),
           rounds=st.integers(0, 2), p=st.floats(0.0, 1.0))
    def test_x_pipeline_matches_the_dense_pipeline(self, n, kind, stage, rounds, p):
        # the X-state of every stage, from distribution on, against the
        # dense states of the same stages; an underflow is raised alike
        spec = NoiseSpec(kind, p, stage)
        corrector = CorrectionPipeline(purify_rounds=rounds)
        try:
            want = capacity.report(corrector(distribute(n, spec)), spec)
        except PurificationUnderflow as dense:
            with pytest.raises(PurificationUnderflow, match=str(dense)):
                corrector.score(n, spec)
            return
        self.assert_matches(corrector.score(n, spec), want)

    @settings(max_examples=20, deadline=None)
    @example(n=10, kind=NoiseKind.AMPLITUDE_DAMPING, rounds=1, p=1.0)
    @example(n=4, kind=NoiseKind.AMPLITUDE_DAMPING, rounds=0, p=0.0)
    @given(n=st.integers(4, 10), kind=st.sampled_from(NoiseKind), rounds=st.integers(0, 2),
           p=st.floats(0.0, 1.0))
    def test_distribution_point_is_the_three_qubit_point_widened(self, n, kind, rounds, p):
        # distribution noise touches only Bob's qubit 0, so an n-qubit point
        # is its 3-qubit point plus n - 3 noiseless bits: those add n - 3 to
        # the Holevo value and leave the fidelity
        spec = NoiseSpec(kind, p)
        corrector = CorrectionPipeline(purify_rounds=rounds)
        narrow, wide = corrector.score(3, spec), corrector.score(n, spec)
        assert abs(wide.holevo - (narrow.holevo + n - 3)) < 1e-12
        assert abs(wide.avg_fidelity - narrow.avg_fidelity) < 1e-15
