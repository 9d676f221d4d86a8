import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsdc import qcore
from ghzsdc.noise import NoiseKind, make_channel
from ghzsdc.purify import PurificationUnderflow, purify_iterated, purify_round
from ghzsdc.qcore import DensityOperator
from ghzsdc.sdc import shared_state

from full_space import CNOT, embedded_matrix, tensor_product


def noisy_ghz(n, q, kind=NoiseKind.BIT_FLIP):
    rho = shared_state(n).density()
    return qcore.apply_channel(rho, make_channel(kind, q), [0])


def brute_force_round(pair_matrix, n, accept=lambda bits: len(set(bits)) == 1):
    """Independent oracle: one explicit 4^(2n)-entry conjugation by the CNOT
    layer, then projector post-selection over all accepting B outcomes
    (default: all bits equal)."""
    m = 2 * n
    dim = 2 ** m
    layer = np.eye(dim, dtype=complex)
    for i in range(n):
        layer = embedded_matrix(CNOT, [i, n + i], m) @ layer
    rho = layer @ pair_matrix @ layer.conj().T
    kept = np.zeros((2 ** n, 2 ** n), dtype=complex)
    success = 0.0
    for outcome in range(2 ** n):
        bits = [(outcome >> (n - 1 - i)) & 1 for i in range(n)]
        if not accept(bits):
            continue
        ket = np.zeros(2 ** n, dtype=complex)
        ket[outcome] = 1.0
        proj = np.kron(np.eye(2 ** n, dtype=complex), np.outer(ket, ket.conj()))
        projected = proj @ rho @ proj
        success += float(np.trace(projected).real)
        # B register is pure |outcome>, so the A block is the outcome slice
        t = projected.reshape(2 ** n, 2 ** n, 2 ** n, 2 ** n)
        kept += t[:, outcome, :, outcome]
    return success, kept / success


class TestPurifyRound:
    def test_perfect_pair_is_fixed(self):
        n = 3
        pair = tensor_product(shared_state(n).density(), shared_state(n).density())
        result = purify_round(pair)
        assert abs(result.success_probability - 1) < 1e-9
        assert abs(result.fidelity_after - 1) < 1e-9
        assert qcore.fidelity(shared_state(n), result.kept_state) > 1 - 1e-9

    def test_bell_case_gain(self):
        copy = noisy_ghz(2, 0.25)
        result = purify_round(tensor_product(copy, copy))
        assert result.fidelity_after > result.fidelity_before
        # 16x16 brute-force oracle
        success, kept = brute_force_round(tensor_product(copy, copy).matrix, 2)
        assert abs(result.success_probability - success) < 1e-9
        assert np.max(np.abs(result.kept_state.matrix - kept)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("q", [0.05, 0.15, 0.25, 0.35, 0.45])
    def test_gain_against_oracle(self, n, q):
        copy = noisy_ghz(n, q)
        pair = tensor_product(copy, copy)
        result = purify_round(pair)
        assert result.fidelity_after > result.fidelity_before
        success, kept = brute_force_round(pair.matrix, n)
        assert abs(result.success_probability - success) < 1e-9
        assert np.max(np.abs(result.kept_state.matrix - kept)) < 1e-9

    def test_asymmetric_flip_pattern_pair(self):
        # A copy clean, B copy mostly bit-flipped: accepting outcomes are
        # reweighted; verified against full enumeration over B outcomes
        n = 2
        clean = shared_state(n).density()
        mostly_flipped = noisy_ghz(n, 0.7)
        pair = tensor_product(clean, mostly_flipped)
        result = purify_round(pair)
        success, kept = brute_force_round(pair.matrix, n)
        assert abs(result.success_probability - success) < 1e-9
        assert np.max(np.abs(result.kept_state.matrix - kept)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([2, 3]),
           rank=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_correlated_pair_against_oracle(self, n, rank, seed):
        # a random rank-r density matrix on all 2n qubits is generically
        # entangled across the two copies, unlike the i.i.d. pairs above
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4 ** n, rank)) + 1j * rng.normal(size=(4 ** n, rank))
        pair = DensityOperator(g @ g.conj().T / np.linalg.norm(g) ** 2)
        result = purify_round(pair)
        success, kept = brute_force_round(pair.matrix, n)
        assert abs(result.success_probability - success) < 1e-9
        assert np.max(np.abs(result.kept_state.matrix - kept)) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_yield_threshold_edge(self, n):
        # clean control against a target flipped with probability q: only the
        # unflipped 1 - q branch passes, straddling the 1e-12 yield floor
        clean = shared_state(n).density()
        near = purify_round(tensor_product(clean, noisy_ghz(n, 1 - 1e-11)))
        assert abs(near.success_probability - 1e-11) < 1e-17
        assert qcore.fidelity(shared_state(n), near.kept_state) > 1 - 1e-9
        with pytest.raises(PurificationUnderflow):
            purify_round(tensor_product(clean, noisy_ghz(n, 1 - 1e-12)))

    def test_fully_orthogonal_pair_underflows(self):
        # clean control against a fully flipped target never passes the
        # all-equal check, which must surface as the distinct underflow signal
        pair = tensor_product(shared_state(2).density(), noisy_ghz(2, 1.0))
        with pytest.raises(PurificationUnderflow):
            purify_round(pair)

    def test_success_and_rejection_sum_to_one(self):
        n = 2
        copy = noisy_ghz(n, 0.3)
        pair = tensor_product(copy, copy)
        accepted = purify_round(pair).success_probability
        rejected, _ = brute_force_round(pair.matrix, n, accept=lambda bits: len(set(bits)) != 1)
        assert abs(accepted + rejected - 1) < 1e-9

    def test_odd_qubit_count_rejected(self):
        with pytest.raises(ValueError, match="odd qubit count 3"):
            purify_round(shared_state(3).density())


class TestPurifyIterated:
    def test_single_round_reduces_to_purify_round(self):
        n = 2
        copy = noisy_ghz(n, 0.2)
        iterated = purify_iterated(copy, 1)
        direct = purify_round(tensor_product(copy, copy))
        assert np.max(np.abs(iterated.kept_state.matrix - direct.kept_state.matrix)) < 1e-12
        assert abs(iterated.success_probability - direct.success_probability) < 1e-12

    def test_perfect_input_any_rounds(self):
        result = purify_iterated(shared_state(2).density(), 3)
        assert abs(result.fidelity_after - 1) < 1e-9
        assert abs(result.success_probability - 1) < 1e-9

    def test_second_round_does_not_hurt(self):
        copy = noisy_ghz(3, 0.2)
        one = purify_iterated(copy, 1)
        two = purify_iterated(copy, 2)
        assert two.fidelity_after >= one.fidelity_after
        assert two.success_probability <= one.success_probability

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            purify_iterated(shared_state(2).density(), 0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]),
           rank=st.integers(1, 4),
           rounds=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_repeated_pair_rounds(self, n, rank, rounds, seed):
        # the factored i.i.d. round must be bit-identical to purify_round on
        # the built pair state, which is itself checked against the oracle
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
        source = DensityOperator(g @ g.conj().T / np.linalg.norm(g) ** 2)

        def repeated_pair_rounds():
            state, compound = source, 1.0
            for _ in range(rounds):
                result = purify_round(tensor_product(state, state))
                state = result.kept_state
                compound *= result.success_probability
                if compound < 1e-12:
                    raise PurificationUnderflow("compound success probability below 1e-12")
            return state, compound

        try:
            state, compound = repeated_pair_rounds()
        except PurificationUnderflow:
            with pytest.raises(PurificationUnderflow):
                purify_iterated(source, rounds)
            return
        result = purify_iterated(source, rounds)
        assert np.array_equal(result.kept_state.matrix, state.matrix)
        assert result.success_probability == compound

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_large_n_bit_flip_closed_form(self, n):
        # (1-q)|G><G| + q X_0|G><G|X_0: a pair passes when both copies are
        # flipped alike, so success = (1-q)^2 + q^2 and the kept GHZ weight is
        # (1-q)^2 / success
        q = 0.2
        result = purify_iterated(noisy_ghz(n, q), 1)
        success = (1 - q) ** 2 + q ** 2
        assert abs(result.success_probability - success) < 1e-12
        assert abs(result.fidelity_after ** 2 - (1 - q) ** 2 / success) < 1e-12

    def test_iterated_near_zero_yield(self):
        # the maximally mixed state is a fixed point with success 2/256 per
        # round at n = 8: 5 rounds give 2^-35, the 6th crosses the 1e-12 floor
        n = 8
        mixed = DensityOperator(np.eye(2 ** n, dtype=complex) / 2 ** n)
        assert purify_iterated(mixed, 5).success_probability == 2.0 ** -35
        with pytest.raises(PurificationUnderflow):
            purify_iterated(mixed, 6)
