import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsdc.noise import NoiseKind, NoiseSpec
from ghzsdc.purify import PurificationUnderflow, purify_iterated
from ghzsdc.qcore import DensityOperator
from ghzsdc.sdc import distribute, ghz_fidelity, shared_state

import reference
from full_space import fidelity, random_state


def repeated_oracle(state, rounds):
    """`rounds` rounds of the textbook oracle `reference.purify`, each on
    the pair of two copies of the last kept state, and their compound
    success probability."""
    rho, compound = state.matrix, 1.0
    for _ in range(rounds):
        rho, success = reference.purify(rho, state.qubit_count)
        compound *= success
    return rho, compound


class TestSingleRound:
    def test_perfect_pair_is_fixed(self):
        n = 3
        result = purify_iterated(shared_state(n).density(), 1)
        assert abs(result.success_probability - 1) < 1e-9
        assert abs(ghz_fidelity(result.kept_state) - 1) < 1e-9
        assert fidelity(shared_state(n), result.kept_state) > 1 - 1e-9

    def test_single_round_matches_brute_force(self):
        copy = distribute(2, NoiseSpec(NoiseKind.BIT_FLIP, 0.2))
        result = purify_iterated(copy, 1)
        state, success = repeated_oracle(copy, 1)
        assert np.max(np.abs(result.kept_state.matrix - state)) < 1e-12
        assert abs(result.success_probability - success) < 1e-12


class TestPurifyIterated:
    def test_perfect_input_any_rounds(self):
        result = purify_iterated(shared_state(2).density(), 3)
        assert abs(ghz_fidelity(result.kept_state) - 1) < 1e-9
        assert abs(result.success_probability - 1) < 1e-9

    def test_second_round_does_not_hurt(self):
        copy = distribute(3, NoiseSpec(NoiseKind.BIT_FLIP, 0.2))
        one = purify_iterated(copy, 1)
        two = purify_iterated(copy, 2)
        assert ghz_fidelity(two.kept_state) >= ghz_fidelity(one.kept_state)
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
        # the factored i.i.d. round against the oracle on the built pair
        source = random_state(np.random.default_rng(seed), n, rank)
        result = purify_iterated(source, rounds)
        state, compound = repeated_oracle(source, rounds)
        assert np.max(np.abs(result.kept_state.matrix - state)) < 1e-12
        assert abs(result.success_probability - compound) < 1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @settings(max_examples=25, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]),
           p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           rounds=st.integers(1, 3))
    def test_distributed_state_against_oracle(self, kind, n, p, rounds):
        # every round succeeds with probability at least 2^-n, the bound that
        # leaves the compound probability as the only underflow floor
        source = distribute(n, NoiseSpec(kind, p))
        result = purify_iterated(source, rounds)
        state, compound = repeated_oracle(source, rounds)
        assert np.max(np.abs(result.kept_state.matrix - state)) < 1e-12
        assert abs(result.success_probability - compound) < 1e-12
        assert result.success_probability >= 2.0 ** (-n * rounds) - 1e-12

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_large_n_bit_flip_closed_form(self, n):
        # (1-q)|G><G| + q X_0|G><G|X_0: a pair passes when both copies are
        # flipped alike, so success = (1-q)^2 + q^2 and the kept GHZ weight is
        # (1-q)^2 / success
        q = 0.2
        result = purify_iterated(distribute(n, NoiseSpec(NoiseKind.BIT_FLIP, q)), 1)
        success = (1 - q) ** 2 + q ** 2
        assert abs(result.success_probability - success) < 1e-12
        assert abs(ghz_fidelity(result.kept_state) ** 2 - (1 - q) ** 2 / success) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), p=st.sampled_from([0.0, 0.75, 1.0]) | st.floats(0.0, 1.0),
           rounds=st.integers(1, 3))
    def test_bit_flip_recurrence(self, n, p, rounds):
        # (1-q)|G><G| + q X_0|G><G|X_0 keeps its form through a round, with
        # GHZ weight w -> w^2 / (w^2 + (1-w)^2) kept with probability
        # w^2 + (1-w)^2 (Bennett et al. 1996)
        source = distribute(n, NoiseSpec(NoiseKind.BIT_FLIP, p))
        result = purify_iterated(source, rounds)
        weight, compound = 1 - p, 1.0
        for _ in range(rounds):
            success = weight ** 2 + (1 - weight) ** 2
            weight, compound = weight ** 2 / success, compound * success
        assert abs(ghz_fidelity(source) - np.sqrt(1 - p)) < 1e-12
        assert abs(ghz_fidelity(result.kept_state) - np.sqrt(weight)) < 1e-12
        assert abs(result.success_probability - compound) < 1e-12

    def test_iterated_near_zero_yield(self):
        # the maximally mixed state is a fixed point with success 2/256 per
        # round at n = 8: 5 rounds give 2^-35, the 6th crosses the 1e-12 floor
        n = 8
        mixed = DensityOperator(np.eye(2 ** n, dtype=complex) / 2 ** n)
        assert purify_iterated(mixed, 5).success_probability == 2.0 ** -35
        with pytest.raises(PurificationUnderflow):
            purify_iterated(mixed, 6)
