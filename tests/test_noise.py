import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsdc.noise import (
    NoiseKind,
    NoiseSpec,
    make_channel,
    sample_trajectories,
)
from ghzsdc.qcore import StateVector, _apply_each

from full_space import apply_channel, basis_state, random_state

ALL_KINDS = list(NoiseKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_kraus_completeness(kind, p):
    ch = make_channel(kind, p)
    total = sum(k.conj().T @ k for k in ch.kraus_ops)
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_p_zero_is_identity(kind):
    ch = make_channel(kind, 0.0)
    rho = random_state(np.random.default_rng(1), 1, 2)
    out = apply_channel(rho, ch, [0])
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_amplitude_damping_p1_resets_everything():
    ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 1.0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        out = apply_channel(random_state(rng, 1, 2), ch, [0])
        assert np.allclose(out.matrix, basis_state(1, 0).density().matrix, atol=1e-12)


def test_depolarizing_three_quarters_is_uniform():
    ch = make_channel(NoiseKind.DEPOLARIZING, 0.75)
    rng = np.random.default_rng(3)
    for _ in range(5):
        out = apply_channel(random_state(rng, 1, 2), ch, [0])
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_out_of_range_p_rejected():
    with pytest.raises(ValueError):
        make_channel(NoiseKind.BIT_FLIP, 1.5)
    with pytest.raises(ValueError):
        NoiseSpec(NoiseKind.BIT_FLIP, -0.1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="^unknown noise kind bit-flip$"):
        make_channel("bit-flip", 0.1)


class TestTrajectories:
    def test_identity_channel_returns_input(self):
        ch = make_channel(NoiseKind.DEPOLARIZING, 0.0)
        psi = StateVector(np.array([1, 1j], dtype=complex) / np.sqrt(2))
        for out in sample_trajectories(psi, ch, [0], range(10)):
            assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_damping_p1_always_resets(self):
        ch = make_channel(NoiseKind.AMPLITUDE_DAMPING, 1.0)
        psi = basis_state(1, 1)
        for out in sample_trajectories(psi, ch, [0], range(10)):
            assert np.max(np.abs(out.amplitudes - [1, 0])) < 1e-12

    def test_deterministic_per_seed(self):
        ch = make_channel(NoiseKind.BIT_FLIP, 0.5)
        psi = basis_state(1, 0)
        [a] = sample_trajectories(psi, ch, [0], [1234])
        [b] = sample_trajectories(psi, ch, [0], [1234])
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_bit_flip_monte_carlo_mixture(self):
        # Monte-Carlo oracle: empirical mixture approximates the channel output
        ch = make_channel(NoiseKind.BIT_FLIP, 0.5)
        psi = basis_state(1, 0)
        counts = np.zeros(2)
        trials = 100_000
        for out in sample_trajectories(psi, ch, [0], range(trials)):
            counts[int(abs(out.amplitudes[1]) > 0.5)] += 1
        empirical = counts / trials
        assert np.abs(empirical - 0.5).sum() / 2 < 0.01  # total variation

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_trajectory_mean_matches_channel(self, kind):
        ch = make_channel(kind, 0.35)
        amps = np.array([0.6, 0.8j])
        psi = StateVector(amps)
        mean = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for state in sample_trajectories(psi, ch, [0], range(n)):
            out = state.amplitudes
            mean += np.outer(out, out.conj())
        mean /= n
        direct = apply_channel(psi.density(), ch, [0]).matrix
        assert np.max(np.abs(mean - direct)) < 0.02

    @pytest.mark.parametrize("kind, psi", [
        (NoiseKind.DEPOLARIZING, StateVector(np.array([0.6, 0.48j, 0.0, 0.64]))),
        (NoiseKind.AMPLITUDE_DAMPING, basis_state(3, 0)),
    ], ids=["depolarizing", "damping-on-zeros"])
    def test_picks_match_generator_choice(self, kind, psi):
        # each seed picks what Generator.choice picks from the Born weights;
        # damping |0...0> has a zero-weight branch that is never picked
        ch = make_channel(kind, 0.6)
        branches = [_apply_each([k], [[0]], psi.amplitudes, psi.qubit_count) for k in ch.kraus_ops]
        weights = np.array([np.linalg.norm(b) ** 2 for b in branches])
        weights = weights / weights.sum()
        seeds = range(2500)
        picks = [int(np.random.default_rng(seed).choice(len(weights), p=weights)) for seed in seeds]
        drawn = sample_trajectories(psi, ch, [0], seeds)
        for pick, out in zip(picks, drawn):
            assert np.array_equal(out.amplitudes, branches[pick] / np.linalg.norm(branches[pick]))
        assert set(picks) == {i for i, w in enumerate(weights) if w > 0}
        assert len({id(s) for s in drawn}) == len(set(picks))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), p=st.floats(0.0, 1.0), m=st.integers(1, 3),
           data=st.data(), state_seed=st.integers(0, 2 ** 32 - 1),
           seeds=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=50))
    def test_batch_matches_one_seed_at_a_time(self, kind, p, m, data, state_seed, seeds):
        # each seed draws as it would alone, and equal draws share one state
        rng = np.random.default_rng(state_seed)
        amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
        psi = StateVector(amps / np.linalg.norm(amps))
        target = data.draw(st.integers(0, m - 1))
        ch = make_channel(kind, p)
        batch = sample_trajectories(psi, ch, [target], seeds)
        assert len(batch) == len(seeds)
        for seed, out in zip(seeds, batch):
            [alone] = sample_trajectories(psi, ch, [target], [seed])
            assert np.array_equal(out.amplitudes, alone.amplitudes)
        assert len({id(s) for s in batch}) == len({s.amplitudes.tobytes() for s in batch})
