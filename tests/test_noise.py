import numpy as np
import pytest

from ghzsdc.noise import NoiseKind, NoiseSpec, make_channel

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
