"""Entropic channel quantities of a sequence of states at uniform priors:
Holevo quantity, entropy exchange and coherent information, and the capacity
report of one protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy
from .sdc import twirl


@dataclass(frozen=True)
class CapacityReport:
    holevo: float
    classical_capacity: float
    entropy_exchange: float
    coherent_information: float
    quantum_capacity: float


def _mixture(states: Sequence[DensityOperator]) -> np.ndarray:
    """The uniform mixture of a non-empty sequence of states of one width."""
    if not states:
        raise ValueError("need at least one state")
    if len({s.matrix.shape[0] for s in states}) != 1:
        raise ValueError("states must share one dimension")
    p = 1.0 / len(states)
    return sum(p * s.matrix for s in states)


def holevo(states: Sequence[DensityOperator]) -> float:
    """S(mixture) - mean S(rho_i) of the states at uniform priors, in bits.

    That is the optimum over priors for an orbit U_x rho U_x^dag of one state
    under a unitary group (Hiroshima, J. Phys. A 34, 6907 (2001)): the
    protocol's outputs under distribution noise, or under Pauli return noise,
    which commutes with the Pauli encoders. Amplitude-damping return noise
    breaks the orbit, and there the uniform value can sit slightly below."""
    mixed = von_neumann_entropy(DensityOperator(_mixture(states)))
    p = 1.0 / len(states)
    conditional = sum(p * von_neumann_entropy(s) for s in states)
    return max(mixed - conditional, 0.0)


def orbit_holevo(state: DensityOperator) -> float:
    """`holevo` of the 2^n encoded images of `state`, in bits.

    The images share the spectrum of `state`, and their uniform mixture is
    its twirl over the encoder frames (`sdc.twirl`), so the Holevo value is
    S(twirl(state)) - S(state) (Bowen, PRA 63, 022302 (2001)): one
    eigensolve, with no state built per codeword."""
    return max(von_neumann_entropy(twirl(state)) - von_neumann_entropy(state), 0.0)


def _environment_gram(mix: np.ndarray, ch: QuantumChannel) -> np.ndarray:
    """conj(W) for W_kl = tr(K_k mix K_l^dag); conj(W) has the spectrum of W.

    A separate function so the r x d x d temporaries are freed before the
    caller's eigensolve, which keeps peak memory at the Gram matrix."""
    kraus = np.stack(ch.kraus_ops)
    images = kraus @ mix
    np.conjugate(images, out=images)
    r = len(kraus)
    return images.reshape(r, -1) @ kraus.reshape(r, -1).T


def _pure_input(states: Sequence[DensityOperator], ch: QuantumChannel) -> np.ndarray:
    """The uniform mixture of pure `states` on which `ch` acts."""
    for s in states:
        purity = float(np.real(np.trace(s.matrix @ s.matrix)))
        if abs(purity - 1.0) > 1e-9:
            raise ValueError("entropy exchange requires pure input states")
    mix = _mixture(states)
    if ch.kraus_ops[0].shape[0] != mix.shape[0]:
        raise ValueError("channel dimension does not match the input states")
    return mix


def entropy_exchange(states: Sequence[DensityOperator], ch: QuantumChannel) -> float:
    """Entropy generated in the environment, in bits.

    Returns S(W) for the environment Gram matrix W_kl = tr(K_k rho K_l^dag),
    where rho is the uniform mixture of the pure input `states` and K_k are
    the Kraus operators of `ch` (Schumacher, PRA 54, 2614, 1996).
    """
    return _exchange(_pure_input(states, ch), ch)


def _exchange(mix: np.ndarray, ch: QuantumChannel) -> float:
    """Entropy exchange of `ch` on the input state `mix`, unchecked."""
    return _spectrum_entropy(np.linalg.eigvalsh(_environment_gram(mix, ch)))


def _channel_output(mix: np.ndarray, ch: QuantumChannel) -> DensityOperator:
    return DensityOperator(sum(k @ mix @ k.conj().T for k in ch.kraus_ops))


def coherent_information(states: Sequence[DensityOperator], ch: QuantumChannel) -> float:
    """S(channel output of the uniform mixture) - entropy exchange; may be
    negative. Floored at 0, it is the quantum capacity of the report."""
    mix = _pure_input(states, ch)
    return von_neumann_entropy(_channel_output(mix, ch)) - _exchange(mix, ch)


def report(chi: float, spec: NoiseSpec, n: int) -> CapacityReport:
    """Bundle every quantity for one protocol configuration.

    `chi` is the Holevo value of the output states at uniform priors
    (`holevo`, or `orbit_holevo` of one state when the outputs are one
    orbit); it fills both the holevo and the classical capacity. The
    channel side scores the noise of `spec` on the ideal encoded inputs of
    n qubits, as one term of the channel on I/2 per noisy qubit and 0 and 1 bit
    per untouched one: the ideal inputs mix to I/d, and the noise is a product."""
    noisy = n if spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN else 1
    ch = make_channel(spec.kind, spec.p)
    half = np.eye(2, dtype=complex) / 2
    s_e = _exchange(half, ch)
    term = von_neumann_entropy(_channel_output(half, ch)) - s_e
    icoh = sum([term] * noisy + [1.0] * (n - noisy))
    return CapacityReport(
        holevo=chi,
        classical_capacity=chi,
        entropy_exchange=sum([s_e] * noisy),
        coherent_information=icoh,
        quantum_capacity=max(icoh, 0.0),
    )
