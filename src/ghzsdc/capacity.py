"""The Holevo quantity of a sequence of states at uniform priors, and the
capacity report of one protocol configuration, whose entropy exchange and
coherent information score the noise channel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy


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


def _exchange(mix: np.ndarray, ch: QuantumChannel) -> float:
    """Entropy generated in the environment by `ch` on the input state `mix`,
    in bits, unchecked: S(W) for the environment Gram matrix
    W_kl = tr(K_k mix K_l^dag) (Schumacher, PRA 54, 2614, 1996), whose
    conjugate, with the same spectrum, is what gets built."""
    kraus = np.stack(ch.kraus_ops)
    images = kraus @ mix
    np.conjugate(images, out=images)
    r = len(kraus)
    return _spectrum_entropy(np.linalg.eigvalsh(images.reshape(r, -1) @ kraus.reshape(r, -1).T))


def _channel_output(mix: np.ndarray, ch: QuantumChannel) -> DensityOperator:
    return DensityOperator(sum(k @ mix @ k.conj().T for k in ch.kraus_ops))


def report(chi: float, spec: NoiseSpec, n: int) -> CapacityReport:
    """Bundle every quantity for one protocol configuration.

    `chi` is the Holevo value of the output states at uniform priors; it
    fills both the holevo and the classical capacity. The
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
