"""The capacity report of one protocol configuration: the Holevo value of
its outputs, and the entropy exchange and coherent information that score
the noise channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy


@dataclass(frozen=True)
class CapacityReport:
    holevo: float
    entropy_exchange: float
    coherent_information: float
    quantum_capacity: float


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

    `chi` is the Holevo value of the output states at uniform priors, which
    the CSV also reports as the classical capacity. The
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
        entropy_exchange=sum([s_e] * noisy),
        coherent_information=icoh,
        quantum_capacity=max(icoh, 0.0),
    )
