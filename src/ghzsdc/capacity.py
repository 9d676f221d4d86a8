"""Entropic channel quantities: Holevo quantity, classical capacity, entropy
exchange, coherent information, quantum capacity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy
from .sdc import twirl


@dataclass(frozen=True)
class EnsembleSpec:
    """States rho_i emitted with probabilities pi_i."""

    priors: np.ndarray
    states: tuple

    def __post_init__(self):
        priors = np.asarray(self.priors, dtype=float)
        states = tuple(self.states)
        if priors.ndim != 1 or len(states) != priors.size:
            raise ValueError("one prior per state required")
        if np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-10:
            raise ValueError("priors must be nonnegative and sum to 1")
        dims = {s.matrix.shape[0] for s in states}
        if len(dims) != 1:
            raise ValueError("ensemble states must share one dimension")
        priors.flags.writeable = False
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "states", states)

    @classmethod
    def uniform(cls, states: Sequence[DensityOperator]) -> "EnsembleSpec":
        states = tuple(states)
        return cls(np.full(len(states), 1.0 / len(states)), states)


@dataclass(frozen=True)
class CapacityReport:
    holevo: float
    classical_capacity: float
    entropy_exchange: float
    coherent_information: float
    quantum_capacity: float


def _mixture(ens: EnsembleSpec) -> np.ndarray:
    return sum(p * s.matrix for p, s in zip(ens.priors, ens.states))


def average_state(ens: EnsembleSpec) -> DensityOperator:
    return DensityOperator(_mixture(ens))


def holevo(ens: EnsembleSpec) -> float:
    """S(sum pi_i rho_i) - sum pi_i S(rho_i), in bits."""
    mixed = von_neumann_entropy(average_state(ens))
    conditional = sum(p * von_neumann_entropy(s) for p, s in zip(ens.priors, ens.states))
    return max(mixed - conditional, 0.0)


def classical_capacity(states: Sequence[DensityOperator]) -> float:
    """Holevo quantity of the state family at uniform priors, in bits.

    That is the optimum over priors for an orbit U_x rho U_x^dag of one state
    under a unitary group (Hiroshima, J. Phys. A 34, 6907 (2001)): the
    protocol's outputs under distribution noise, or under Pauli return noise,
    which commutes with the Pauli encoders. Amplitude-damping return noise
    breaks the orbit, and there the uniform value can sit slightly below."""
    return holevo(EnsembleSpec.uniform(states))


def orbit_holevo(state: DensityOperator) -> float:
    """`classical_capacity` of the 2^n encoded images of `state`, in bits.

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


def entropy_exchange(input_ens: EnsembleSpec, ch: QuantumChannel) -> float:
    """Entropy generated in the environment, in bits.

    Returns S(W) for the environment Gram matrix W_kl = tr(K_k rho K_l^dag),
    where rho is the prior-weighted ensemble average and K_k are the Kraus
    operators of `ch` (Schumacher, PRA 54, 2614, 1996).
    """
    for s in input_ens.states:
        purity = float(np.real(np.trace(s.matrix @ s.matrix)))
        if abs(purity - 1.0) > 1e-9:
            raise ValueError("entropy exchange requires pure ensemble members")
    dim = input_ens.states[0].matrix.shape[0]
    if ch.kraus_ops[0].shape[0] != dim:
        raise ValueError("channel dimension does not match the ensemble states")
    return _exchange(_mixture(input_ens), ch)


def _exchange(mix: np.ndarray, ch: QuantumChannel) -> float:
    """Entropy exchange of `ch` on the input state `mix`, unchecked."""
    return _spectrum_entropy(np.linalg.eigvalsh(_environment_gram(mix, ch)))


def _channel_output(mix: np.ndarray, ch: QuantumChannel) -> DensityOperator:
    return DensityOperator(sum(k @ mix @ k.conj().T for k in ch.kraus_ops))


def coherent_information(input_ens: EnsembleSpec, ch: QuantumChannel) -> float:
    """S(channel output mixture) - entropy exchange; may be negative."""
    return von_neumann_entropy(_channel_output(_mixture(input_ens), ch)) - entropy_exchange(input_ens, ch)


def quantum_capacity(input_ens: EnsembleSpec, ch: QuantumChannel) -> float:
    """Coherent information of the ensemble through `ch`, floored at 0."""
    return max(coherent_information(input_ens, ch), 0.0)


def report(chi: float, spec: NoiseSpec, n: int) -> CapacityReport:
    """Bundle every quantity for one protocol configuration.

    `chi` is the Holevo value of the output states at uniform priors
    (`classical_capacity`, or `orbit_holevo` of one state when the outputs
    are one orbit); it fills both the holevo and the classical capacity. The
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
