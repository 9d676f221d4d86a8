"""Entropic channel quantities: Holevo quantity, classical capacity, entropy
exchange, coherent information, quantum capacity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import DensityOperator, QuantumChannel, basis_state, von_neumann_entropy


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


def average_state(ens: EnsembleSpec) -> DensityOperator:
    mix = sum(p * s.matrix for p, s in zip(ens.priors, ens.states))
    return DensityOperator(mix)


def _entropy_of_matrix(mat: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(mat)
    if evals.min() < -1e-12:
        raise ValueError(f"matrix eigenvalue {evals.min()} below the clamp floor")
    evals = evals[evals > 1e-12]
    return float(-np.sum(evals * np.log2(evals)))


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
    mix = sum(p * s.matrix for p, s in zip(input_ens.priors, input_ens.states))
    return _entropy_of_matrix(_environment_gram(mix, ch))


def _channel_output(ens: EnsembleSpec, ch: QuantumChannel) -> DensityOperator:
    mix = sum(p * s.matrix for p, s in zip(ens.priors, ens.states))
    out = sum(k @ mix @ k.conj().T for k in ch.kraus_ops)
    return DensityOperator(out)


def coherent_information(input_ens: EnsembleSpec, ch: QuantumChannel) -> float:
    """S(channel output mixture) - entropy exchange; may be negative."""
    return von_neumann_entropy(_channel_output(input_ens, ch)) - entropy_exchange(input_ens, ch)


def quantum_capacity(input_ens: EnsembleSpec, ch: QuantumChannel) -> float:
    """Coherent information of the ensemble through `ch`, floored at 0."""
    return max(coherent_information(input_ens, ch), 0.0)


def report(output_ens: EnsembleSpec, factors: Sequence[QuantumChannel]) -> CapacityReport:
    """Bundle every quantity for one protocol configuration.

    The Holevo side uses the actual output ensemble; the classical capacity
    is the uniform-prior value of its states (`classical_capacity`), so at
    uniform priors it is the Holevo value already computed. The channel side
    scores the noise channel, given as one single-qubit channel per qubit
    (the identity on an untouched qubit), on the ideal pure encoded inputs.
    Those form a full GHZ basis, so their uniform mix is I/d, the product of
    I/2 on every qubit; for a product channel the entropy exchange and the
    coherent information are then sums of one 2x2 term per qubit, taken on
    the uniform {|0>, |1>} ensemble."""
    half = EnsembleSpec.uniform([basis_state(1, 0).density(), basis_state(1, 1).density()])
    icoh = sum(coherent_information(half, f) for f in factors)
    chi = holevo(output_ens)
    uniform = np.all(output_ens.priors == 1.0 / len(output_ens.states))
    return CapacityReport(
        holevo=chi,
        classical_capacity=chi if uniform else classical_capacity(output_ens.states),
        entropy_exchange=sum(entropy_exchange(half, f) for f in factors),
        coherent_information=icoh,
        quantum_capacity=max(icoh, 0.0),
    )
