"""Test oracles on the full space: a product of single-qubit channels as one
channel, the per-qubit factors of the protocol's noise, and dense conjugation
by a unitary on chosen qubits."""

from typing import Sequence

import numpy as np

from ghzsdc.noise import NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import I2, DensityOperator, QuantumChannel, Unitary, _check_targets, _conjugate_matrix


def full_space_channel(factors):
    """The channel acting as factors[q] on qubit q (qubit 0 leftmost), with
    one 2^n x 2^n Kraus operator per choice of a Kraus operator on each qubit."""
    kraus = [np.eye(1, dtype=complex)]
    for factor in factors:
        kraus = [np.kron(k, e) for k in kraus for e in factor.kraus_ops]
    return QuantumChannel(tuple(kraus))


def noise_factors(spec: NoiseSpec, n: int):
    """The protocol's noise as one single-qubit channel per qubit: the noise
    on qubit 0 (distribution), and on every remaining qubit for stage `both`;
    the identity channel on an untouched qubit."""
    single = make_channel(spec.kind, spec.p)
    both = spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN
    return [single] + [single if both else QuantumChannel((I2,))] * (n - 1)


def apply_unitary(rho: DensityOperator, u: Unitary, targets: Sequence[int]) -> DensityOperator:
    """Conjugate rho by u embedded on the given (ordered) target qubits."""
    targets = _check_targets(targets, u.qubit_count, rho.qubit_count)
    return DensityOperator(_conjugate_matrix(u.matrix, rho.matrix, targets, rho.qubit_count))
