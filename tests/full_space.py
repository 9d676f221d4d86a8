"""Test oracles on the full space: a product of single-qubit channels as one
channel, the per-qubit factors of the protocol's noise, dense conjugation by a
unitary on chosen qubits, and the entropy exchange from a Stinespring
dilation."""

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


def stinespring_environment_entropy(states: Sequence[DensityOperator], ch: QuantumChannel) -> float:
    """Entropy exchange of `ch` on the uniform mixture of `states`, in bits,
    as the entropy of the environment marginal of the joint pure state
    (V (x) I)|psi>, where V|phi> = sum_k |k>_env (x) K_k|phi> and |psi> purifies
    the mixture on system (x) reference (Schumacher, PRA 54, 2614, 1996)."""
    mix = sum(s.matrix for s in states) / len(states)
    evals, vecs = np.linalg.eigh(mix)
    # |psi> = sum_i sqrt(l_i) |v_i>_sys |i>_ref, as a system x reference matrix
    psi = vecs * np.sqrt(np.clip(evals, 0.0, None))
    joint = np.stack([k @ psi for k in ch.kraus_ops])
    flat = joint.reshape(len(ch.kraus_ops), -1)
    env = np.linalg.eigvalsh(flat @ flat.conj().T)
    env = env[env > 1e-12]
    return float(-np.sum(env * np.log2(env)))
