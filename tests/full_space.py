"""Test oracle: a product of single-qubit channels built on the full space."""

import numpy as np

from ghzsdc.qcore import QuantumChannel


def full_space_channel(factors):
    """The channel acting as factors[q] on qubit q (qubit 0 leftmost), with
    one 2^n x 2^n Kraus operator per choice of a Kraus operator on each qubit."""
    kraus = [np.eye(1, dtype=complex)]
    for factor in factors:
        kraus = [np.kron(k, e) for k in kraus for e in factor.kraus_ops]
    return QuantumChannel(tuple(kraus))
