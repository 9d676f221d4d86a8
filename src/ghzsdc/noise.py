"""Single-qubit noise channels and the noise specification of a protocol
run."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, QuantumChannel


class NoiseKind(enum.Enum):
    AMPLITUDE_DAMPING = "amplitude-damping"
    DEPOLARIZING = "depolarizing"
    BIT_FLIP = "bit-flip"
    PHASE_FLIP = "phase-flip"


class NoiseStage(enum.Enum):
    # dist: noise only on the qubit sent during entanglement distribution.
    # both: additionally on the encoded qubits during the return transmission.
    DISTRIBUTION_ONLY = "dist"
    DISTRIBUTION_AND_RETURN = "both"


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind
    p: float
    stage: NoiseStage = NoiseStage.DISTRIBUTION_ONLY

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"noise probability {self.p} outside [0, 1]")


@lru_cache(maxsize=128)
def make_channel(kind: NoiseKind, p: float) -> QuantumChannel:
    """Kraus set of the named single-qubit channel with error weight p.

    Depolarizing splits p equally across the three Paulis, so p=0 is
    noiseless and p=3/4 maps every state to I/2. The channel is immutable, so
    repeat calls share one instance instead of rebuilding and re-checking it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability {p} outside [0, 1]")
    if kind is NoiseKind.BIT_FLIP:
        ops = [np.sqrt(1 - p) * I2, np.sqrt(p) * SIGMA_X]
    elif kind is NoiseKind.PHASE_FLIP:
        ops = [np.sqrt(1 - p) * I2, np.sqrt(p) * SIGMA_Z]
    elif kind is NoiseKind.DEPOLARIZING:
        ops = [np.sqrt(1 - p) * I2,
               np.sqrt(p / 3) * SIGMA_X,
               np.sqrt(p / 3) * SIGMA_Y,
               np.sqrt(p / 3) * SIGMA_Z]
    elif kind is NoiseKind.AMPLITUDE_DAMPING:
        ops = [np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex),
               np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)]
    else:
        raise ValueError(f"unknown noise kind {kind}")
    return QuantumChannel(tuple(op for op in ops if np.any(op)))
