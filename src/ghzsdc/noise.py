"""Single-qubit noise channels and pure-state trajectory sampling used to
build QNN training sets."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

import numpy as np

from .qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, QuantumChannel, StateVector, _apply_each, _check_targets


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


def sample_trajectories(psi: StateVector, ch: QuantumChannel, targets: Sequence[int],
                        seeds: Sequence[int]) -> List[StateVector]:
    """Per seed, one Kraus branch drawn with its Born probability and
    renormalized. The branches and weights are computed once, and each drawn
    branch is validated once and shared by every seed that draws it.

    Deterministic per seed; averaging trajectory outer products over seeds
    converges to the channel output. A seed picks what
    `np.random.default_rng(seed).choice(len(weights), p=weights)` picks, by
    the same search of one uniform draw in the same cumulative sum, built
    once instead of per draw; a zero-weight branch is never picked.
    """
    targets = _check_targets(targets, ch.qubit_count, psi.qubit_count)
    branches = [_apply_each([k], [targets], psi.amplitudes, psi.qubit_count) for k in ch.kraus_ops]
    weights = np.array([np.linalg.norm(b) ** 2 for b in branches])
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    picks = [int(cdf.searchsorted(np.random.default_rng(int(seed)).random(), side="right")) for seed in seeds]
    states = {i: StateVector(branches[i] / np.linalg.norm(branches[i])) for i in set(picks)}
    return [states[i] for i in picks]
