"""Iterated CNOT-and-compare entanglement purification of noisy n-qubit GHZ
states (Bennett et al., PRL 76, 722 (1996)).

A round takes two i.i.d. copies rho of the state, runs a CNOT from each
qubit of the control copy to the same qubit of the target copy, measures
the target copy and keeps the control copy when every target bit agrees,
i.e. on the outcomes m = 0 and m = 2^n - 1. The CNOT layer maps |a, b> to
|a, a xor b>, so outcome m gathers the entries rho[a, b] * rho[a xor m,
b xor m] of the pair rho (x) rho. A round therefore works on the single
copy and never builds the 4^n-dim pair: the unnormalized kept state is
rho o sum over accepted m of rho[a xor m, b xor m] ("o" is the entrywise
product), its trace is the success probability, and n reaches
MAX_DENSITY_QUBITS.

A round multiplies entry (a, b) by the entries (a, b) and (~a, ~b), so it
keeps an X-state (`sdc`) an X-state; on its vectors diag and anti it is
v o v + v o reverse(v), each vector on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import DensityOperator


class PurificationUnderflow(RuntimeError):
    """Compound success probability fell below the representable floor."""


@dataclass(frozen=True)
class PurificationResult:
    kept_state: DensityOperator
    success_probability: float


def _iterate(state, rounds: int, round_: Callable) -> tuple:
    """`rounds` rounds of `round_`, which maps a state to its kept state and
    success probability; returns the last kept state and the compound
    success probability, and raises PurificationUnderflow once that falls
    below 1e-12."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    compound = 1.0
    for _ in range(rounds):
        state, success = round_(state)
        compound *= min(success, 1.0)
        if compound < 1e-12:
            raise PurificationUnderflow("compound success probability below 1e-12")
    return state, compound


def _round(state: DensityOperator) -> tuple:
    """One round on the single copy of a dense state."""
    rho = state.matrix
    # m = 0 gathers rho itself, and m = 2^n - 1 the index reversal,
    # since a xor (2^n - 1) = 2^n - 1 - a
    kept = rho * rho
    kept += rho * rho[::-1, ::-1]
    # a round on i.i.d. copies succeeds with probability
    # sum_a rho_aa^2 + rho_aa rho_~a~a >= sum_a rho_aa^2 >= 2^-n (~a is a's
    # complement), so only the compound probability can reach the floor
    success = float(np.trace(kept).real)
    return DensityOperator(kept / success), success


def _x_round(x: np.ndarray) -> tuple:
    """One round on an X-state (`sdc`): `_round` on its rows diag and anti,
    where the index reversal reverses each row."""
    kept = x * x + x * x[:, ::-1]
    success = float(kept[0].real.sum())
    return kept / success, success


def purify_iterated(source_state: DensityOperator, rounds: int) -> PurificationResult:
    """Iterate purification, each round consuming two i.i.d. copies of the
    previous round's output; reports the compound acceptance probability and
    raises PurificationUnderflow once it falls below 1e-12."""
    state, compound = _iterate(source_state, rounds, _round)
    return PurificationResult(kept_state=state, success_probability=compound)
