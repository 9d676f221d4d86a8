"""CNOT-and-compare entanglement purification of pairs of noisy n-qubit GHZ
states, single-round and iterated.

A round keeps the pair when every target bit agrees, i.e. on the outcomes
m = 0 and m = 2^n - 1. On a general (possibly correlated) pair state P it
gathers the rows a*2^n + (a xor m) of P for both. For two i.i.d. copies,
P = rho (x) rho, that block is rho[a, b] * rho[a xor m, b xor m], so iterated
rounds work on the single copy and never build the 4^n-dim pair: the kept
state is rho o sum over accepted m of rho[a xor m, b xor m] ("o" is the
entrywise product), which reaches n = MAX_DENSITY_QUBITS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qcore
from .qcore import DensityOperator
from .sdc import shared_state


class PurificationUnderflow(RuntimeError):
    """Compound success probability fell below the representable floor."""


@dataclass(frozen=True)
class PurificationResult:
    kept_state: DensityOperator
    success_probability: float
    fidelity_before: float
    fidelity_after: float
    rounds: int


def purify_round(pair_state: DensityOperator, n: int) -> PurificationResult:
    """One purification round on a 2n-qubit pair state.

    Qubits 0..n-1 are the control copy (kept on success), qubits n..2n-1 the
    target copy. CNOTs run from control qubit i to target qubit i; the target
    register is measured and the round succeeds when all its outcome bits are
    equal.

    The CNOT layer maps |a, b> to |a, a xor b>, so outcome m selects the rows
    a*2^n + (a xor m) of the pair matrix P. The unnormalized kept state is
    P[rows_0, rows_0] + P[rows_M, rows_M] with M = 2^n - 1, and its trace is
    the success probability (Bennett et al., PRL 76, 722, 1996).
    """
    if pair_state.qubit_count != 2 * n:
        raise ValueError(f"pair state has {pair_state.qubit_count} qubits, expected {2 * n}")
    ideal = shared_state(n)
    fidelity_before = qcore.fidelity(ideal, qcore.partial_trace(pair_state, range(n)))

    a = np.arange(2 ** n)
    kept = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for m in (0, 2 ** n - 1):
        rows = a * 2 ** n + (a ^ m)
        kept += pair_state.matrix[np.ix_(rows, rows)]
    kept_state, success = _normalised(kept)
    return PurificationResult(
        kept_state=kept_state,
        success_probability=success,
        fidelity_before=fidelity_before,
        fidelity_after=qcore.fidelity(ideal, kept_state),
        rounds=1,
    )


def purify_iterated(source_state: DensityOperator, n: int, rounds: int) -> PurificationResult:
    """Iterate purification, each round consuming two i.i.d. copies of the
    previous round's output; reports the compound acceptance probability.

    A round keeps rho o sum over accepted m of rho[a xor m, b xor m], the
    gather `purify_round` makes on rho (x) rho, without building the pair.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if source_state.qubit_count != n:
        raise ValueError(f"source state has {source_state.qubit_count} qubits, expected {n}")
    ideal = shared_state(n)
    a = np.arange(2 ** n)
    state = source_state
    compound = 1.0
    for _ in range(rounds):
        rho = state.matrix
        kept = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for m in (0, 2 ** n - 1):
            kept += rho * rho[np.ix_(a ^ m, a ^ m)]
        state, success = _normalised(kept)
        compound *= success
        if compound < 1e-12:
            raise PurificationUnderflow("compound success probability below 1e-12")
    return PurificationResult(
        kept_state=state,
        success_probability=compound,
        fidelity_before=qcore.fidelity(ideal, source_state),
        fidelity_after=qcore.fidelity(ideal, state),
        rounds=rounds,
    )


def _normalised(kept: np.ndarray) -> tuple:
    """The validated kept state and the success probability tr(kept), capped
    at 1; raises PurificationUnderflow below the 1e-12 floor."""
    success = float(np.trace(kept).real)
    if success < 1e-12:
        raise PurificationUnderflow("acceptance probability below 1e-12")
    return DensityOperator(kept / success), min(success, 1.0)
