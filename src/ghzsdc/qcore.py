"""Dense multi-qubit linear algebra: states, density operators, gates,
channels, entropy.

Conventions
-----------
Qubit 0 is the most significant (leftmost) position of a basis label, so
|q0 q1 ... q(m-1)> maps to the integer index with q0 as the high bit.
All entropies are in bits (log base 2). The array-holding value types
compare and hash by identity, as an array has no single truth value.

`_move` is the one move of qubits between array axes: the cached shape,
axis order and height of one reshape-transpose copy between two qubit
layouts. The return walk of `sdc` and both QNN walks read their moves from
plans of `_move` copies built once per width or network shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

ATOL = 1e-10

MAX_STATE_QUBITS = 12
MAX_DENSITY_QUBITS = 10

# Single-qubit gates.
I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _qubit_count_of(dim: int, what: str) -> int:
    m = int(dim).bit_length() - 1
    if dim <= 0 or 2 ** m != dim:
        raise ValueError(f"{what} dimension {dim} is not a power of two")
    return m


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state on ``qubit_count`` qubits."""

    amplitudes: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        m = _qubit_count_of(amps.size, "state vector")
        if m > MAX_STATE_QUBITS:
            raise ValueError(f"state vectors support at most {MAX_STATE_QUBITS} qubits, got {m}")
        if not np.isfinite(amps).all():
            raise ValueError("state vector has a non-finite amplitude")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= ATOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "qubit_count", m)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix on ``qubit_count``
    qubits; ``spectrum`` keeps the ascending eigenvalues of its PSD check."""

    matrix: np.ndarray
    qubit_count: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density operator must be a square matrix")
        m = _qubit_count_of(mat.shape[0], "density operator")
        if m > MAX_DENSITY_QUBITS:
            raise ValueError(f"density operators support at most {MAX_DENSITY_QUBITS} qubits, got {m}")
        # an inf entry would warn in the Hermiticity subtract, and each bound
        # below is written so that NaN fails it too; the method forms keep
        # the finiteness pass from adding to the cost
        if not np.isfinite(mat).all():
            raise ValueError("density operator has a non-finite entry")
        if not np.abs(mat - mat.conj().T).max() <= ATOL:
            raise ValueError("density operator is not Hermitian")
        tr = mat.trace().real
        if not abs(tr - 1.0) <= ATOL:
            raise ValueError(f"density operator trace {tr} is not 1")
        evals = np.linalg.eigvalsh(mat)
        if not evals[0] >= -ATOL:
            raise ValueError("density operator has a negative eigenvalue")
        mat.flags.writeable = False
        evals.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "qubit_count", m)
        object.__setattr__(self, "spectrum", evals)


@dataclass(frozen=True, eq=False)
class Unitary:
    """Unitary operator on ``qubit_count`` qubits."""

    matrix: np.ndarray
    qubit_count: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary must be a square matrix")
        k = _qubit_count_of(mat.shape[0], "unitary")
        # an inf entry warns in the matmul, and the bound fails on NaN too
        if not np.isfinite(mat).all() or not np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))) <= ATOL:
            raise ValueError("matrix is not unitary")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "qubit_count", k)


@dataclass(frozen=True, eq=False)
class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators;
    `superoperator`, its matrix on flattened density matrices, is lazy."""

    kraus_ops: tuple
    qubit_count: int = field(init=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        k = _qubit_count_of(dim, "channel")
        for op in ops:
            if op.shape != (dim, dim):
                raise ValueError("Kraus operators must share one square shape")
            if not np.isfinite(op).all():
                raise ValueError("Kraus operator has a non-finite entry")
        total = sum(op.conj().T @ op for op in ops)
        if not np.max(np.abs(total - np.eye(dim))) <= ATOL:
            raise ValueError("Kraus operators do not satisfy completeness")
        for op in ops:
            op.flags.writeable = False
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "qubit_count", k)

    @cached_property
    def superoperator(self) -> np.ndarray:
        """sum_k K_k (x) conj(K_k), read-only: the channel on a density matrix
        flattened row-major. Lazy, as only the return stage's walk needs it."""
        sup = sum(np.kron(op, op.conj()) for op in self.kraus_ops)
        sup.flags.writeable = False
        return sup


@lru_cache(maxsize=512)
def _move(src: tuple, dst: tuple, m: int) -> tuple:
    """The move of an array of 2^m entries per column, any columns, laid out
    with its `src` qubits first, in order, then the other qubits, to 2^len(dst)
    rows laid out with its `dst` qubits first, as (shape, order, height): the
    copy `arr.reshape(shape).transpose(order).reshape(height, -1)`. The
    natural order is the layout with no qubits first. Built once per pair of
    layouts."""
    old = src + tuple(q for q in range(m) if q not in src)
    new = dst + tuple(q for q in range(m) if q not in dst)
    return (2,) * m + (-1,), tuple(old.index(q) for q in new) + (m,), 2 ** len(dst)


def _spectrum_entropy(evals: np.ndarray) -> float:
    """-sum(lambda log2 lambda) over the positive eigenvalues, in bits (x log x
    is continuous at 0), subtracted from +0 so that a pure spectrum gives +0,
    not -0; eigenvalues down to -ATOL, as validation admits, are 0."""
    if not np.isfinite(evals).all():
        raise ValueError("matrix spectrum has a non-finite eigenvalue")
    if evals.min() < -ATOL:
        raise ValueError(f"matrix eigenvalue {evals.min()} below the clamp floor")
    evals = evals[evals > 0]
    return float(0.0 - np.sum(evals * np.log2(evals)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy of the spectrum validation already computed, in bits."""
    return _spectrum_entropy(rho.spectrum)
