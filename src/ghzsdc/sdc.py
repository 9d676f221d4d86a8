"""n-GHZ basis construction, the bitwise superdense-coding encoder, GHZ-basis
decoding, and the protocol stages `distribute` and `transmit`.

Qubit 0 of the shared state is Bob's (distributed through the noisy channel);
qubits 1..n-1 are Alice's and carry the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import qcore
from .noise import NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, StateVector, Unitary


@dataclass(frozen=True)
class GhzBasis:
    """The 2^n orthonormal GHZ states on n qubits, in conventional order:
    states 2k and 2k+1 are (|b> +/- |~b>)/sqrt(2) for the k-th pattern b."""

    n: int
    states: tuple


@dataclass(frozen=True)
class Codeword:
    """n classical bits X = x_{n-1}...x_0 driving the encoder."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("codeword needs at least 2 bits")
        if not 0 <= self.value < 2 ** self.n:
            raise ValueError(f"codeword value {self.value} out of range for {self.n} bits")

    def x(self, i: int) -> int:
        """Bit x_i of X = x_{n-1}...x_0."""
        return (self.value >> i) & 1


@dataclass(frozen=True)
class SdcRunResult:
    codeword: Codeword
    received_state: DensityOperator
    decode_distribution: np.ndarray
    post_fidelity: float


@lru_cache(maxsize=None)
def ghz_basis(n: int) -> GhzBasis:
    """Orthonormal basis of 2^n GHZ states on n qubits."""
    if not 2 <= n <= qcore.MAX_DENSITY_QUBITS:
        raise ValueError(f"GHZ basis supports 2..{qcore.MAX_DENSITY_QUBITS} qubits, got {n}")
    dim = 2 ** n
    states = []
    for b in range(dim // 2):
        # the b-th bit pattern with a leading 0, paired with its complement
        for sign in (1.0, -1.0):
            amps = np.zeros(dim, dtype=complex)
            amps[b] = 1 / np.sqrt(2)
            amps[(dim - 1) ^ b] = sign / np.sqrt(2)
            states.append(StateVector(amps))
    return GhzBasis(n, tuple(states))


def _frame(code: Codeword) -> tuple:
    """The encoder as a signed permutation of the n-qubit basis,
    |a> -> sign[a] |image[a]>. image[a] = a xor floor(X/2) flips Alice's qubit q
    when x_{n-q} is set, never qubit 0; sign[a] = -1 when x_0 = 1 and qubit 1 of
    a is 1, as sigma_z acts before sigma_x there (sigma_x sigma_z = -i sigma_y)."""
    n = code.n
    if n < 3:
        raise ValueError("the bitwise encoder requires n >= 3")
    a = np.arange(2 ** n)
    sign = np.where(code.x(0) & (a >> (n - 2)), -1.0, 1.0)
    return a ^ (code.value >> 1), sign


def encode_usdc(code: Codeword) -> Unitary:
    """The (n-1)-qubit encoding operator for codeword X as a matrix: the Pauli
    product of I, sigma_x, sigma_z or -i*sigma_y on Alice's first qubit, selected
    by (x_0, x_{n-1}), and I or sigma_x selected by x_{n-2}..x_1 on the rest. The
    protocol stages apply it as the signed permutation `_frame`."""
    image, sign = _frame(code)
    half = 2 ** (code.n - 1)
    mat = np.zeros((half, half), dtype=complex)
    mat[image[:half], np.arange(half)] = sign[:half]
    return Unitary(mat)


def decode_ghz(rho: DensityOperator) -> np.ndarray:
    """Probability of each GHZ-basis outcome: entry i is <Psi_{i+1}|rho|Psi_{i+1}>."""
    probs = [float(np.real(s.amplitudes.conj() @ rho.matrix @ s.amplitudes))
             for s in ghz_basis(rho.qubit_count).states]
    return np.clip(probs, 0.0, None)


@lru_cache(maxsize=None)
def shared_state(n: int) -> StateVector:
    """The pre-shared n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if not 2 <= n <= qcore.MAX_DENSITY_QUBITS:
        raise ValueError(f"GHZ basis supports 2..{qcore.MAX_DENSITY_QUBITS} qubits, got {n}")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[0, -1]] = 1 / np.sqrt(2)
    return StateVector(amps)


def ideal_received_state(n: int, code: Codeword) -> StateVector:
    """Noise-free image of the shared state: (sign o psi_GHZ)[image]."""
    if code.n != n:
        raise ValueError(f"codeword width {code.n} differs from n={n}")
    image, sign = _frame(code)
    return StateVector((sign * shared_state(n).amplitudes)[image])


def distribute(n: int, noise: NoiseSpec) -> DensityOperator:
    """The shared GHZ state after distribution: the channel acts on qubit 0
    (Bob's) only; Alice's qubits 1..n-1 are untouched. The channel acts on
    the bare outer product, and only the distributed state is validated."""
    amps = shared_state(n).amplitudes
    rho = np.outer(amps, amps.conj())
    return DensityOperator(qcore._kraus_sum(make_channel(noise.kind, noise.p), rho, [0], n))


def transmit(shared: DensityOperator, code: Codeword, noise: NoiseSpec) -> DensityOperator:
    """Alice's encoding and return: the encoder acts on qubits 1..n-1, and
    with stage `both` the channel then hits each of qubits 1..n-1 in transit.
    Qubit 0 is untouched. The encoder is a signed permutation, so the encoded
    state is one gather, (rho o sign sign^T)[image, image]. The return steps
    act on the bare matrix, and only the transmitted state is validated."""
    n = code.n
    if shared.qubit_count != n:
        raise ValueError(f"shared state has {shared.qubit_count} qubits, codeword width is {n}")
    image, sign = _frame(code)
    rho = (shared.matrix * np.outer(sign, sign))[np.ix_(image, image)]
    if noise.stage is NoiseStage.DISTRIBUTION_AND_RETURN:
        ch = make_channel(noise.kind, noise.p)
        for q in range(1, n):
            rho = qcore._kraus_sum(ch, rho, [q], n)
    return DensityOperator(rho)


def twirl(state: DensityOperator) -> DensityOperator:
    """The uniform mixture of the 2^n encoded images of `state`, in closed form.

    Averaged over the codewords, the sign pairs cancel unless qubit 1 of a
    xor b is 0, and the flips run over every a' that shares qubit 0 with a:
    T[a, b] = 2^-(n-1) sum_{a'_0 = a_0} state[a', a' xor a xor b]. One gather
    by (row, a xor b), a sum over rows sharing qubit 0 to a 2 x 2^n table, and
    one gather back; no loop over codewords."""
    n = state.qubit_count
    if n < 3:
        raise ValueError("the bitwise encoder requires n >= 3")
    a = np.arange(2 ** n)
    by_offset = state.matrix[a[:, None], a[:, None] ^ a]
    table = by_offset.reshape(2, -1, 2 ** n).sum(axis=1) / 2 ** (n - 1)
    table[:, (a >> (n - 2)) & 1 == 1] = 0
    return DensityOperator(table[(a >> (n - 1))[:, None], a[:, None] ^ a])


def run_protocol(
    n: int,
    code: Codeword,
    noise: NoiseSpec,
    corrector: Optional[Callable[[DensityOperator], DensityOperator]] = None,
) -> SdcRunResult:
    """One end-to-end superdense-coding run for a single codeword:
    `distribute`, then the optional `corrector` on the shared state, then
    `transmit`, then GHZ-basis decoding and the fidelity with the noise-free
    received state."""
    rho = distribute(n, noise)
    if corrector is not None:
        rho = corrector(rho)
    rho = transmit(rho, code, noise)
    target = ideal_received_state(n, code)
    return SdcRunResult(code, rho, decode_ghz(rho), qcore.fidelity(target, rho))
