"""The bitwise superdense-coding encoder, closed-form GHZ-basis decoding and
the fidelities read off it, and the protocol stages `distribute`, `transmit`
and its return walk; and, for the Pauli kinds, the distribution and return
stages on the GHZ-basis weights of a GHZ-diagonal state.

Qubit 0 of the shared state is Bob's (distributed through the noisy channel);
qubits 1..n-1 are Alice's and carry the encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import qcore
from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from .qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, DensityOperator, QuantumChannel, StateVector, Unitary


_ENCODER_REFUSAL = "the bitwise encoder requires n >= 3"


@dataclass(frozen=True)
class Codeword:
    """n classical bits X = x_{n-1}...x_0 driving the encoder."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(_ENCODER_REFUSAL)
        if not 0 <= self.value < 2 ** self.n:
            raise ValueError(f"codeword value {self.value} out of range for {self.n} bits")

    def x(self, i: int) -> int:
        """Bit x_i of X = x_{n-1}...x_0."""
        return (self.value >> i) & 1


@dataclass(frozen=True, eq=False)
class SdcRunResult:
    received_state: DensityOperator
    decode_distribution: np.ndarray
    post_fidelity: float


def _frame(code: Codeword) -> tuple:
    """The encoder as a signed permutation of the n-qubit basis,
    |a> -> sign[a] |image[a]>. image[a] = a xor floor(X/2) flips Alice's qubit q
    when x_{n-q} is set, never qubit 0; sign[a] = -1 when x_0 = 1 and qubit 1 of
    a is 1, as sigma_z acts before sigma_x there (sigma_x sigma_z = -i sigma_y)."""
    n = code.n
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
    """Probability of each GHZ-basis outcome: entry i is <Psi_{i+1}|rho|Psi_{i+1}>.

    Basis states 2k and 2k+1 are (|k> +/- |~k>)/sqrt(2) for k < 2^(n-1), with
    ~k = (2^n - 1) xor k, so outcome 2k +/- is (rho[k,k] + rho[~k,~k])/2
    +/- Re rho[k,~k]: two diagonal entries and one off-diagonal entry each."""
    if rho.qubit_count < 2:
        raise ValueError(f"GHZ decoding needs at least 2 qubits, got {rho.qubit_count}")
    mat = rho.matrix
    k = np.arange(mat.shape[0] // 2)
    partner = (mat.shape[0] - 1) ^ k
    mean = (mat[k, k].real + mat[partner, partner].real) / 2
    cross = mat[k, partner].real
    return np.clip(np.stack([mean + cross, mean - cross], axis=1).reshape(-1), 0.0, None)


def ghz_fidelity(rho: DensityOperator, x: int = 0) -> float:
    """Fidelity of rho with GHZ-basis state x, sqrt(decode_ghz(rho)[x]).
    Outcome X is the noise-free image of codeword X, so this is the fidelity
    of codeword X's received state, and x = 0 that of the shared state; x must
    lie in [0, 2^n)."""
    probs = decode_ghz(rho)
    if not 0 <= x < len(probs):
        raise ValueError(f"GHZ-basis index {x} out of range [0, {len(probs)})")
    return float(np.sqrt(min(probs[x], 1.0)))


def _check_width(n: int, encoded: bool = False) -> None:
    """Refuses a shared state of n qubits outside 2..MAX_DENSITY_QUBITS and,
    if it is to be `encoded`, one of fewer than the encoder's 3 qubits."""
    if not 2 <= n <= qcore.MAX_DENSITY_QUBITS:
        raise ValueError(f"the shared GHZ state supports 2..{qcore.MAX_DENSITY_QUBITS} qubits, got {n}")
    if encoded and n < 3:
        raise ValueError(_ENCODER_REFUSAL)


@lru_cache(maxsize=None)
def shared_state(n: int) -> StateVector:
    """The pre-shared n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    _check_width(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[[0, -1]] = 1 / np.sqrt(2)
    return StateVector(amps)


def _kraus_branches(n: int, kind: NoiseKind, p: float) -> np.ndarray:
    """The unnormalised Kraus branches (K_k (x) I)|GHZ> of the noise on Bob's
    qubit 0 of `shared_state(n)`, as the rows of an (r, 2^n) array; qubit 0
    is the high bit, so K_k acts on the amplitudes as a (2, 2^(n-1)) matrix."""
    amps = shared_state(n).amplitudes.reshape(2, -1)
    return np.array([(k @ amps).reshape(-1) for k in make_channel(kind, p).kraus_ops])


def distribute(n: int, noise: NoiseSpec) -> DensityOperator:
    """The shared GHZ state after distribution, noise on Bob's qubit 0 only:
    sum_k |b_k><b_k| over its `_kraus_branches` b_k, validated once."""
    branches = _kraus_branches(n, noise.kind, noise.p)
    return DensityOperator(branches.T @ branches.conj())


# Each Pauli maps GHZ basis state (k, s), (|k> + (-1)^s |~k>)/sqrt(2), to
# another, up to a phase: sigma_x flips k's bit of the qubit, sigma_z flips
# s, and sigma_y does both. As (Pauli, flips k, flips s):
_GHZ_MOVES = ((I2, False, False), (SIGMA_X, True, False), (SIGMA_Y, True, True), (SIGMA_Z, False, True))


@lru_cache(maxsize=128)
def _ghz_moves(kind: NoiseKind, p: float) -> tuple:
    """The `_GHZ_MOVES` of the Pauli channel `make_channel(kind, p)`, as
    (weight, flips k, flips s), each Pauli P weighted by
    sum_K |tr(P^dag K)|^2 / 4 over the channel's Kraus operators, each of
    them a scaled Pauli; moves of weight 0 are dropped. Built once per
    channel, as the channel is."""
    ops = make_channel(kind, p).kraus_ops
    moves = ((sum(abs(np.vdot(pauli, op)) ** 2 for op in ops) / 4, flips_k, flips_s)
             for pauli, flips_k, flips_s in _GHZ_MOVES)
    return tuple(move for move in moves if move[0])


def _ghz_walk(weights: np.ndarray, moves: tuple, qubits) -> np.ndarray:
    """The Pauli channel of `moves`, from `_ghz_moves`, on each of `qubits`
    of a GHZ-diagonal n-qubit state, held as its GHZ-basis weights in
    `decode_ghz`'s order (entry 2k + s): per qubit, the weighted sum of the
    moves' gathers of the weights. sigma_x on Bob's qubit 0 takes |k> to
    |k xor 2^(n-1)>, whose complement k xor (2^(n-1) - 1) is the new k."""
    n = weights.size.bit_length() - 1
    k = np.arange(2 ** (n - 1))
    table = weights.reshape(-1, 2)
    for qubit in qubits:
        mask = 2 ** (n - 1) - 1 if qubit == 0 else 1 << (n - 1 - qubit)
        table = sum(w * table[k ^ mask if flips_k else k, ::-1 if flips_s else 1]
                    for w, flips_k, flips_s in moves)
    return table.reshape(-1)


def _ghz_distribute(n: int, kind: NoiseKind, p: float) -> np.ndarray:
    """`distribute` for a Pauli kind, as GHZ-basis weights: the GHZ state is
    basis state 0, and the noise hits Bob's qubit 0."""
    weights = np.zeros(2 ** n)
    weights[0] = 1.0
    return _ghz_walk(weights, _ghz_moves(kind, p), [0])


@lru_cache(maxsize=None)
def _return_plan(n: int) -> tuple:
    """The `qcore._move` copies of the return walk on an n-qubit matrix
    flattened row-major to 2n qubits: to the row and column copies (q, n + q)
    of each of Alice's qubits q = 1..n-1 in turn, each straight from the
    previous one's layout, then back to the natural order. Built once per
    width."""
    layouts = ((),) + tuple((q, n + q) for q in range(1, n)) + ((),)
    return tuple(qcore._move(src, dst, 2 * n) for src, dst in zip(layouts, layouts[1:]))


def _return_walk(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """`ch` on each of qubits 1..n-1 of the bare n-qubit matrix rho, by the
    moves of `_return_plan`: one matmul by the superoperator
    sum_k K_k (x) conj(K_k) per qubit (Wood, Biamonte and Cory, QIC 15, 759
    (2015)); validates nothing."""
    plan = _return_plan(len(rho).bit_length() - 1)
    rows = rho.reshape(-1, 1)
    for shape, order, height in plan[:-1]:
        rows = ch.superoperator @ rows.reshape(shape).transpose(order).reshape(height, -1)
    shape, order, _ = plan[-1]
    return rows.reshape(shape).transpose(order).reshape(rho.shape)


def transmit(shared: DensityOperator, code: Codeword, noise: NoiseSpec) -> DensityOperator:
    """Alice's encoding and return: the encoder acts on qubits 1..n-1, and
    with stage `both` the channel then hits each of qubits 1..n-1 in transit.
    Qubit 0 is untouched. The encoder is a signed permutation, so the encoded
    state is one gather, (rho o sign sign^T)[image, image]. The return steps
    are one `_return_walk` on the bare matrix, and only the transmitted state
    is validated."""
    n = code.n
    if shared.qubit_count != n:
        raise ValueError(f"shared state has {shared.qubit_count} qubits, codeword width is {n}")
    image, sign = _frame(code)
    rho = (shared.matrix * np.outer(sign, sign))[np.ix_(image, image)]
    if noise.stage is NoiseStage.DISTRIBUTION_AND_RETURN:
        rho = _return_walk(make_channel(noise.kind, noise.p), rho)
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
        raise ValueError(_ENCODER_REFUSAL)
    a = np.arange(2 ** n)
    by_offset = state.matrix[a[:, None], a[:, None] ^ a]
    table = by_offset.reshape(2, -1, 2 ** n).sum(axis=1) / 2 ** (n - 1)
    table[:, (a >> (n - 2)) & 1 == 1] = 0
    return DensityOperator(table[(a >> (n - 1))[:, None], a[:, None] ^ a])


def run_protocol(
    code: Codeword,
    noise: NoiseSpec,
    corrector: Optional[Callable[[DensityOperator], DensityOperator]] = None,
) -> SdcRunResult:
    """One end-to-end superdense-coding run for a single codeword of n bits:
    `distribute` on n qubits, then the optional `corrector` on the shared
    state, then `transmit`, then GHZ-basis decoding and the fidelity with the
    noise-free received state, read off the decoding."""
    rho = distribute(code.n, noise)
    if corrector is not None:
        rho = corrector(rho)
    rho = transmit(rho, code, noise)
    return SdcRunResult(rho, decode_ghz(rho), ghz_fidelity(rho, code.value))
