"""Dissipative feed-forward quantum neural network.

Each layer transition maps an n-qubit register onto n fresh qubits through a
product of n quantum perceptrons; perceptron j acts on the n previous-layer
qubits plus its own fresh qubit. The input register (and any intermediate
registers) are traced out, so the trained network is a channel that can be
dropped into the protocol as a noise corrector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from typing import List, Sequence, Tuple

import numpy as np

from .qcore import DensityOperator, StateVector, Unitary, _move

# The widest input that training supports, and so the widest network that
# feedforward and model files accept; a wider one is refused, not run.
MAX_TRAINABLE_WIDTH = 6

# The largest training step eps; with the directions normalised to a largest
# Frobenius norm of 1, every step has eps*|K| <= 0.1, so `_expm_i_powers`
# needs no scaling and squaring.
STEP_SIZE = 0.1


@dataclass(frozen=True, eq=False)
class QnnModel:
    """A network as its perceptrons: `stack` is one read-only layer-major
    (L*n, d, d) array, d = 2^(n+1), whose entry t*n + j is perceptron j of
    transition t; its shape alone gives the width n >= 1 and the number of
    layer transitions L >= 1. The input is copied and each member checked as
    a `Unitary`; a member's error carries its index as `member`."""

    stack: np.ndarray

    def __post_init__(self):
        stack = np.array(self.stack, dtype=complex)
        n = stack.shape[-1].bit_length() - 2 if stack.ndim == 3 else 0
        if n < 1 or stack.shape[1:] != (2 ** (n + 1),) * 2 or not len(stack) or len(stack) % n:
            raise ValueError(f"perceptron stack has shape {stack.shape}, not (L*n, 2^(n+1), 2^(n+1)) with n, L >= 1")
        for i, u in enumerate(stack):
            try:
                Unitary(u)
            except ValueError as exc:
                exc.member = i
                raise
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    @property
    def width(self) -> int:
        """n, the qubits of every register."""
        return self.stack.shape[-1].bit_length() - 2

    @property
    def layers(self) -> int:
        """L, the number of layer transitions."""
        return len(self.stack) // self.width

    @cached_property
    def kraus(self) -> np.ndarray:
        """Per transition t, K_r[o, i] = <r, o|U_t|i, 0...0> (r labels the
        traced-out input register) as one read-only (L, d, d, d) array with
        d = 2^n. Built on first use, by one `_forward` walk per transition on
        the basis inputs |i>."""
        n = self.width
        d = 2 ** n
        kraus = np.array([_forward(layer, n, np.eye(d, dtype=complex))[0].reshape(d, d, d)
                          for layer in self.stack.reshape(-1, n, 2 * d, 2 * d)])
        kraus.flags.writeable = False
        return kraus


@dataclass(frozen=True)
class TrainingPair:
    input: StateVector
    target: StateVector


@dataclass(frozen=True)
class TrainingReport:
    """The cost of every accepted stack, from the start, and why training
    stopped: "flat window" (the last 25 accepted steps gained less than
    `tol`), "step floor" (no step size down to 1e-8 kept the cost) or
    "iteration cap" (`max_iters` steps were taken)."""
    cost_history: List[float]
    stop: str

    @property
    def converged(self) -> bool:
        """Whether training stopped before its iteration cap."""
        return self.stop != "iteration cap"

    @property
    def final_cost(self) -> float:
        return self.cost_history[-1]

    @property
    def iterations(self) -> int:
        return len(self.cost_history) - 1


# ---------------------------------------------------------------------------
# One path for training and `feedforward`: the `_forward` walk applies the
# perceptrons of `QnnModel.stack` in order to the columns of one (2^n, P)
# register that grows by one qubit per perceptron: perceptron i takes one
# axis move of the n + i live qubits and one matmul by its isometry
# U_i[:, ::2], which adjoins its fresh qubit n + i in |0>, the qubit no earlier
# perceptron touched. Every move of both walks is a `qcore._move`, the one
# move kernel, which the return walk of `sdc` uses as well; the moves are read
# from `_walk_plan`, built once per network shape, and each is made inline as
# its one reshape-transpose copy. The isometries stay strided views: numpy
# multiplies them by its own loop, where a contiguous copy would take BLAS
# and other bytes. The walk keeps every perceptron's output, together less
# than twice the final register. Training takes its P columns, the conjugated
# targets and the weights from `_batch`, which collapses repeated pairs, and
# scores each walk by `_scored_walk`, which keeps the overlaps and outputs
# for the next ascent. `_ascent` takes those outputs as the states A_i and
# walks back only the conjugated weighted target projection, by the
# transposed isometries, so the swept array loses one qubit per perceptron; it
# forms each perceptron's T as it reaches it, then every ascent direction at
# once, in place. Training steps the bare stack by a matrix polynomial in
# powers of the ascent directions, filled once per ascent into one workspace
# per run, with its coefficients built once per step size; the model is
# built where it returns.

def _stack_targets(n: int, count: int) -> tuple:
    """Qubits of each of the first `count` perceptrons, layer-major:
    perceptron j of transition t acts on t*n..(t+1)*n-1, then its fresh qubit
    (t+1)*n + j."""
    return tuple(tuple(range(t * n, (t + 1) * n)) + ((t + 1) * n + j,)
                 for t, j in (divmod(i, n) for i in range(count)))


@lru_cache(maxsize=64)
def _walk_plan(n: int, count: int) -> tuple:
    """The `qcore._move` copies of the walks of the first `count` perceptrons
    of a width-n network. `_forward` takes the `count` moves to each
    perceptron's n input qubits, then the one of its final register back to
    the natural order; `_ascent` takes, at index 0, the move of the target
    projection to the last perceptron's qubits, and at index i > 0 the move
    from perceptron i's qubits to those of perceptron i - 1. Built once per
    shape."""
    qubits = _stack_targets(n, count)
    forward = tuple(_move(src, dst[:-1], n + i) for i, (src, dst) in enumerate(zip(((),) + qubits, qubits)))
    ascent = (_move((), qubits[-1], count + n),) + tuple(
        _move(qubits[i][:-1], qubits[i - 1], n + i) for i in range(1, count))
    return forward + (_move(qubits[-1], (), count + n),), ascent


def _batch(training_set: Sequence[TrainingPair], n: int):
    """The distinct pairs of a width-n training set as columns (2^n, P): the
    inputs, the conjugated targets and each pair's weight, its count over
    len(training_set). Each distinct pair's width is checked once."""
    unique: List[TrainingPair] = []
    counts: List[float] = []
    for pair in training_set:
        for i, seen in enumerate(unique):
            # `harness.trajectory_pairs` shares one input per drawn branch
            if ((pair.input is seen.input and pair.target is seen.target)
                    or (np.array_equal(pair.input.amplitudes, seen.input.amplitudes)
                        and np.array_equal(pair.target.amplitudes, seen.target.amplitudes))):
                counts[i] += 1.0
                break
        else:
            if pair.input.qubit_count != n or pair.target.qubit_count != n:
                raise ValueError("training pair width differs from the model width")
            unique.append(pair)
            counts.append(1.0)
    inputs = np.array([p.input.amplitudes for p in unique]).T
    bras = np.array([p.target.amplitudes for p in unique]).T.conj()
    return inputs, bras, np.array(counts) / len(training_set)


def _forward(stack: np.ndarray, n: int, inputs: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The perceptrons of the layer-major `stack` (n per transition), in
    order, on the n-qubit columns `inputs`: perceptron i adjoins its fresh
    qubit n + i in |0> by acting as U_i[:, ::2] on the n + i live qubits.
    Returns the final register of len(stack) + n qubits in the natural order,
    as columns, and each perceptron's output rows, laid out with its targets
    first."""
    moves, _ = _walk_plan(n, len(stack))
    rows, outputs = inputs, []
    for u, (shape, order, height) in zip(stack, moves):
        rows = u[:, ::2] @ rows.reshape(shape).transpose(order).reshape(height, -1)
        outputs.append(rows)
    shape, order, _ = moves[-1]
    return rows.reshape(shape).transpose(order).reshape(-1, inputs.shape[1]), outputs


def feedforward(model: QnnModel, rho_in: DensityOperator) -> DensityOperator:
    """Propagate a (possibly mixed) state through the network by the training
    path, layer by layer from its Kraus form: a transition sends the
    basis inputs |i>|0...0> to K_r[o, i] = <r, o|U|i, 0...0> (r labels the
    traced-out input register), and rho becomes sum_r K_r rho K_r^dag. The
    qnn pipelines thus run up to n = MAX_TRAINABLE_WIDTH (6)."""
    n = model.width
    if n > MAX_TRAINABLE_WIDTH:
        raise ValueError(f"width {n} exceeds MAX_TRAINABLE_WIDTH = {MAX_TRAINABLE_WIDTH}")
    if rho_in.qubit_count != n:
        raise ValueError(f"input has {rho_in.qubit_count} qubits, model width is {n}")
    rho = rho_in.matrix
    for kraus in model.kraus:
        rho = np.tensordot(kraus @ rho, kraus.conj(), axes=([0, 2], [0, 2]))
    return DensityOperator(rho)


def _scored_walk(stack: np.ndarray, n: int, inputs: np.ndarray, bras: np.ndarray,
                 weights: np.ndarray) -> Tuple[float, np.ndarray, List[np.ndarray]]:
    """The weighted mean target overlap of the `_forward` walk of `stack` on
    the inputs; the overlaps of its m-qubit final register with the
    conjugated targets `bras`, (2^(m-n), P); and the walk's perceptron
    outputs. The final register goes once scored."""
    out, outputs = _forward(stack, n, inputs)
    overlap = np.einsum("rop,op->rp", out.reshape(-1, *bras.shape), bras)
    return float(weights @ np.add.reduce(overlap.real ** 2 + overlap.imag ** 2, axis=0)), overlap, outputs


def _ascent(stack: np.ndarray, n: int, outputs: List[np.ndarray], overlap: np.ndarray,
            bras: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Ascent directions K, stacked like `stack`, from the perceptron
    `outputs` of the batch's forward walk, which it consumes, and the
    `overlap` of its final register with the targets, conjugated as `bras`:
    K_i = i(T - T^dag) with T = sum_x w_x A_x C_x^dag over the target-qubit
    rows of the output A_x of perceptron i and of the projection C_x onto
    the target, swept back to just after perceptron i. The sweep carries
    D = conj(C) through the transposed isometries U[:, ::2].T, as A has the
    later fresh qubits in |0>, and T = A D^T is formed before it moves on."""
    _, moves = _walk_plan(n, len(stack))
    swept = overlap.conj()[:, None, :] * bras
    swept *= weights
    shape, order, height = moves[0]
    rows = swept.reshape(shape).transpose(order).reshape(height, -1)
    del swept  # the sweep needs only its moved copy
    grads = np.empty_like(stack)  # each T, then K in place
    for idx in range(len(stack) - 1, -1, -1):
        np.matmul(outputs.pop(), rows.T, out=grads[idx])
        if idx:
            shape, order, height = moves[idx]
            rows = (stack[idx][:, ::2].T @ rows).reshape(shape).transpose(order).reshape(height, -1)
    grads -= grads.conj().swapaxes(-1, -2)
    grads *= 1j
    return grads


def _expm_i(w: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """exp(i * eps * h) from the eigenpairs (w, v) = eigh(h) of a Hermitian
    h, or of a stack of them."""
    return (v * np.exp(1j * eps * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _fill_powers(powers: np.ndarray, grads: np.ndarray) -> None:
    """Fill slots 1-4 of the (5, ...) workspace `powers`, whose slot 0 holds
    I, with K, K^2, K^3 and K^4 of the directions K: `grads` over their
    largest Frobenius norm, or `grads` themselves when that is below 1e-12.
    Either way the spectral norm of every K is at most 1."""
    # np.linalg.norm's Frobenius expression, without its wrapper
    largest = np.sqrt(np.add.reduce((grads.conj() * grads).real, axis=(1, 2)).max())
    if largest > 1e-12:
        np.divide(grads, largest, out=powers[1])
    else:
        powers[1] = grads
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1:3], out=powers[3:5])


# The degree-12 Taylor series of exp(x h) as B0 + h^4 (B1 + h^4 B2): entry
# (j, k) holds the exponent and weight of the term x^(4j+k)/(4j+k)! h^k of
# block B_j. Only B2 takes h^4, for the x^12 term.
_BLOCK_EXPONENTS = np.array([[0, 1, 2, 3, 0], [4, 5, 6, 7, 0], [8, 9, 10, 11, 12]])
_BLOCK_WEIGHTS = np.array([[1 / factorial(e) for e in row] for row in _BLOCK_EXPONENTS])
_BLOCK_WEIGHTS[:2, 4] = 0


@lru_cache(maxsize=128)
def _block_coefficients(eps: float) -> np.ndarray:
    """The (3, 5) coefficients of the Taylor blocks at x = i*eps, read-only,
    cached per step size. `train` halves eps on a rejected step and recovers
    it by x1.05 on an accepted one, through floats that rarely repeat, so
    most calls miss: 286 hits against 2598 misses over 16 default n = 3
    amplitude-damping trainings (p = 0.3, seeds 0..15), each from an empty
    cache."""
    coefficients = (1j * eps) ** _BLOCK_EXPONENTS * _BLOCK_WEIGHTS
    coefficients.flags.writeable = False
    return coefficients


def _expm_i_powers(powers: np.ndarray, eps: float) -> np.ndarray:
    """exp(i * eps * h) from I, h, h^2, h^3 and h^4 (`_fill_powers`) as the
    degree-12 Taylor polynomial in Paterson-Stockmeyer form at x = i*eps.
    For eps <= STEP_SIZE and a spectral norm of h of at most 1, eps*|h| is
    inside 1/4, where no scaling and squaring is needed (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)); the truncation error is below
    0.1^13/13! ~ 1.6e-23."""
    b0, b1, b2 = (_block_coefficients(eps) @ powers.reshape(5, -1)).reshape((3,) + powers.shape[1:])
    b1 += powers[4] @ b2  # Horner in place: b0 + h^4 (b1 + h^4 b2)
    b0 += powers[4] @ b1
    return b0


def random_model(n: int, layers: int, rng: np.random.Generator, spread: float = 0.1) -> QnnModel:
    """Perceptrons exp(iH) of a width-n network of `layers` transitions, with
    H Hermitian, entries uniform in +/- spread. Refuses n < 1 and layers < 1
    before any draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if layers < 1:  # no perceptrons: the draws below would fail with an AxisError
        raise ValueError(f"layers must be >= 1, got {layers}")
    dim = 2 ** (n + 1)
    raw = np.array([rng.uniform(-spread, spread, (dim, dim)) + 1j * rng.uniform(-spread, spread, (dim, dim))
                    for _ in range(layers * n)])
    h = (raw + np.swapaxes(raw.conj(), -1, -2)) / 2
    return QnnModel(_expm_i(*np.linalg.eigh(h), 1.0))


def train(
    training_set: Sequence[TrainingPair],
    layers: int = 1,
    max_iters: int = 200,
    tol: float = 1e-6,
    rng_seed: int = 0,
) -> Tuple[QnnModel, TrainingReport]:
    """Gradient-ascent training of the perceptron unitaries of a network of
    `layers` transitions, as wide as the training pairs.

    Each perceptron is updated as U <- exp(i*eps*K) U along the analytic
    ascent direction K of the mean target overlap, jointly rescaled by the
    largest per-perceptron gradient norm so plateaus are crossed at full
    step length. eps starts at STEP_SIZE, halves whenever a step would
    decrease the cost and recovers multiplicatively after accepted steps, up
    to STEP_SIZE, so the history is non-decreasing.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if layers < 1:
        raise ValueError("at least one layer transition is required")
    if not training_set:
        raise ValueError("training set must be nonempty")
    n = training_set[0].input.qubit_count
    if n > MAX_TRAINABLE_WIDTH:
        raise ValueError(
            f"training is limited to MAX_TRAINABLE_WIDTH = {MAX_TRAINABLE_WIDTH} "
            f"input qubits, the supported width; got {n}")
    stack = random_model(n, layers, np.random.default_rng(rng_seed)).stack
    inputs, bras, weights = _batch(training_set, n)
    # one workspace for the powers of every ascent's directions; slot 0 is I
    powers = np.empty((5,) + stack.shape, dtype=complex)
    powers[0] = np.eye(stack.shape[-1])
    eps = STEP_SIZE
    # the current stack's cost, and the overlaps and outputs its gradient reads
    current, overlap, outputs = _scored_walk(stack, n, inputs, bras, weights)
    history = [current]
    stop = "iteration cap"
    for _ in range(max_iters):
        # the ascent consumes the outputs; every step-halving retry
        # exponentiates from these powers
        _fill_powers(powers, _ascent(stack, n, outputs, overlap, bras, weights))
        while eps > 1e-8:
            outputs = None  # a rejected candidate's walk is released before the next one
            candidate = _expm_i_powers(powers, eps) @ stack
            new_cost, candidate_overlap, outputs = _scored_walk(candidate, n, inputs, bras, weights)
            if new_cost >= current - 1e-9:
                break
            eps /= 2
        else:  # no step size down to 1e-8 keeps the cost
            stop = "step floor"
            break
        stack, overlap = candidate, candidate_overlap
        eps = min(eps * 1.05, STEP_SIZE)
        history.append(new_cost)
        current = new_cost
        # windowed stop: a single sub-tol step can sit mid-plateau, so
        # require the whole recent stretch to be flat
        window = 25
        if len(history) > window and history[-1] - history[-1 - window] < tol:
            stop = "flat window"
            break
    return QnnModel(stack), TrainingReport(history, stop)


# ---------------------------------------------------------------------------
# Model file format: line-oriented text, bit-exact round trips.
#   qnnmodel 1
#   n L
#   dim d            (per perceptron, layer-major)
#   re im            (d*d lines, row-major, >=17 significant digits)

def save_model(model: QnnModel, path) -> None:
    lines = ["qnnmodel 1", f"{model.width} {model.layers}"]
    for mat in model.stack:
        lines.append(f"dim {mat.shape[0]}")
        for row in mat:
            for z in row:
                lines.append(f"{z.real:.17e} {z.imag:.17e}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ModelFormatError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")


def load_model(path) -> QnnModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    pos = 0

    def next_line(expect: str):
        nonlocal pos
        if pos >= len(lines):
            raise ModelFormatError(path, pos + 1, f"unexpected end of file, wanted {expect}")
        line = lines[pos]
        pos += 1
        return line

    header = next_line("header")
    if header.strip() != "qnnmodel 1":
        raise ModelFormatError(path, 1, f"bad header {header!r}")
    shape = next_line("architecture line").split()
    try:
        n, depth = (int(v) for v in shape)
    except ValueError:
        raise ModelFormatError(path, 2, "architecture line must be two integers 'n L'")
    if n < 1:
        raise ModelFormatError(path, 2, "input width must be >= 1")
    if depth < 1:
        raise ModelFormatError(path, 2, "at least one layer transition is required")
    if n > MAX_TRAINABLE_WIDTH:
        raise ModelFormatError(path, 2, f"width {n} exceeds MAX_TRAINABLE_WIDTH = {MAX_TRAINABLE_WIDTH}")
    mats = []  # the stack is built only once every perceptron has been read
    for _ in range(depth * n):
        dim_line = next_line("'dim d'").split()
        if len(dim_line) != 2 or dim_line[0] != "dim" or not dim_line[1].isdecimal():
            raise ModelFormatError(path, pos, f"expected 'dim d', got {lines[pos - 1]!r}")
        d = int(dim_line[1])
        if d != 2 ** (n + 1):
            raise ModelFormatError(path, pos, f"perceptron dim {d} inconsistent with width {n}")
        mat = np.empty((d, d), dtype=complex)
        for r in range(d):
            for col in range(d):
                parts = next_line("'re im'").split()
                if len(parts) != 2:
                    raise ModelFormatError(path, pos, f"expected 're im', got {lines[pos - 1]!r}")
                try:
                    mat[r, col] = complex(float(parts[0]), float(parts[1]))
                except ValueError:
                    raise ModelFormatError(path, pos, f"non-numeric entry {lines[pos - 1]!r}")
        mats.append(mat)
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise ModelFormatError(path, pos + 1, "trailing content after model data")
    try:
        return QnnModel(np.array(mats))
    except ValueError as exc:  # a perceptron is reported at its last line
        raise ModelFormatError(path, 2 + (exc.member + 1) * (1 + d * d), str(exc))
