"""Test oracles on the full space: basis states, random states, the Shannon
entropy of a distribution, the partial trace, the dense GHZ basis, the
noise-free image of the shared state under a codeword, a product of
single-qubit channels as one channel, the per-qubit factors of the
protocol's noise, random channels cut from isometries, an operator on
chosen qubits as its Kronecker embedding and conjugation by that, a channel
as the sum of its Kraus conjugations and a channel on chosen qubits of a
validated state by its superoperator contracted with `np.tensordot`, a move
of qubits between array axes by `np.moveaxis`, the dense fidelity of a pure
state with a density operator, the identity network, the network's cost and
ascent directions on a training set by training's own `_batch` and
`_scored_walk`, the forward walk and the ascent with every move made by
that `retarget`, the ascent directions swept back on the full register and
the network map rebuilt from its perceptrons at every call, the uniform
mixture of a sequence of states and its Holevo value as explicit sums, and
the entropy exchange and coherent information of a channel on pure states,
with a Stinespring dilation as the entropy exchange's oracle, and random
X-states with the moves between an X-state's two vectors and its dense
matrix. Inputs are trusted: nothing here checks them."""

from typing import Sequence

import numpy as np

from ghzsdc.capacity import _channel_output, _exchange
from ghzsdc.noise import NoiseSpec, NoiseStage, make_channel
from ghzsdc.qcore import (
    I2,
    DensityOperator,
    QuantumChannel,
    StateVector,
    Unitary,
    von_neumann_entropy,
)
from ghzsdc.qnn import (
    QnnModel,
    TrainingPair,
    _ascent,
    _batch,
    _forward,
    _scored_walk,
    _stack_targets,
)
from ghzsdc.sdc import Codeword, _frame, shared_state

# CNOT with the control on the high qubit.
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


def basis_state(qubit_count: int, index: int) -> StateVector:
    """Computational basis state |index> on the given number of qubits."""
    amps = np.zeros(2 ** qubit_count, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def random_state(rng, m: int, rank: int | None = None):
    """An m-qubit state from a complex Gaussian 2^m x r matrix A drawn from
    `rng`, real parts first: the pure StateVector A / |A| (r = 1) when `rank`
    is None, else the DensityOperator A A^dag / tr of rank r = `rank`."""
    shape = (2 ** m, rank or 1)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if rank is None:
        return StateVector(a[:, 0] / np.linalg.norm(a))
    mat = a @ a.conj().T
    return DensityOperator(mat / np.trace(mat).real)


def shannon_entropy(*probs: float) -> float:
    """Shannon entropy of the probabilities in bits, 0 log 0 = 0."""
    return -sum(q * np.log2(q) for q in probs if q > 0)


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    """Trace out all qubits not in `keep`; kept qubits retain their order."""
    m = rho.qubit_count
    keep = sorted(set(keep))
    row = list(range(m))
    col = [m + q if q in keep else q for q in range(m)]
    reduced = np.einsum(rho.matrix.reshape((2,) * (2 * m)), row + col, keep + [m + q for q in keep])
    d = 2 ** len(keep)
    return DensityOperator(reduced.reshape(d, d))


def ghz_basis(n: int) -> np.ndarray:
    """The 2^n orthonormal GHZ states on n qubits as rows of amplitudes, in
    conventional order: rows 2k and 2k+1 are (|k> +/- |~k>)/sqrt(2) for the
    k-th bit pattern with a leading 0 and its complement ~k."""
    dim = 2 ** n
    rows = np.zeros((dim, dim), dtype=complex)
    for k in range(dim // 2):
        for i, sign in enumerate((1.0, -1.0)):
            rows[2 * k + i, k] = 1 / np.sqrt(2)
            rows[2 * k + i, (dim - 1) ^ k] = sign / np.sqrt(2)
    return rows


def random_x_state(rng, n: int, zeros: int = 0) -> np.ndarray:
    """A random n-qubit X-state as a dense matrix: a 2 x 2 density block on
    each pair {k, ~k}, ~k = (2^n - 1) xor k, the blocks mixed by Dirichlet
    weights, `zeros` of them (at most all but one) 0."""
    dim = 2 ** n
    weights = rng.dirichlet(np.ones(dim // 2))
    weights[rng.choice(dim // 2, size=min(zeros, dim // 2 - 1), replace=False)] = 0.0
    rho = np.zeros((dim, dim), dtype=complex)
    for k, w in enumerate(weights / weights.sum()):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho[np.ix_([k, dim - 1 - k], [k, dim - 1 - k])] = w * (g @ g.conj().T) / np.trace(g @ g.conj().T).real
    return rho


def x_state(rho: np.ndarray) -> np.ndarray:
    """The X-state of the matrix rho, as the package holds it: the rows
    rho[a, a] and rho[a, a xor (2^n - 1)], read by explicit indices."""
    a = np.arange(len(rho))
    return np.array([rho[a, a], rho[a, (len(rho) - 1) ^ a]])


def x_matrix(x: np.ndarray) -> np.ndarray:
    """The dense matrix of the X-state `x`."""
    a = np.arange(x.shape[-1])
    rho = np.zeros((len(a), len(a)), dtype=complex)
    rho[a, a] = x[0]
    rho[a, (len(a) - 1) ^ a] = x[1]
    return rho


def ideal_received_state(code: Codeword) -> StateVector:
    """Noise-free image of the shared state under codeword `code`, as the
    dense vector (sign o psi_GHZ)[image]: the oracle for the fidelities that
    `sdc.ghz_fidelity` reads off the decoder."""
    image, sign = _frame(code)
    return StateVector((sign * shared_state(code.n).amplitudes)[image])


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


def random_channel(rng, m, r):
    """r Kraus operators on m qubits, cut from a random isometry: the d x d
    blocks of the Q factor of a random (r d) x d complex matrix."""
    d = 2 ** m
    q, _ = np.linalg.qr(rng.normal(size=(r * d, d)) + 1j * rng.normal(size=(r * d, d)))
    return QuantumChannel(tuple(q[k * d:(k + 1) * d] for k in range(r)))


def kron_embedding(mat, targets, m):
    """The operator mat on `targets` of m qubits: mat (x) I with the targets as
    the high qubits, then the basis relabelled bit by bit into qubit order."""
    order = list(targets) + [q for q in range(m) if q not in targets]
    x = np.arange(2 ** m)
    relabel = sum(((x >> (m - 1 - q)) & 1) << (m - 1 - pos) for pos, q in enumerate(order))
    full = np.kron(mat, np.eye(2 ** (m - len(targets))))
    return full[np.ix_(relabel, relabel)]


def conjugate_matrix(mat: np.ndarray, rho: np.ndarray, targets, m: int) -> np.ndarray:
    """mat rho mat^dag with mat on the ordered `targets` of the bare matrix rho,
    by its Kronecker embedding on all m qubits."""
    full = kron_embedding(mat, targets, m)
    return full @ rho @ full.conj().T


def kraus_sum(ch: QuantumChannel, rho: np.ndarray, targets, m: int) -> np.ndarray:
    """`ch` on `targets` of the bare matrix rho as the sum of its Kraus
    conjugations, added from a zero matrix in Kraus order."""
    out = np.zeros_like(rho)
    for op in ch.kraus_ops:
        out = out + conjugate_matrix(op, rho, targets, m)
    return out


def apply_unitary(rho: DensityOperator, u: Unitary, targets: Sequence[int]) -> DensityOperator:
    """Conjugate rho by u embedded on the given (ordered) target qubits."""
    return DensityOperator(conjugate_matrix(u.matrix, rho.matrix, targets, rho.qubit_count))


def apply_channel(rho: DensityOperator, ch: QuantumChannel, targets: Sequence[int]) -> DensityOperator:
    """`ch` on the given (ordered) target qubits of rho: its superoperator
    sum_k K_k (x) conj(K_k), as a tensor, contracted by `np.tensordot` with
    the targets' row and column axes of rho, which `np.moveaxis` then puts
    back in their places."""
    m, k = rho.qubit_count, len(targets)
    axes = list(targets) + [m + q for q in targets]
    sup = ch.superoperator.reshape((2,) * (4 * k))
    out = np.tensordot(sup, rho.matrix.reshape((2,) * (2 * m)), axes=(list(range(2 * k, 4 * k)), axes))
    return DensityOperator(np.moveaxis(out, range(2 * k), axes).reshape(rho.matrix.shape))


def retarget(arr: np.ndarray, src, dst, m: int) -> np.ndarray:
    """`arr` (2^m entries per column, any columns), laid out with its `src`
    qubits first, in order, then the other qubits, as 2^len(dst) rows laid
    out with its `dst` qubits first; the natural order is the layout with no
    qubits first. By `np.moveaxis`, through the natural order."""
    natural = np.moveaxis(arr.reshape((2,) * m + (-1,)), range(len(src)), src)
    return np.moveaxis(natural, dst, range(len(dst))).reshape(2 ** len(dst), -1)


def fidelity(psi: StateVector, rho: DensityOperator) -> float:
    """sqrt(<psi|rho|psi>), the dense overlap: the oracle for the fidelities
    that `sdc.ghz_fidelity` reads off the decoder."""
    return float(np.sqrt(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)))


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


def identity_model(n: int, layers: int) -> QnnModel:
    """The width-n network of `layers` transitions whose every perceptron is
    the identity: it traces the input away and outputs the untouched fresh
    register |0...0>."""
    d = 2 ** (n + 1)
    return QnnModel(np.broadcast_to(np.eye(d), (layers * n, d, d)))


def cost(model: QnnModel, training_set: Sequence[TrainingPair]) -> float:
    """Mean target overlap (1/N) sum_x <target_x| rho_x^out |target_x>, by
    the training path: `_batch`, then `_scored_walk`."""
    return _scored_walk(model.stack, model.width, *_batch(training_set, model.width))[0]


def gradients(model: QnnModel, training_set: Sequence[TrainingPair], weights=None) -> np.ndarray:
    """Training's ascent directions K for every perceptron, stacked like
    `model.stack`, over the distinct pairs of the training set with
    `_batch`'s weights, or with the given ones, one per distinct pair."""
    stack, n = model.stack, model.width
    inputs, bras, counted = _batch(training_set, n)
    weights = counted if weights is None else np.asarray(weights)
    _, overlap, outputs = _scored_walk(stack, n, inputs, bras, weights)
    return _ascent(stack, n, outputs, overlap, bras, weights)


def forward_by_retarget(stack, n, inputs):
    """`qnn._forward` with each move made by `retarget` between the
    perceptrons' qubit layouts: perceptron i moves the n + i live qubits to
    its n input qubits first and multiplies by U_i[:, ::2]; the final
    register moves back to the natural order. Returns it as columns, and the
    perceptron outputs."""
    rows, src, outputs = inputs, (), []
    for i, (u, qubits) in enumerate(zip(stack, _stack_targets(n, len(stack)))):
        rows = u[:, ::2] @ retarget(rows, src, qubits[:-1], n + i)
        outputs.append(rows)
        src = qubits
    return retarget(rows, src, (), len(stack) + n).reshape(-1, inputs.shape[1]), outputs


def ascent_by_retarget(stack, n, outputs, overlap, bras, weights):
    """`qnn._ascent` with each move made by `retarget`: the weighted
    conjugated target projection moves to the last perceptron's qubits, and
    after each perceptron i > 0 from its input qubits to the qubits of
    perceptron i - 1; T_i = A_i D^T, then K = i(T - T^dag). Consumes
    `outputs`."""
    count = len(stack)
    qubits = _stack_targets(n, count)
    swept = overlap.conj()[:, None, :] * bras
    swept *= weights
    rows = retarget(swept, (), qubits[-1], count + n)
    t_ac = np.empty_like(stack)
    for idx in range(count - 1, -1, -1):
        np.matmul(outputs.pop(), rows.T, out=t_ac[idx])
        if idx:
            rows = retarget(stack[idx][:, ::2].T @ rows, qubits[idx][:-1], qubits[idx - 1], n + idx)
    grads = t_ac - t_ac.conj().swapaxes(-1, -2)
    grads *= 1j
    return grads


def ascent_full_register(stack, n, out, overlap, targets, weights) -> np.ndarray:
    """`qnn._ascent` on the full register: the final state `out` of all
    len(stack) + n qubits and its weighted target projection, stacked as one
    register behind an extra leading qubit, are swept back together through
    the adjoint perceptrons, and at perceptron i T = A C^dag is taken from
    the target-qubit rows of the state A and of the projection C, then
    K_i = i(T - T^dag)."""
    count = len(stack)
    m = count + n
    # the leading qubit moves every perceptron qubit up by one
    qubits = [tuple(q + 1 for q in targets_i) for targets_i in _stack_targets(n, count)]
    chi = (overlap[:, None, :] * targets[None, :, :]).reshape(out.shape) * weights
    rows = retarget(np.concatenate([out, chi]), (), qubits[-1], m + 1)
    half = rows.shape[1] // 2
    grads = np.empty_like(stack)
    for idx in range(count - 1, -1, -1):
        t_ac = rows[:, :half] @ rows[:, half:].conj().T
        grads[idx] = 1j * (t_ac - t_ac.conj().T)
        if idx:
            rows = retarget(stack[idx].conj().T @ rows, qubits[idx], qubits[idx - 1], m + 1)
    return grads


def feedforward_rebuilt(model: QnnModel, rho: np.ndarray) -> np.ndarray:
    """The network map on the bare matrix rho, with each transition's Kraus
    operators K_r[o, i] = <r, o|U|i, 0...0> rebuilt by the `qnn._forward`
    walk on the basis inputs |i> at every call."""
    n = model.width
    d = 2 ** n
    for layer in model.stack.reshape(-1, n, 2 * d, 2 * d):
        kraus = _forward(layer, n, np.eye(d, dtype=complex))[0].reshape(d, d, d)
        rho = np.tensordot(kraus @ rho, kraus.conj(), axes=([0, 2], [0, 2]))
    return rho


def mixture(states: Sequence[DensityOperator]) -> np.ndarray:
    """The uniform mixture of the states, as the explicit sum."""
    p = 1.0 / len(states)
    return sum(p * s.matrix for s in states)


def holevo(states: Sequence[DensityOperator]) -> float:
    """S(mixture) - mean S(rho_i) of the states at uniform priors, in bits,
    with the mixture summed explicitly."""
    mixed = von_neumann_entropy(DensityOperator(mixture(states)))
    p = 1.0 / len(states)
    conditional = sum(p * von_neumann_entropy(s) for s in states)
    return max(mixed - conditional, 0.0)


def entropy_exchange(states: Sequence[DensityOperator], ch: QuantumChannel) -> float:
    """Entropy exchange of `ch` on the uniform mixture of pure `states`, in
    bits, by the package's own environment Gram kernel."""
    return _exchange(mixture(states), ch)


def coherent_information(states: Sequence[DensityOperator], ch: QuantumChannel) -> float:
    """S(channel output of the uniform mixture of pure `states`) - entropy
    exchange, by the package's own kernels; may be negative."""
    mix = mixture(states)
    return von_neumann_entropy(_channel_output(mix, ch)) - _exchange(mix, ch)
