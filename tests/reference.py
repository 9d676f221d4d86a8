"""A textbook reference for one non-QNN grid point, in plain numpy.

It imports nothing from the package, so a point is scored end to end by
formulas written from the literature alone:
- every noisy qubit as full-space Kraus products of its single-qubit channel;
- the encoder from the published table (Bowen, PRA 63, 022302 (2001)):
  X^{x_{n-1}} Z^{x_0} on qubit 1 and X^{x_{n-q}} on qubit q >= 2;
- purification on the explicit 2n-qubit pair: a CNOT from each qubit of
  the first copy to the same qubit of the second, then keep the first copy
  on the outcomes all-0 and all-1 (Bennett et al., PRL 76, 722 (1996));
- the fidelity as <psi_X|rho_X|psi_X>^(1/2), the Holevo value as explicit
  sums, and the coherent information of the full-space channel on I/2^n,
  with the entropy exchange from its Gram matrix (Schumacher, PRA 54, 2614
  (1996)).
Qubit 0, Bob's, is the leftmost factor of every Kronecker product.
"""

from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def kraus(kind: str, p: float) -> list:
    """The single-qubit channel of the CLI name `kind` with error weight p."""
    if kind == "amplitude-damping":
        return [np.array([[1, 0], [0, np.sqrt(1 - p)]]), np.array([[0, np.sqrt(p)], [0, 0]])]
    pauli = {"bit-flip": [X], "phase-flip": [Z], "depolarizing": [X, Y, Z]}[kind]
    return [np.sqrt(1 - p) * I2] + [np.sqrt(p / len(pauli)) * s for s in pauli]


def kron(*ops) -> np.ndarray:
    return reduce(np.kron, ops, np.eye(1))


def products(per_qubit: list) -> list:
    """Full-space Kraus operators: one product per choice of one operator on each qubit."""
    out = [np.eye(1)]
    for ops in per_qubit:
        out = [np.kron(k, e) for k in out for e in ops]
    return out


def apply(ops: list, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def entropy(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 0]
    return float(-np.sum(evals * np.log2(evals)))


def encoder(n: int, x: int) -> np.ndarray:
    """The published encoder of codeword x on all n qubits, Bob's untouched."""
    bit = [(x >> i) & 1 for i in range(n)]
    first = np.linalg.matrix_power(X, bit[n - 1]) @ np.linalg.matrix_power(Z, bit[0])
    return kron(I2, first, *(np.linalg.matrix_power(X, bit[n - q]) for q in range(2, n)))


def purify(rho: np.ndarray, n: int) -> tuple:
    """One round on rho (x) rho: CNOTs from copy A's qubit i to copy B's, measure B, keep 0...0 and 1...1.
    Returns the kept copy A and the probability of keeping it."""
    layer = np.eye(4 ** n)
    for i in range(n):
        flip = [I2] * (2 * n)
        flip[i], flip[n + i] = P1, X
        keep = [I2] * (2 * n)
        keep[i] = P0
        layer = (kron(*keep) + kron(*flip)) @ layer
    d = 2 ** n
    pair = (layer @ np.kron(rho, rho) @ layer.conj().T).reshape(d, d, d, d)
    kept = pair[:, 0, :, 0] + pair[:, -1, :, -1]
    return kept / np.trace(kept), np.trace(kept).real


def score(kind: str, p: float, n: int, both: bool, rounds: int = 0) -> dict:
    """Every CSV score of one grid point, plus the smallest squared fidelity
    `min_overlap`: distribution noise on qubit 0, `rounds` purification rounds,
    the encoder, then (stage both) the noise on each of qubits 1..n-1."""
    ghz = np.zeros(2 ** n, dtype=complex)
    ghz[[0, -1]] = 1 / np.sqrt(2)
    ch = kraus(kind, p)
    rho = apply(products([ch] + [[I2]] * (n - 1)), np.outer(ghz, ghz.conj()))
    for _ in range(rounds):
        rho, _ = purify(rho, n)
    ret = products([[I2]] + [ch if both else [I2]] * (n - 1))
    outputs, overlaps = [], []
    for x in range(2 ** n):
        u = encoder(n, x)
        outputs.append(apply(ret, u @ rho @ u.conj().T))
        psi = u @ ghz
        overlaps.append(float(np.real(psi.conj() @ outputs[-1] @ psi)))
    chi = entropy(sum(outputs) / 2 ** n) - sum(entropy(r) for r in outputs) / 2 ** n
    full = np.stack(products([ch] + [ch if both else [I2]] * (n - 1)))
    flat = full.reshape(len(full), -1)
    s_e = entropy(flat @ flat.conj().T / 2 ** n)
    icoh = entropy(apply(full, np.eye(2 ** n) / 2 ** n)) - s_e
    return {"avg_fidelity": float(np.mean(np.sqrt(np.clip(overlaps, 0, None)))), "holevo": chi,
            "entropy_exchange": s_e, "coherent_info": icoh, "quantum_capacity": max(icoh, 0.0),
            "min_overlap": min(overlaps)}


def ghz_channel(weights: np.ndarray, ops: list, qubit: int, n: int) -> np.ndarray:
    """The GHZ-basis weights after the Kraus operators `ops` act on `qubit`
    of a GHZ-diagonal state with weights `weights`, where entry 2k + s weighs
    (|k> + (-1)^s |~k>)/sqrt(2), k < 2^(n-1), ~k = 2^n - 1 - k. Each operator
    sends basis state (k, s) into the span of the basis states at k and at
    the representative of k with the qubit's bit flipped; the output weights
    sum |<(k', s')|K|(k, s)>|^2 over every source. A channel of scaled Paulis
    keeps the state GHZ-diagonal, so for the Pauli kinds these weights are
    the state."""
    d, half, bit = 2 ** n, 2 ** (n - 1), n - 1 - qubit
    k = np.repeat(np.arange(half), 2)
    s = np.tile([0, 1], half)
    flipped = k ^ (1 << bit)
    targets = {True: 2 * k, False: 2 * np.minimum(flipped, d - 1 - flipped)}
    out = np.zeros(d)
    for op in ops:
        images = {True: np.zeros((d, 2), dtype=complex), False: np.zeros((d, 2), dtype=complex)}
        # the two kets of the source, each at amplitude +-1/sqrt(2)
        for ket, amp in ((k, np.ones(d)), (d - 1 - k, (-1.0) ** s)):
            old = (ket >> bit) & 1
            for new in (0, 1):
                image = ket & ~(1 << bit) | (new << bit)
                # |image> is 1/sqrt(2) of (k', +) and +-1/sqrt(2) of (k', -),
                # minus when it is the complement ~k' of its representative
                coords = np.stack([np.ones(d), np.where(image < half, 1.0, -1.0)], axis=1)
                term = (op[new, old] * amp / 2)[:, None] * coords
                for same in (True, False):
                    images[same] += np.where(((old == new) == same)[:, None], term, 0)
        for same in (True, False):
            np.add.at(out, targets[same][:, None] + [0, 1], weights[:, None] * np.abs(images[same]) ** 2)
    return out


def ghz_frame_score(kind: str, p: float, n: int, both: bool, rounds: int = 0) -> dict:
    """The average fidelity and Holevo value of one Pauli-noise grid point
    (bit flip, phase flip or depolarizing), from the GHZ-basis weights q of
    the corrected shared state, with no operator on n qubits:
    - distribution noise on qubit 0, then (stage both) the return noise on
      qubits 1..n-1, each by `ghz_channel`; the return acts after the
      encoder, a Pauli, with which a Pauli channel commutes;
    - a purification round takes q(k, +) to q(k, +)^2 + q(k, -)^2 and
      q(k, -) to 2 q(k, +) q(k, -), renormalized (Murao et al., PRA 57,
      R4075 (1998));
    - the encoders map basis state 0 onto every basis state, one each, so
      the outputs mix to I/2^n, the Holevo value is n - H(q) and every
      codeword's fidelity is sqrt(q(0, +)) (Bowen, PRA 63, 022302 (2001))."""
    ops = kraus(kind, p)
    q = np.zeros(2 ** n)
    q[0] = 1.0
    q = ghz_channel(q, ops, 0, n)
    for _ in range(rounds):
        plus, minus = q[0::2], q[1::2]
        kept = np.stack([plus ** 2 + minus ** 2, 2 * plus * minus], axis=1).reshape(-1)
        q = kept / kept.sum()
    for qubit in range(1, n) if both else ():
        q = ghz_channel(q, ops, qubit, n)
    support = q[q > 0]
    return {"avg_fidelity": float(np.sqrt(q[0])), "holevo": max(n + float(np.sum(support * np.log2(support))), 0.0),
            "min_overlap": float(q[0])}
