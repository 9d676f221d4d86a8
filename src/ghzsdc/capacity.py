"""The score of one grid point: the average fidelity and Holevo value of the
2^n codewords sent from the corrected shared state, and the entropy exchange
and coherent information that score the noise channel.

`report` scores a dense shared state, for the points with a QNN model;
`_x_report` scores the X-state (`sdc`) of every raw and purify point exactly,
and `report` is its test oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy
from .sdc import Codeword, _ghz_weights, _return_walk, _x_maps, _x_walk, ghz_fidelity, transmit, twirl


@dataclass(frozen=True)
class CapacityReport:
    """Every score of one grid point: `avg_fidelity`, the mean fidelity in
    [0, 1] of the 2^n received states with their noise-free images;
    `holevo`, their Holevo value at uniform priors, in bits (the CSV's
    classical capacity); `entropy_exchange` and `coherent_information` of
    the noise on the ideal encoded inputs, in bits; `quantum_capacity`, the
    coherent information floored at 0, in qubits."""

    avg_fidelity: float
    holevo: float
    entropy_exchange: float
    coherent_information: float
    quantum_capacity: float


def _exchange(mix: np.ndarray, ch: QuantumChannel) -> float:
    """Entropy generated in the environment by `ch` on the input state `mix`,
    in bits, unchecked: S(W) for the environment Gram matrix
    W_kl = tr(K_k mix K_l^dag) (Schumacher, PRA 54, 2614, 1996), whose
    conjugate, with the same spectrum, is what gets built."""
    kraus = np.stack(ch.kraus_ops)
    images = kraus @ mix
    np.conjugate(images, out=images)
    r = len(kraus)
    return _spectrum_entropy(np.linalg.eigvalsh(images.reshape(r, -1) @ kraus.reshape(r, -1).T))


def _channel_output(mix: np.ndarray, ch: QuantumChannel) -> DensityOperator:
    return DensityOperator(sum(k @ mix @ k.conj().T for k in ch.kraus_ops))


def _report(n: int, spec: NoiseSpec, avg_fidelity: float, holevo: float) -> CapacityReport:
    """The report of an n-qubit point from its state side, `avg_fidelity`
    and `holevo`. The channel side scores the noise on the ideal encoded
    inputs, as one term of the channel on I/2 per noisy qubit and 0 and 1
    bit per untouched one: the ideal inputs mix to I/d, and the noise is a
    product."""
    ch = make_channel(spec.kind, spec.p)
    both = spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN
    noisy = n if both else 1
    half = np.eye(2, dtype=complex) / 2
    s_e = _exchange(half, ch)
    term = von_neumann_entropy(_channel_output(half, ch)) - s_e
    icoh = sum([term] * noisy + [1.0] * (n - noisy))
    return CapacityReport(
        avg_fidelity=avg_fidelity,
        holevo=holevo,
        entropy_exchange=sum([s_e] * noisy),
        coherent_information=icoh,
        quantum_capacity=max(icoh, 0.0),
    )


def report(shared: DensityOperator, spec: NoiseSpec) -> CapacityReport:
    """Score one grid point from its corrected shared state and its noise:
    the dense scorer, which every point with a QNN model takes, and the test
    oracle of `_x_report`.

    The Holevo value is S(mixture) - mean S(output) of the outputs at
    uniform priors, the optimum over priors when they are one orbit
    U_x sigma U_x^dag of one state (Hiroshima, J. Phys. A 34, 6907 (2001)).
    Distribution noise acts before the Pauli encoders U_x, and a Pauli
    return channel commutes with them, so there the outputs are one orbit:
    sigma is the shared state, after one return walk at stage both. Every
    fidelity is then sigma's with the GHZ state, every output entropy
    S(sigma), and the mixture the twirl of sigma (Bowen, PRA 63, 022302
    (2001)). Amplitude-damping return noise breaks the orbit, so each
    codeword is sent and scored on its own, and by linearity the outputs mix
    to the return walk of the shared state's twirl.
    Codeword X's fidelity is read off outcome X of the GHZ decoder."""
    n = shared.qubit_count
    ch = make_channel(spec.kind, spec.p)
    both = spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN
    if not both or spec.kind is not NoiseKind.AMPLITUDE_DAMPING:
        sigma = DensityOperator(_return_walk(ch, shared.matrix)) if both else shared
        fidelities = [ghz_fidelity(sigma)] * 2 ** n
        outputs, mixture = [sigma], twirl(sigma)
    else:
        outputs = [transmit(shared, Codeword(n, x), spec) for x in range(2 ** n)]
        fidelities = [ghz_fidelity(rho, x) for x, rho in enumerate(outputs)]
        mixture = DensityOperator(_return_walk(ch, twirl(shared).matrix))
    prior = 1.0 / len(outputs)
    conditional = sum(prior * von_neumann_entropy(rho) for rho in outputs)
    return _report(n, spec, float(np.mean(fidelities)), max(von_neumann_entropy(mixture) - conditional, 0.0))


def _x_spectrum(x: np.ndarray) -> np.ndarray:
    """The eigenvalues of the X-states `x`, flattened. Each pair {a, ~a}
    with a < 2^(n-1) spans a 2 x 2 block [[diag[a], anti[a]],
    [conj(anti[a]), diag[~a]]], whose eigenvalues are m +/- sqrt(delta^2 +
    |anti[a]|^2) for m and delta the half sum and half difference of
    diag[a] and diag[~a]."""
    half = x.shape[-1] // 2
    diag = x[..., 0, :].real
    mean = (diag + diag[..., ::-1])[..., :half] / 2
    root = np.hypot((diag - diag[..., ::-1])[..., :half] / 2, abs(x[..., 1, :half]))
    return np.concatenate([mean - root, mean + root], axis=None)


def _x_report(shared: np.ndarray, spec: NoiseSpec) -> CapacityReport:
    """`report` of a raw or purify point from the X-state of its corrected
    shared state (`sdc`), with no 2^n x 2^n matrix and no eigensolve of one.
    As in `report`, the outputs are one orbit, scored by their image at
    codeword 0, unless amplitude-damping return noise breaks it; then the
    2^n outputs are walked and scored as one batch. The encoder of codeword
    x moves entry a of diag and anti to a xor floor(x/2) and, when x_0 is
    set, negates anti. The outputs mix to the return walk of the twirl, and
    the twirl of an X-state is diagonal: 2^-(n-1) times its qubit-0
    marginal, so the mixture's spectrum is its diagonal."""
    n = shared.shape[-1].bit_length() - 1
    both = spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN
    if both and spec.kind is NoiseKind.AMPLITUDE_DAMPING:
        codes = np.arange(2 ** n)
        outputs = shared[:, np.arange(2 ** n) ^ (codes[:, None] >> 1)].swapaxes(0, 1)
        outputs[:, 1] *= np.where(codes & 1, -1, 1)[:, None]
    else:
        codes, outputs = np.zeros(1, dtype=int), shared[None]
    # the twirl rides in the outputs' batch, as its last member
    mix = np.zeros((1, 2, 2 ** n), dtype=complex)
    mix[0, 0] = np.repeat(shared[0].real.reshape(2, -1).sum(axis=1) / 2 ** (n - 1), 2 ** (n - 1))
    states = np.concatenate([outputs, mix])
    if both:
        states = _x_walk(states, _x_maps(spec.kind, spec.p), range(1, n))
    outputs, mixture = states[:-1], states[-1, 0].real
    fidelities = np.sqrt(np.minimum(_ghz_weights(outputs)[codes, codes], 1.0))
    conditional = _spectrum_entropy(_x_spectrum(outputs)) / len(codes)
    return _report(n, spec, float(fidelities.mean()), max(_spectrum_entropy(mixture) - conditional, 0.0))
