"""The score of one grid point: the average fidelity and Holevo value of the
2^n codewords sent from the corrected shared state, and the entropy exchange
and coherent information that score the noise channel.

`report` scores a dense shared state; `ghz_report` and `widened_report` are
exact reductions of it, for the Pauli kinds and for distribution-stage
points, and `report` is their test oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy
from .sdc import Codeword, _ghz_moves, _ghz_walk, _return_walk, ghz_fidelity, transmit, twirl


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
    the dense scorer, which every point with a QNN model and every
    amplitude-damping return point takes, and the test oracle of the
    reductions below."""
    return _report(shared.qubit_count, spec, *_dense_scores(shared, spec))


def _dense_scores(shared: DensityOperator, spec: NoiseSpec) -> Tuple[float, float]:
    """The average fidelity and Holevo value of `report`.

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
    return float(np.mean(fidelities)), max(von_neumann_entropy(mixture) - conditional, 0.0)


def ghz_report(weights: np.ndarray, spec: NoiseSpec) -> CapacityReport:
    """`report` of a Pauli-noise point from the GHZ-basis weights of its
    corrected shared state, with no state of 2^n x 2^n entries and no
    eigensolve of one. Pauli noise keeps the state GHZ-diagonal; at stage both the
    return walk acts on the weights. The encoders map GHZ basis state 0 onto
    every basis state, one each, so the outputs mix to I/2^n: the Holevo
    value is n - H(weights), and every codeword's fidelity is
    sqrt(weight 0) (Bowen, PRA 63, 022302 (2001))."""
    n = weights.size.bit_length() - 1
    if spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN:
        weights = _ghz_walk(weights, _ghz_moves(spec.kind, spec.p), range(1, n))
    # the walks keep the sum of the weights at 1 only to the rounding of the
    # Pauli weights, which n - H would read as entropy; the dense path
    # cancels it against the twirl's
    weights = weights / weights.sum()
    return _report(n, spec, avg_fidelity=float(np.sqrt(min(weights[0], 1.0))),
                   holevo=max(n - _spectrum_entropy(weights), 0.0))


def widened_report(narrow: DensityOperator, spec: NoiseSpec, n: int) -> CapacityReport:
    """`report` of an n-qubit distribution-stage point from `narrow`, the
    corrected shared state of its 3-qubit point. Distribution noise touches
    only Bob's qubit 0, so the n-qubit point is the 3-qubit one plus n - 3
    noiseless bits: those add n - 3 to the Holevo value and leave every
    fidelity; the channel side is the n-qubit one."""
    avg_fidelity, holevo = _dense_scores(narrow, spec)
    return _report(n, spec, avg_fidelity=avg_fidelity, holevo=holevo + (n - narrow.qubit_count))
