"""The score of one grid point: the average fidelity and Holevo value of the
2^n codewords sent from the corrected shared state, and the entropy exchange
and coherent information that score the noise channel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from .qcore import DensityOperator, QuantumChannel, _spectrum_entropy, von_neumann_entropy
from .sdc import Codeword, _return_walk, ghz_fidelity, transmit, twirl


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


def report(shared: DensityOperator, spec: NoiseSpec) -> CapacityReport:
    """Score one grid point from its corrected shared state and its noise.

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
    Codeword X's fidelity is read off outcome X of the GHZ decoder.

    The channel side scores the noise on the ideal encoded inputs, as one
    term of the channel on I/2 per noisy qubit and 0 and 1 bit per untouched
    one: the ideal inputs mix to I/d, and the noise is a product."""
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
    noisy = n if both else 1
    half = np.eye(2, dtype=complex) / 2
    s_e = _exchange(half, ch)
    term = von_neumann_entropy(_channel_output(half, ch)) - s_e
    icoh = sum([term] * noisy + [1.0] * (n - noisy))
    return CapacityReport(
        avg_fidelity=float(np.mean(fidelities)),
        holevo=max(von_neumann_entropy(mixture) - conditional, 0.0),
        entropy_exchange=sum([s_e] * noisy),
        coherent_information=icoh,
        quantum_capacity=max(icoh, 0.0),
    )
