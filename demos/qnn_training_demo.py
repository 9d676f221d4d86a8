"""Train a dissipative network corrector on noisy trajectories.

The training set is built by `harness.trajectory_pairs`, the builder
that inline training in a sweep uses: pure-state trajectories of the
shared state under amplitude damping on Bob's qubit, one Kraus branch per
trajectory from branches computed once; the target is always the ideal
state. Training steps each perceptron by a matrix polynomial in its
ascent direction, with no eigendecomposition after the initial model,
and validates the model where it returns it. The trained network is then
applied as a channel corrector to the protocol's own distributed states,
`distribute` at the training p and at p = 0, and every fidelity is read
off the GHZ decoder by `ghz_fidelity`.

Run: python3 demos/qnn_training_demo.py
"""

import numpy as np

from ghzsdc import (
    NoiseKind,
    NoiseSpec,
    distribute,
    feedforward,
    ghz_fidelity,
    train,
)
from ghzsdc.harness import trajectory_pairs


def main():
    n = 2
    p = 0.3
    pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, n, p, seed=0, trajectories=100)
    distinct = {tuple(np.round(t.input.amplitudes, 12)) for t in pairs}
    print(f"training set: 100 trajectories, {len(distinct)} distinct states")

    model, report = train(pairs, max_iters=400, rng_seed=0)
    history = report.cost_history
    print(f"trained for {report.iterations} iterations, converged={report.converged}")
    print("cost trace: " + " -> ".join(
        f"{history[i]:.4f}" for i in np.linspace(0, len(history) - 1, 6, dtype=int)))

    noisy = distribute(n, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, p))
    clean = distribute(n, NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.0))
    print()
    print(f"fidelity without corrector: {ghz_fidelity(noisy):.6f}")
    print(f"fidelity with corrector:    {ghz_fidelity(feedforward(model, noisy)):.6f}")
    print(f"clean state passthrough:    {ghz_fidelity(feedforward(model, clean)):.6f}")


if __name__ == "__main__":
    main()
