"""Mutation check of the test suite: every mutant below changes one source
line of the package, and the suite must fail on each of them.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tests/mutants.py

The check copies src/, tests/, demos/ (which the export guard of
tests/test_layering.py reads) and pyproject.toml into a temporary directory
and runs `python -m pytest -x -q` there, first unmutated (it must pass, or
no kill would mean anything), then once per mutant on a fresh copy. Each
mutant first runs only the test module of the file it changes,
tests/test_<module>.py (tests/test_harness.py for harness and cli), and only
a mutant that survives that module runs the whole suite; the kill verdicts
are those of the whole suite, since a failing test fails it too. Every such
module must pass unmutated as well. A mutant is killed when a test fails
(pytest exit status 1) and survives when the whole suite passes. The exit
status is non-zero when a mutant survives, when a run ends any other way,
when an unmutated run fails, or when a mutant's source line does not occur
exactly once in its file, which means the list has gone stale. pytest does
not collect this file.

Mutation analysis: DeMillo, Lipton and Sayward, IEEE Computer 11(4), 34
(1978); Jia and Harman, IEEE TSE 37, 649 (2011).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    line: str  # a source line, without its indentation, that occurs once in the file
    replacement: str  # put in its place at the same indentation
    why: str  # why the mutant is not equivalent


MUTANTS = (
    Mutant("encoder-sign-qubit", "src/ghzsdc/sdc.py",
           "sign = np.where(code.x(0) & (a >> (n - 2)), -1.0, 1.0)",
           "sign = np.where(code.x(0) & (a >> (n - 3)), -1.0, 1.0)",
           "the sigma_z of x_0 lands on Alice's second qubit, so Table 1 changes"),
    Mutant("twirl-mask-removed", "src/ghzsdc/sdc.py",
           "table[:, (a >> (n - 2)) & 1 == 1] = 0",
           "pass",
           "the coherences that the sign pairs cancel survive in the twirl"),
    Mutant("return-noise-on-bob", "src/ghzsdc/sdc.py",
           "layouts = ((),) + tuple((q, n + q) for q in range(1, n)) + ((),)",
           "layouts = ((),) + tuple((q, n + q) for q in range(0, n)) + ((),)",
           "Bob's qubit, which stays with Bob, takes the return noise a second time"),
    Mutant("return-walk-not-moved-back", "src/ghzsdc/sdc.py",
           "layouts = ((),) + tuple((q, n + q) for q in range(1, n)) + ((),)",
           "layouts = ((),) + tuple((q, n + q) for q in range(1, n))",
           "the return walk skips its last qubit's noise and leaves the matrix in that qubit's layout"),
    Mutant("distribution-kraus-transposed", "src/ghzsdc/sdc.py",
           "return np.array([(k @ amps).reshape(-1) for k in make_channel(kind, p).kraus_ops])",
           "return np.array([(k.T @ amps).reshape(-1) for k in make_channel(kind, p).kraus_ops])",
           "amplitude damping pumps Bob's qubit towards |1> instead of |0>, in distribute and the trajectories"),
    Mutant("decode-signs-swapped", "src/ghzsdc/sdc.py",
           "return np.clip(np.stack([mean + cross, mean - cross], axis=1).reshape(-1), 0.0, None)",
           "return np.clip(np.stack([mean - cross, mean + cross], axis=1).reshape(-1), 0.0, None)",
           "every codeword decodes to its +/- partner outcome"),
    Mutant("ghz-fidelity-partner-outcome", "src/ghzsdc/sdc.py",
           "return float(np.sqrt(min(probs[x], 1.0)))",
           "return float(np.sqrt(min(probs[x ^ 1], 1.0)))",
           "every fidelity is read off the +/- partner of the sent codeword's outcome"),
    Mutant("noisy-qubit-count", "src/ghzsdc/capacity.py",
           "noisy = n if both else 1",
           "noisy = n - 1 if both else 1",
           "one noisy qubit of a both-stage point is scored as noiseless"),
    Mutant("depolarizing-y-as-z", "src/ghzsdc/noise.py",
           "np.sqrt(p / 3) * SIGMA_Y,",
           "np.sqrt(p / 3) * SIGMA_Z,",
           "the channel loses its Y branch and is no longer depolarizing"),
    Mutant("ascent-sign-flipped", "src/ghzsdc/qnn.py",
           "grads *= 1j",
           "grads *= -1j",
           "training descends the cost, so no step is accepted"),
    Mutant("fresh-qubit-in-one", "src/ghzsdc/qnn.py",
           "rows = u[:, ::2] @ rows.reshape(shape).transpose(order).reshape(height, -1)",
           "rows = u[:, 1::2] @ rows.reshape(shape).transpose(order).reshape(height, -1)",
           "every perceptron's fresh qubit joins the walk in |1> instead of |0>"),
    Mutant("sweep-fresh-qubit-in-one", "src/ghzsdc/qnn.py",
           "rows = (stack[idx][:, ::2].T @ rows).reshape(shape).transpose(order).reshape(height, -1)",
           "rows = (stack[idx][:, 1::2].T @ rows).reshape(shape).transpose(order).reshape(height, -1)",
           "the backward sweep keeps the projection's |1> part of each fresh qubit, which the state lacks"),
    Mutant("ascent-head-to-first-perceptron", "src/ghzsdc/qnn.py",
           "ascent = (_move((), qubits[-1], count + n),) + tuple(",
           "ascent = (_move((), qubits[0], count + n),) + tuple(",
           "the backward sweep starts in the first perceptron's layout, not the last one's, in every network"
           " of more than one perceptron"),
    Mutant("acceptance-slack-1e-3", "src/ghzsdc/qnn.py",
           "if new_cost >= current - 1e-9:",
           "if new_cost >= current - 1e-3:",
           "steps that lower the cost by up to 1e-3 are kept"),
    Mutant("step-size-1", "src/ghzsdc/qnn.py",
           "STEP_SIZE = 0.1",
           "STEP_SIZE = 1.0",
           "steps up to eps*|K| = 1 leave the Taylor polynomial's range; its error reaches 1e-11"),
    Mutant("random-model-zero-layers", "src/ghzsdc/qnn.py",
           "if layers < 1:  # no perceptrons: the draws below would fail with an AxisError",
           "if layers < 0:  # no perceptrons: the draws below would fail with an AxisError",
           "random_model(n, 0, rng) reaches numpy's AxisError instead of naming `layers`"),
    Mutant("feedforward-conjugate-dropped", "src/ghzsdc/qnn.py",
           "rho = np.tensordot(kraus @ rho, kraus.conj(), axes=([0, 2], [0, 2]))",
           "rho = np.tensordot(kraus @ rho, kraus, axes=([0, 2], [0, 2]))",
           "K rho K^T replaces K rho K^dag, which differs for complex perceptrons"),
    Mutant("chi-offset-from-n-7", "src/ghzsdc/capacity.py",
           "return float(np.mean(fidelities)), max(von_neumann_entropy(mixture) - conditional, 0.0)",
           "return float(np.mean(fidelities)), max(von_neumann_entropy(mixture) - conditional, 0.0)"
           " + (1e-9 if n >= 7 else 0.0)",
           "the Holevo value of every point at n >= 7 is 1e-9 too high"),
    Mutant("return-mixture-before-return", "src/ghzsdc/capacity.py",
           "mixture = DensityOperator(_return_walk(ch, twirl(shared).matrix))",
           "mixture = twirl(shared)",
           "amplitude-damping return points mix the outputs as if the return were noiseless"),
    Mutant("orbit-includes-ad-return", "src/ghzsdc/capacity.py",
           "if not both or spec.kind is not NoiseKind.AMPLITUDE_DAMPING:",
           "if not both or spec.kind is not NoiseKind.AMPLITUDE_DAMPING or True:",
           "amplitude-damping return points are scored as one orbit, which that noise breaks"),
    Mutant("fidelity-before-from-kept", "src/ghzsdc/cli.py",
           'print(f"fidelity before: {ghz_fidelity(rho):.6f}")',
           'print(f"fidelity before: {ghz_fidelity(result.kept_state):.6f}")',
           "purify-demo's fidelity before purification reports the purified state"),
    Mutant("pure-entropy-negative-zero", "src/ghzsdc/qcore.py",
           "return float(0.0 - np.sum(evals * np.log2(evals)))",
           "return float(-np.sum(evals * np.log2(evals)))",
           "a pure spectrum has entropy -0.0, which a CSV writes as \"-0\""),
    Mutant("entropy-floor-1e-9", "src/ghzsdc/qcore.py",
           "evals = evals[evals > 0]",
           "evals = evals[evals > 1e-9]",
           "eigenvalues in (0, 1e-9] no longer add their -x log2 x"),
    Mutant("underflow-floor-1e-30", "src/ghzsdc/purify.py",
           "if compound < 1e-12:",
           "if compound < 1e-30:",
           "success probabilities between 1e-30 and 1e-12 no longer underflow"),
    Mutant("batch-weights-over-distinct-pairs", "src/ghzsdc/qnn.py",
           "return inputs, bras, np.array(counts) / len(training_set)",
           "return inputs, bras, np.array(counts) / len(unique)",
           "a pair's weight is its count over the number of distinct pairs, so the weights sum to more than 1"),
    Mutant("stop-window-5", "src/ghzsdc/qnn.py",
           "window = 25",
           "window = 5",
           "training stops on a flat stretch of 5 steps, mid-plateau"),
    Mutant("inline-training-at-p-0.3", "src/ghzsdc/harness.py",
           "branches = _kraus_branches(n, kind, p)",
           "branches = _kraus_branches(n, kind, 0.3)",
           "the training trajectories ignore the p they are asked for"),
    Mutant("trajectory-uniform-from-next-seed", "src/ghzsdc/harness.py",
           'picks = [int(cdf.searchsorted(np.random.default_rng(int(s)).random(), side="right")) for s in seeds]',
           'picks = [int(cdf.searchsorted(np.random.default_rng(int(s) + 1).random(), side="right")) for s in seeds]',
           "trajectory k draws its uniform from the seed after its own, so no pick is Generator.choice's"),
    Mutant("train-at-ignored", "src/ghzsdc/harness.py",
           "p_train = cfg.train_at if cfg.train_at is not None else 0.3",
           "p_train = 0.3",
           "sweep --train-at changes nothing"),
    Mutant("psd-floor-1e-6", "src/ghzsdc/qcore.py",
           "if not evals[0] >= -ATOL:",
           "if not evals[0] >= -1e-6:",
           "density operators with an eigenvalue in [-1e-6, -1e-10) are accepted"),
    # Refusals: each mutant lets through an input that the package refuses.
    Mutant("state-cap-plus-one", "src/ghzsdc/qcore.py",
           "if m > MAX_STATE_QUBITS:",
           "if m > MAX_STATE_QUBITS + 1:",
           "state vectors one qubit past MAX_STATE_QUBITS are accepted"),
    Mutant("density-square-unchecked", "src/ghzsdc/qcore.py",
           'raise ValueError("density operator must be a square matrix")',
           "pass",
           "a non-square density matrix fails later, in the Hermiticity subtract"),
    Mutant("density-cap-plus-one", "src/ghzsdc/qcore.py",
           "if m > MAX_DENSITY_QUBITS:",
           "if m > MAX_DENSITY_QUBITS + 1:",
           "density operators one qubit past MAX_DENSITY_QUBITS are accepted"),
    Mutant("trace-slack-1e-9", "src/ghzsdc/qcore.py",
           "if not abs(tr - 1.0) <= ATOL:",
           "if not abs(tr - 1.0) <= 1e-9:",
           "density operators with a trace in (1 + 1e-10, 1 + 1e-9] are accepted"),
    Mutant("unitary-square-unchecked", "src/ghzsdc/qcore.py",
           'raise ValueError("unitary must be a square matrix")',
           "pass",
           "a non-square matrix with orthonormal rows passes as a unitary"),
    Mutant("empty-channel-unchecked", "src/ghzsdc/qcore.py",
           'raise ValueError("channel needs at least one Kraus operator")',
           "pass",
           "a channel without Kraus operators fails with an IndexError"),
    Mutant("kraus-rows-only", "src/ghzsdc/qcore.py",
           "if op.shape != (dim, dim):",
           "if op.shape[0] != dim:",
           "a non-square Kraus operator fails later, in the completeness check"),
    Mutant("train-zero-iterations", "src/ghzsdc/qnn.py",
           "if max_iters < 1:",
           "if max_iters < 0:",
           "train(pairs, max_iters=0) returns an untrained model"),
    Mutant("model-dim-above-only", "src/ghzsdc/qnn.py",
           "if d != 2 ** (n + 1):",
           "if d > 2 ** (n + 1):",
           "a perceptron narrower than its width is read on, to the end of the file"),
    Mutant("model-entry-extra-numbers", "src/ghzsdc/qnn.py",
           "if len(parts) != 2:",
           "if len(parts) < 2:",
           "an entry line of three numbers is read as its first two"),
    Mutant("model-one-trailing-line", "src/ghzsdc/qnn.py",
           "if pos != len(lines) and any(line.strip() for line in lines[pos:]):",
           "if pos + 1 < len(lines) and any(line.strip() for line in lines[pos:]):",
           "one trailing line after the model data is ignored"),
    Mutant("ghz-fidelity-negative-index", "src/ghzsdc/sdc.py",
           "if not 0 <= x < len(probs):",
           "if x >= len(probs):",
           "ghz_fidelity(rho, -1) reads outcome 2^n - 1 through numpy's negative indexing"),
    Mutant("twirl-two-qubits", "src/ghzsdc/sdc.py",
           "if n < 3:",
           "if n < 2:",
           "a 2-qubit state is twirled by an encoder that needs 3 qubits"),
    Mutant("ghz-y-as-x", "src/ghzsdc/sdc.py",
           "_GHZ_MOVES = ((I2, False, False), (SIGMA_X, True, False), (SIGMA_Y, True, True), (SIGMA_Z, False, True))",
           "_GHZ_MOVES = ((I2, False, False), (SIGMA_X, True, False), (SIGMA_Y, True, False), (SIGMA_Z, False, True))",
           "depolarizing noise moves GHZ-basis weight as sigma_x would, keeping the sign s that sigma_y flips"),
    Mutant("ghz-purify-minus-weight-halved", "src/ghzsdc/purify.py",
           "kept = np.stack([plus * plus + minus * minus, 2 * plus * minus], axis=1).reshape(-1)",
           "kept = np.stack([plus * plus + minus * minus, plus * minus], axis=1).reshape(-1)",
           "a round on GHZ-basis weights keeps half the pairs of opposite sign, so its yield and kept state are wrong"),
    Mutant("ghz-return-noise-on-bob", "src/ghzsdc/capacity.py",
           "weights = _ghz_walk(weights, _ghz_moves(spec.kind, spec.p), range(1, n))",
           "weights = _ghz_walk(weights, _ghz_moves(spec.kind, spec.p), range(0, n))",
           "a Pauli both-stage point scored from its GHZ-basis weights takes Bob's noise a second time"),
    Mutant("widened-at-stage-both", "src/ghzsdc/harness.py",
           "if self.model is None and spec.stage is NoiseStage.DISTRIBUTION_ONLY:",
           "if self.model is None:",
           "amplitude-damping return points are scored from 3 qubits, though the return noise hits every one"),
)


def mutated(text: str, mutant: Mutant) -> str:
    """`text` with the mutant's line replaced; refuses a line that does not
    occur exactly once, or a replacement that does not compile."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.name}: {len(hits)} lines of {mutant.path} read {mutant.line!r}, not 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + mutant.replacement + "\n"
    out = "".join(lines)
    compile(out, mutant.path, "exec")
    return out


def module_tests(mutant: Mutant) -> str:
    """The test module of the file the mutant changes."""
    stem = Path(mutant.path).stem
    return f"tests/test_{'harness' if stem in ('harness', 'cli') else stem}.py"


def suite_status(mutant: Mutant | None, tests: str | None = None) -> int:
    """The exit status of `pytest -x -q` on a temporary copy of the
    repository, with the mutant applied when one is given, over the test
    module `tests` or, when it is None, the whole suite."""
    with tempfile.TemporaryDirectory(prefix="ghzsdc-mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for part in ("src", "tests", "demos"):
            shutil.copytree(ROOT / part, Path(tmp) / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            target = Path(tmp) / mutant.path
            target.write_text(mutated(target.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"))
        run = subprocess.run(PYTEST + ([tests] if tests else []), cwd=tmp, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode


def main() -> int:
    total = time.perf_counter()
    for mutant in MUTANTS:  # a stale line fails before any suite runs
        mutated((ROOT / mutant.path).read_text(), mutant)
    for tests in [None, *sorted({module_tests(m) for m in MUTANTS})]:
        if suite_status(None, tests) != 0:
            print(f"the unmutated {tests or 'suite'} fails; no mutant can be judged", file=sys.stderr)
            return 1
    unkilled = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        ran = module_tests(mutant)
        status = suite_status(mutant, ran)
        if status == 0:  # it survived its module: the whole suite decides
            ran = "the whole suite"
            status = suite_status(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR {status}")
        print(f"{verdict:8} {mutant.name} by {ran} ({time.perf_counter() - start:.1f} s)", flush=True)
        if status != 1:
            unkilled.append(mutant)
    for mutant in unkilled:
        print(f"not killed: {mutant.name}: {mutant.path}: {mutant.line!r} -> {mutant.replacement!r}"
              f" ({mutant.why})")
    print(f"{len(MUTANTS) - len(unkilled)} of {len(MUTANTS)} mutants killed"
          f" ({time.perf_counter() - total:.1f} s)")
    return 1 if unkilled else 0


if __name__ == "__main__":
    sys.exit(main())
