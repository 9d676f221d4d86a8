import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzsdc import qnn
from ghzsdc.harness import trajectory_pairs
from ghzsdc.noise import NoiseKind, make_channel
from ghzsdc.qcore import DensityOperator, StateVector, Unitary
from ghzsdc.sdc import shared_state

from full_space import (
    apply_channel,
    apply_unitary,
    ascent_by_retarget,
    ascent_full_register,
    basis_state,
    cost,
    feedforward_rebuilt,
    fidelity,
    forward_by_retarget,
    gradients,
    identity_model,
    partial_trace,
    random_state,
)

SWAP = Unitary(np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex))


def dense_feedforward(model, rho_in):
    """Reference network map on the dense 2n-qubit state of each transition:
    adjoin |0...0> on n fresh qubits, apply the perceptrons in order, trace
    out the previous register."""
    n = model.width
    zeros = basis_state(n, 0).density()
    rho = rho_in
    for layer in model.stack.reshape(-1, n, 2 ** (n + 1), 2 ** (n + 1)):
        joint = DensityOperator(np.kron(rho.matrix, zeros.matrix))
        for j, u in enumerate(layer):
            joint = apply_unitary(joint, Unitary(u), list(range(n)) + [n + j])
        rho = partial_trace(joint, range(n, 2 * n))
    return rho


def stepped(model, bumps, eps):
    """The model with each perceptron U_i replaced by exp(i eps H_i) U_i,
    for the Hermitian bumps H_i stacked layer-major."""
    w, v = np.linalg.eigh(np.asarray(bumps))
    return qnn.QnnModel(qnn._expm_i(w, v, eps) @ model.stack)


class TestQnnModel:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_width_and_layers_read_from_the_stack(self, tmp_path, n, layers):
        model = qnn.random_model(n, layers, np.random.default_rng(10 * n + layers))
        assert model.stack.shape == (layers * n, 2 ** (n + 1), 2 ** (n + 1))
        assert (model.width, model.layers) == (n, layers)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        assert path.read_text().splitlines()[1] == f"{n} {layers}"
        loaded = qnn.load_model(path)
        assert (loaded.width, loaded.layers) == (n, layers)
        assert np.array_equal(loaded.stack, model.stack)

    @pytest.mark.parametrize("stack", [
        np.broadcast_to(np.eye(8), (1, 8, 8)),
        np.broadcast_to(np.eye(8), (3, 8, 8)),
        np.eye(2)[None],
        np.eye(6)[None],
        np.empty((0, 4, 4)),
        np.eye(4),
    ], ids=["too-few", "too-many", "d-2", "d-6", "empty", "two-dimensional"])
    def test_wrong_shape_rejected(self, stack):
        with pytest.raises(ValueError, match=r"shape .* with n, L >= 1"):
            qnn.QnnModel(stack)

    def test_non_unitary_member_rejected(self):
        stack = np.array([np.eye(8), 2 * np.eye(8)])
        with pytest.raises(ValueError, match="not unitary"):
            qnn.QnnModel(stack)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entry_rejected(self, entry):
        stack = np.array([np.eye(4, dtype=complex)])
        stack[0, 1, 2] = entry
        with pytest.raises(ValueError, match="not unitary"):
            qnn.QnnModel(stack)

    def test_stack_is_read_only(self):
        model = identity_model(2, 2)
        with pytest.raises(ValueError, match="read-only"):
            model.stack[0, 0, 0] = 0

    @pytest.mark.parametrize("n, layers, name", [(0, 1, "n"), (-1, 1, "n"), (3, 0, "layers"), (3, -2, "layers")])
    def test_random_model_refuses_an_empty_network(self, n, layers, name):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            qnn.random_model(n, layers, rng)
        assert rng.bit_generator.state == state  # refused before any draw

    def test_caller_array_is_copied(self):
        stack = np.array([SWAP.matrix])
        model = qnn.QnnModel(stack)
        stack[0] = 0
        assert np.array_equal(model.stack, [SWAP.matrix])

    def test_compares_and_hashes_by_identity(self):
        # elementwise array equality has no single truth value, so two distinct
        # equal-valued models are unequal rather than raising
        a, b = identity_model(1, 1), identity_model(1, 1)
        assert a == a
        assert not a == b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


class TestFeedforward:
    def test_identity_network_on_zero_state(self):
        model = identity_model(2, 1)
        out = qnn.feedforward(model, basis_state(2, 0).density())
        assert np.allclose(out.matrix, basis_state(2, 0).density().matrix, atol=1e-12)

    def test_identity_network_resets_any_input(self):
        # with U = I the input is traced away and the untouched fresh
        # register comes back as |0...0>
        rng = np.random.default_rng(4)
        model = identity_model(2, 1)
        out = qnn.feedforward(model, random_state(rng, 2).density())
        assert np.allclose(out.matrix, basis_state(2, 0).density().matrix, atol=1e-12)

    def test_swap_perceptron_is_identity_channel(self):
        model = qnn.QnnModel([SWAP.matrix])
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_state(rng, 1).density()
            out = qnn.feedforward(model, rho)
            assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-10

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(1, 3))
            model = qnn.random_model(n, 1, rng, spread=0.6)
            out = qnn.feedforward(model, random_state(rng, n).density())
            assert abs(np.trace(out.matrix).real - 1) < 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10

    def test_width_mismatch_rejected(self):
        model = identity_model(2, 1)
        with pytest.raises(ValueError):
            qnn.feedforward(model, basis_state(1, 0).density())

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_pure_state_cost_path(self, depth):
        rng = np.random.default_rng(9)
        model = qnn.random_model(2, depth, rng, spread=0.5)
        psi = random_state(rng, 2)
        target = random_state(rng, 2)
        dense = float(np.real(target.amplitudes.conj()
                              @ qnn.feedforward(model, psi.density()).matrix
                              @ target.amplitudes))
        pure = cost(model, [qnn.TrainingPair(psi, target)])
        assert abs(dense - pure) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), depth=st.integers(1, 3), rank_draw=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_oracle(self, n, depth, rank_draw, seed):
        rng = np.random.default_rng(seed)
        model = qnn.random_model(n, depth, rng, spread=0.5)
        rho = random_state(rng, n, 1 + (rank_draw - 1) % 2 ** n)
        got = qnn.feedforward(model, rho).matrix
        want = dense_feedforward(model, rho).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    def test_kraus_built_once_per_model(self, monkeypatch):
        # two calls on one 2-transition model make two _forward calls in all,
        # and give what rebuilding the Kraus operators at every call gives
        rng = np.random.default_rng(12)
        model = qnn.random_model(2, 2, rng, spread=0.5)
        rhos = [random_state(rng, 2, rank) for rank in (1, 3)]
        want = [feedforward_rebuilt(model, rho.matrix) for rho in rhos]
        calls = []
        forward = qnn._forward

        def counted(*args):
            calls.append(None)
            return forward(*args)

        monkeypatch.setattr(qnn, "_forward", counted)
        got = [qnn.feedforward(model, rho).matrix for rho in rhos]
        assert len(calls) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert model.kraus.shape == (2, 4, 4, 4)
        assert not model.kraus.flags.writeable

    def test_width_above_training_cap_rejected(self):
        # only a model file can carry such a width; training refuses it
        model = identity_model(qnn.MAX_TRAINABLE_WIDTH + 1, 1)
        with pytest.raises(ValueError, match="MAX_TRAINABLE_WIDTH"):
            qnn.feedforward(model, basis_state(qnn.MAX_TRAINABLE_WIDTH + 1, 0).density())


class TestCost:
    def test_perfect_model_scores_one(self):
        model = qnn.QnnModel([SWAP.matrix])
        rng = np.random.default_rng(10)
        pairs = [qnn.TrainingPair(s, s) for s in (random_state(rng, 1) for _ in range(4))]
        assert abs(cost(model, pairs) - 1) < 1e-10

    def test_orthogonal_outputs_score_zero(self):
        model = identity_model(1, 1)  # always outputs |0>
        pairs = [qnn.TrainingPair(basis_state(1, 0), basis_state(1, 1))]
        assert cost(model, pairs) < 1e-12

    def test_maximally_mixed_output_scores_half(self):
        # one perceptron turning |psi>|0> into a maximally entangled pair
        # leaves the output register maximally mixed
        bell_maker = Unitary(np.array(
            [[1, 0, 1, 0],
             [0, 1, 0, 1],
             [0, 1, 0, -1],
             [1, 0, -1, 0]], dtype=complex) / np.sqrt(2))
        model = qnn.QnnModel([bell_maker.matrix])
        out = qnn.feedforward(model, basis_state(1, 0).density())
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-10)
        pair = qnn.TrainingPair(basis_state(1, 0), basis_state(1, 1))
        assert abs(cost(model, [pair]) - 0.5) < 1e-10

    def test_cost_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            model = qnn.random_model(2, 1, rng, spread=1.0)
            pairs = [qnn.TrainingPair(random_state(rng, 2), random_state(rng, 2))
                     for _ in range(3)]
            c = cost(model, pairs)
            assert -1e-12 <= c <= 1 + 1e-12


class TestTraining:
    def test_unknown_unitary_task(self):
        # target unitary known only to the harness, not the trainer
        rng = np.random.default_rng(7)
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        target_u = (v * np.exp(1j * w)) @ v.conj().T
        inputs = [np.array([1, 0]), np.array([0, 1]),
                  np.array([1, 1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2)]
        pairs = [qnn.TrainingPair(StateVector(a.astype(complex)), StateVector(target_u @ a))
                 for a in inputs]
        model, report = qnn.train(pairs, max_iters=1000, tol=1e-9, rng_seed=0)
        assert report.final_cost >= 0.98

    def test_monotone_cost_history(self):
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 50)
        _, report = qnn.train(pairs, max_iters=60, rng_seed=1)
        history = np.array(report.cost_history)
        assert np.all(np.diff(history) >= -1e-9)
        assert np.all((history >= 0) & (history <= 1 + 1e-12))

    def test_stops_at_the_first_flat_window(self):
        # this run converges through the 25-step window well before
        # max_iters: its last 25 accepted steps gained less than tol, and no
        # earlier 25 did
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 3, 0.3, 3, 100)
        _, report = qnn.train(pairs, max_iters=200, tol=1e-6, rng_seed=3)
        history = np.array(report.cost_history)
        assert report.converged and report.iterations < 200
        assert report.stop == "flat window"
        assert history[-1] - history[-26] < 1e-6
        assert np.all(history[25:-1] - history[:-26] >= 1e-6)

    def test_stops_at_the_iteration_cap(self):
        # one step cannot fill the 25-step window
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 20)
        _, report = qnn.train(pairs, max_iters=1, rng_seed=1)
        assert (report.stop, report.converged, report.iterations) == ("iteration cap", False, 1)

    def test_stops_at_the_step_floor(self, monkeypatch):
        # every candidate scores below the start, so the first ascent halves
        # eps from STEP_SIZE to the 1e-8 floor and training keeps the start
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 20)
        scored_walk = qnn._scored_walk
        walks = []

        def losing(*args):
            cost, overlap, outputs = scored_walk(*args)
            walks.append(cost)
            return (cost if len(walks) == 1 else -1.0), overlap, outputs

        monkeypatch.setattr(qnn, "_scored_walk", losing)
        model, report = qnn.train(pairs, max_iters=5, rng_seed=1)
        assert (report.stop, report.converged, report.iterations) == ("step floor", True, 0)
        step_sizes = sum(qnn.STEP_SIZE / 2 ** k > 1e-8 for k in range(64))
        assert len(walks) == 1 + step_sizes == 25
        assert np.array_equal(model.stack, qnn.random_model(2, 1, np.random.default_rng(1)).stack)

    @pytest.mark.parametrize("n, depth", [(2, 1), (3, 2)])
    def test_unitarity_preserved_after_training(self, n, depth):
        pairs = trajectory_pairs(NoiseKind.DEPOLARIZING, n, 0.2, 3, 40)
        model, _ = qnn.train(pairs, depth, max_iters=50, rng_seed=2)
        for u in model.stack:
            assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_ascent_direction_matches_finite_differences(self, n):
        # the analytic direction must have positive overlap with the
        # finite-difference gradient over a Hermitian perturbation basis
        rng = np.random.default_rng(13)
        model = qnn.random_model(n, 1, rng, spread=0.4)
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n))
                 for _ in range(3)]
        grads = gradients(model, pairs)
        dim = 2 ** (n + 1)
        eps = 1e-6
        for idx in range(len(grads)):
            fd = np.zeros((dim, dim), dtype=complex)
            base = cost(model, pairs)
            for r in range(dim):
                for c in range(r, dim):
                    for basis in ([1.0], [1j]) if r != c else ([1.0],):
                        h = np.zeros((dim, dim), dtype=complex)
                        h[r, c] = basis[0]
                        h[c, r] = np.conj(basis[0])
                        bumped = stepped(model, [h if i == idx else np.zeros_like(h)
                                                 for i in range(len(grads))], eps)
                        d = (cost(bumped, pairs) - base) / eps
                        fd += d * h / (np.linalg.norm(h) ** 2)
            inner = np.real(np.trace(grads[idx].conj().T @ fd))
            assert inner > 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_directional_derivative_matches_gradient_at_depth_2(self, n):
        # d/d(eps) cost(U_i <- exp(i eps H) U_i) at eps = 0 is tr(K_i H); at
        # depth 2 the second transition's perceptrons read qubits n..2n-1
        rng = np.random.default_rng(14)
        eps = 1e-5
        model = qnn.random_model(n, 2, rng, spread=0.4)
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n))
                 for _ in range(3)]
        grads = gradients(model, pairs)
        assert len(grads) == 2 * n
        dim = 2 ** (n + 1)
        for idx in range(len(grads)):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (raw + raw.conj().T) / 2
            bump = [h if i == idx else np.zeros_like(h) for i in range(len(grads))]
            up = cost(stepped(model, bump, eps), pairs)
            down = cost(stepped(model, bump, -eps), pairs)
            analytic = np.real(np.trace(grads[idx] @ h))
            assert (up - down) / (2 * eps) == pytest.approx(analytic, abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), depth=st.integers(1, 2), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batched_gradients_sum_single_pair_gradients(self, n, depth, count, seed):
        rng = np.random.default_rng(seed)
        model = qnn.random_model(n, depth, rng, spread=0.5)
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n))
                 for _ in range(count)]
        weights = rng.uniform(0.1, 1.0, count)
        weights /= weights.sum()
        batched = gradients(model, pairs, weights)
        single = sum(w * np.asarray(gradients(model, [pair], [1.0]))
                     for w, pair in zip(weights, pairs))
        assert np.max(np.abs(np.asarray(batched) - single)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), depth=st.integers(1, 2), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=4, depth=2, count=2, seed=0)
    def test_stacked_kernels_match_per_perceptron_products(self, n, depth, count, seed):
        # the T products formed on the growing register, against the sweep
        # of the state and its projection on the full register; the powers
        # filled in place, bit for bit
        rng = np.random.default_rng(seed)
        stack = qnn.random_model(n, depth, rng, spread=0.5).stack
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n)) for _ in range(count)]
        weights = rng.uniform(0.1, 1.0, count)
        weights /= weights.sum()
        inputs, bras, _ = qnn._batch(pairs, n)
        out, outputs = qnn._forward(stack, n, inputs)
        overlap = (out.reshape(-1, 2 ** n, count) * bras).sum(axis=1)
        grads = qnn._ascent(stack, n, outputs, overlap, bras, weights)
        assert not outputs  # consumed
        want = ascent_full_register(stack, n, out, overlap, bras.conj(), weights)
        assert np.max(np.abs(grads - want)) < 1e-14
        powers = np.empty((5,) + stack.shape, dtype=complex)
        powers[0] = np.eye(stack.shape[-1])
        qnn._fill_powers(powers, grads)
        k = powers[1]
        assert np.array_equal(k, grads / np.linalg.norm(grads, axis=(1, 2)).max())
        assert np.array_equal(powers[2], k @ k)
        assert np.array_equal(powers[3], powers[2] @ k)
        assert np.array_equal(powers[4], powers[2] @ powers[2])

    @pytest.mark.parametrize("n, depth", [(1, 1), (2, 3), (3, 2), (5, 2)])
    def test_walk_keeps_less_than_twice_the_final_register(self, n, depth):
        # perceptron i's output holds n + i + 1 qubits, so the outputs sum
        # to 2^(n+1) (2^(L n) - 1) amplitudes per column, the last one being
        # as large as the final register
        rng = np.random.default_rng(n)
        stack = qnn.random_model(n, depth, rng, spread=0.5).stack
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n)) for _ in range(3)]
        out, outputs = qnn._forward(stack, n, qnn._batch(pairs, n)[0])
        assert out.shape == (2 ** (n + len(stack)), 3)
        assert [a.shape for a in outputs] == [(2 ** (n + 1), 3 * 2 ** i) for i in range(len(stack))]
        kept = sum(a.nbytes for a in outputs)
        assert kept == 2 * out.nbytes - 2 ** (n + 1) * 3 * out.itemsize
        assert kept < 2 * out.nbytes

    def test_ascent_holds_no_per_perceptron_buffer(self):
        # a forward walk and its ascent keep the outputs, under twice the
        # final register, the swept projection and a few copies of it during
        # a move; one full register per perceptron would take 10 * out.nbytes
        rng = np.random.default_rng(0)
        n, depth = 5, 2
        stack = qnn.random_model(n, depth, rng, spread=0.5).stack
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n)) for _ in range(2)]
        inputs, bras, weights = qnn._batch(pairs, n)
        tracemalloc.start()
        try:
            _, overlap, outputs = qnn._scored_walk(stack, n, inputs, bras, weights)
            final = outputs[-1].nbytes  # the last output is as large as the final register
            qnn._ascent(stack, n, outputs, overlap, bras, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * final

    def test_batch_of_shared_states_matches_batch_by_value(self, monkeypatch):
        # sampled pairs share one state per branch; copies of them collapse
        # alike but need more value comparisons
        shared = trajectory_pairs(NoiseKind.DEPOLARIZING, 3, 0.5, 0, 200)
        copied = [qnn.TrainingPair(StateVector(p.input.amplitudes.copy()),
                                   StateVector(p.target.amplitudes.copy())) for p in shared]
        calls = []
        array_equal = np.array_equal

        def counted(*args):
            calls.append(None)
            return array_equal(*args)

        monkeypatch.setattr(np, "array_equal", counted)
        batch = qnn._batch(shared, 3)
        by_identity = len(calls)
        batch_copied = qnn._batch(copied, 3)
        assert batch[0].shape == (8, 4)
        assert all(array_equal(a, b) for a, b in zip(batch, batch_copied))
        assert by_identity < len(calls) - by_identity

    def test_batch_weights_are_branch_counts_over_the_set_size(self):
        pairs = trajectory_pairs(NoiseKind.DEPOLARIZING, 3, 0.5, 0, 200)
        inputs, bras, weights = qnn._batch(pairs, 3)
        assert inputs.shape == bras.shape == (8, 4)
        counts = [sum(np.array_equal(p.input.amplitudes, column) for p in pairs) for column in inputs.T]
        assert weights.tolist() == [c / 200 for c in counts]
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_input_above_the_supported_width_refused(self):
        psi = shared_state(7)
        pairs = [qnn.TrainingPair(psi, psi)]
        with pytest.raises(ValueError, match="limited"):
            qnn.train(pairs)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            qnn.train([])

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iteration_refused(self, max_iters):
        psi = shared_state(3)
        with pytest.raises(ValueError) as refused:
            qnn.train([qnn.TrainingPair(psi, psi)], max_iters=max_iters)
        assert refused.type is ValueError
        assert str(refused.value) == "max_iters must be >= 1"

    def test_no_transition_refused(self):
        psi = shared_state(3)
        with pytest.raises(ValueError, match="at least one layer transition"):
            qnn.train([qnn.TrainingPair(psi, psi)], 0)

    @pytest.mark.parametrize("widths", [((3, 3),), ((2, 2), (3, 3)), ((2, 2), (2, 1))],
                             ids=["all-wide", "mixed", "narrow-target"])
    def test_width_mismatch_rejected(self, widths):
        rng = np.random.default_rng(15)
        pairs = [qnn.TrainingPair(random_state(rng, a), random_state(rng, b))
                 for a, b in widths]
        with pytest.raises(ValueError, match="width differs from the model width"):
            cost(identity_model(2, 1), pairs)

    @pytest.mark.parametrize("widths", [((2, 2), (3, 3)), ((2, 2), (2, 1))],
                             ids=["mixed", "narrow-target"])
    def test_training_pairs_of_two_widths_rejected(self, widths):
        # training takes its width from the first pair
        rng = np.random.default_rng(15)
        pairs = [qnn.TrainingPair(random_state(rng, a), random_state(rng, b))
                 for a, b in widths]
        with pytest.raises(ValueError, match="width differs from the model width"):
            qnn.train(pairs)

    def test_training_width_is_the_pairs_width(self):
        rng = np.random.default_rng(15)
        pairs = [qnn.TrainingPair(random_state(rng, 3), random_state(rng, 3))]
        model, _ = qnn.train(pairs, max_iters=1)
        assert (model.width, model.layers) == (3, 1)

    @pytest.mark.parametrize("n, depth", [(1, 1), (2, 2), (3, 1)])
    def test_final_cost_is_the_returned_models_cost(self, n, depth):
        # the returned model is the last accepted stack, not an earlier one
        rng = np.random.default_rng(16)
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n)) for _ in range(4)]
        model, report = qnn.train(pairs, depth, max_iters=30, rng_seed=5)
        # the last step moved the cost, so an earlier model would miss it
        assert report.cost_history[-1] - report.cost_history[-2] > 1e-9
        assert abs(report.final_cost - cost(model, pairs)) < 1e-12

    @pytest.mark.parametrize("max_iters", [1, 40])
    def test_one_eigensolve_per_training(self, monkeypatch, max_iters):
        # the only eigh is random_model's; every ascent steps by the polynomial
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 20)
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        _, report = qnn.train(pairs, max_iters=max_iters, rng_seed=1)
        assert report.iterations == max_iters
        assert calls == [(2, 8, 8)]


class TestMoveCount:
    """The forward walk costs one move per perceptron and one more to return
    to the natural order, the ascent one per perceptron; counted on the walk
    plan, whose moves the walks make, as `TestWalkPlan` checks."""

    @pytest.mark.parametrize("n, depth", [(1, 1), (2, 2), (3, 1), (3, 2)])
    def test_forward_and_ascent(self, n, depth):
        forward, ascent = qnn._walk_plan(n, depth * n)
        assert len(forward) == depth * n + 1
        assert len(ascent) == depth * n


class TestWalkPlan:
    """The walks made from `_walk_plan` against the same walks made by the
    test-local `retarget`, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), depth=st.integers(1, 3), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=4, depth=3, count=4, seed=0)
    @example(n=5, depth=2, count=4, seed=0)
    def test_walks_match_retarget_walks(self, n, depth, count, seed):
        # final registers of up to 16 qubits: only n = 5 at depth 3 is left out
        assume(n * (depth + 1) <= 16)
        rng = np.random.default_rng(seed)
        stack = qnn.random_model(n, depth, rng, spread=0.5).stack
        pairs = [qnn.TrainingPair(random_state(rng, n), random_state(rng, n)) for _ in range(count)]
        inputs, bras, _ = qnn._batch(pairs, n)
        weights = rng.uniform(0.1, 1.0, count)
        out, outputs = qnn._forward(stack, n, inputs)
        want_out, want_outputs = forward_by_retarget(stack, n, inputs)
        assert np.array_equal(out, want_out)
        assert all(np.array_equal(a, b) for a, b in zip(outputs, want_outputs, strict=True))
        _, overlap, _ = qnn._scored_walk(stack, n, inputs, bras, weights)
        assert np.array_equal(qnn._ascent(stack, n, outputs, overlap, bras, weights),
                              ascent_by_retarget(stack, n, want_outputs, overlap, bras, weights))

    def test_training_matches_training_on_retarget_walks(self, monkeypatch):
        pairs = trajectory_pairs(NoiseKind.DEPOLARIZING, 3, 0.3, 0, 100)
        model, report = qnn.train(pairs, 2, max_iters=20, rng_seed=4)
        monkeypatch.setattr(qnn, "_forward", forward_by_retarget)
        monkeypatch.setattr(qnn, "_ascent", ascent_by_retarget)
        want_model, want_report = qnn.train(pairs, 2, max_iters=20, rng_seed=4)
        assert report.iterations == 20
        assert report == want_report
        assert np.array_equal(model.stack, want_model.stack)

    def test_built_once_per_shape(self):
        # training's walks share the plan of its stack; the Kraus operators
        # walk one transition, a second shape
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, 0, 20)
        qnn._walk_plan.cache_clear()
        model, report = qnn.train(pairs, 2, max_iters=20, rng_seed=1)
        built = qnn._walk_plan.cache_info()
        assert built.misses == 1
        assert built.hits >= 2 * report.iterations
        assert model.kraus.shape == (2, 4, 4, 4)
        assert qnn._walk_plan.cache_info().misses == 2


class TestStepExponential:
    # train's step exp(i eps K) from the powers of K, against the eigh form
    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([4, 16, 64]), count=st.integers(1, 3),
           eps=st.floats(1e-8, qnn.STEP_SIZE), zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(d=16, count=3, eps=qnn.STEP_SIZE, zero=True, seed=0)
    @example(d=4, count=3, eps=qnn.STEP_SIZE, zero=False, seed=0)
    def test_matches_eigh_oracle(self, d, count, eps, zero, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        k = np.zeros((count, d, d), dtype=complex) if zero else (raw + np.swapaxes(raw.conj(), -1, -2)) / 2
        powers = np.empty((5, count, d, d), dtype=complex)
        powers[0] = np.eye(d)
        # normalised as train does: the largest Frobenius norm becomes 1
        qnn._fill_powers(powers, k)
        step = qnn._expm_i_powers(powers, eps)
        assert np.max(np.abs(step - qnn._expm_i(*np.linalg.eigh(powers[1]), eps))) < 1e-13
        assert np.max(np.abs(step @ np.swapaxes(step.conj(), -1, -2) - np.eye(d))) < 1e-13


class TestTrainedCorrector:
    def test_trained_model_improves_noisy_fidelity(self):
        n = 2
        p = 0.3
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, n, p, 0, 100)
        model, _ = qnn.train(pairs, max_iters=400, rng_seed=0)
        noisy = apply_channel(shared_state(n).density(),
                              make_channel(NoiseKind.AMPLITUDE_DAMPING, p), [0])
        before = fidelity(shared_state(n), noisy)
        after = fidelity(shared_state(n), qnn.feedforward(model, noisy))
        assert after > before

    def test_trained_model_keeps_clean_states(self):
        n = 2
        pairs = trajectory_pairs(NoiseKind.AMPLITUDE_DAMPING, n, 0.3, 0, 100)
        model, _ = qnn.train(pairs, max_iters=400, rng_seed=0)
        clean = shared_state(n).density()
        assert fidelity(shared_state(n), qnn.feedforward(model, clean)) >= 0.9


class TestModelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        model = qnn.random_model(2, 2, rng)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        loaded = qnn.load_model(path)
        assert (loaded.width, loaded.layers) == (2, 2)
        assert np.array_equal(loaded.stack, model.stack)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wrong\n")
        with pytest.raises(qnn.ModelFormatError, match=":1:"):
            qnn.load_model(path)

    def test_truncated_file_reports_position(self, tmp_path):
        rng = np.random.default_rng(22)
        model = qnn.random_model(1, 1, rng)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(qnn.ModelFormatError, match=r":\d+:"):
            qnn.load_model(path)

    def test_non_numeric_entry(self, tmp_path):
        rng = np.random.default_rng(23)
        model = qnn.random_model(1, 1, rng)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        lines = path.read_text().splitlines()
        lines[4] = "zork 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(qnn.ModelFormatError, match="non-numeric"):
            qnn.load_model(path)

    def test_non_integer_dimension_reports_line_3(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("qnnmodel 1\n1 1\ndim abc\n")
        with pytest.raises(qnn.ModelFormatError, match=r"model\.txt:3: .*'dim abc'"):
            qnn.load_model(path)

    @pytest.mark.parametrize("shape, reason", [("1 0", "layer transition"),
                                               ("0 1", "input width"),
                                               ("1 1 1", "two integers"),
                                               ("1", "two integers")])
    def test_bad_architecture_line_reports_line_2(self, tmp_path, shape, reason):
        path = tmp_path / "model.txt"
        path.write_text(f"qnnmodel 1\n{shape}\n")
        with pytest.raises(qnn.ModelFormatError, match=rf"model\.txt:2: .*{reason}"):
            qnn.load_model(path)

    def test_width_above_training_cap_rejected_at_line_2(self, tmp_path):
        # rejected before any perceptron is read or allocated
        path = tmp_path / "model.txt"
        path.write_text(f"qnnmodel 1\n{qnn.MAX_TRAINABLE_WIDTH + 1} 1\n")
        with pytest.raises(qnn.ModelFormatError,
                           match=r"model\.txt:2: width 7 exceeds MAX_TRAINABLE_WIDTH = 6"):
            qnn.load_model(path)

    def test_non_unitary_perceptron_reported_at_its_last_line(self, tmp_path):
        # width 1, two transitions: perceptron 2 spans lines 20-36
        path = tmp_path / "model.txt"
        qnn.save_model(identity_model(1, 2), path)
        lines = path.read_text().splitlines()
        lines[20] = "2.0 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(qnn.ModelFormatError, match=r"model\.txt:36: matrix is not unitary"):
            qnn.load_model(path)

    def test_first_perceptron_reported_at_its_last_line(self, tmp_path):
        # width 1, one transition: perceptron 0 spans lines 3-19
        path = tmp_path / "model.txt"
        qnn.save_model(identity_model(1, 1), path)
        lines = path.read_text().splitlines()
        lines[3] = "2.0 0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(qnn.ModelFormatError, match=r"model\.txt:19: matrix is not unitary"):
            qnn.load_model(path)

    # Format refusals, each with the line it names: a perceptron of the wrong
    # dimension either way (the first is the file that CI feeds to the
    # console script), an entry of three numbers, and one trailing line.
    @pytest.mark.parametrize("body, lineno, message", [
        ("1 1\ndim 8\n", 3, "perceptron dim 8 inconsistent with width 1"),
        ("1 1\ndim 2\n", 3, "perceptron dim 2 inconsistent with width 1"),
        ("1 1\ndim 4\n1.0 0.0\n0.0 0.0 0.0\n", 5, "expected 're im', got '0.0 0.0 0.0'"),
        ("1 1\ndim 4\n" + "".join(f"{float(r == c)} 0.0\n" for r in range(4) for c in range(4))
         + "extra\n", 20, "trailing content after model data"),
    ], ids=["dim-above", "dim-below", "three-numbers", "trailing-line"])
    def test_format_refusal_names_its_line(self, tmp_path, body, lineno, message):
        path = tmp_path / "model.txt"
        path.write_text("qnnmodel 1\n" + body)
        with pytest.raises(qnn.ModelFormatError) as refused:
            qnn.load_model(path)
        assert refused.type is qnn.ModelFormatError
        assert str(refused.value) == f"{path}:{lineno}: {message}"

    def test_header_counts_allocate_nothing(self, tmp_path):
        # a billion announced transitions end at the first missing entry
        path = tmp_path / "model.txt"
        path.write_text("qnnmodel 1\n1 1000000000\ndim 4\n")
        with pytest.raises(qnn.ModelFormatError, match=r"model\.txt:4: unexpected end of file"):
            qnn.load_model(path)

    @pytest.mark.parametrize("entry", ["nan nan", "nan 0.0", "0.0 inf", "-inf -inf"])
    def test_non_finite_entry_rejected(self, tmp_path, entry):
        # the unitarity bound fails on a non-finite entry, so the file is
        # refused at load time with its name and line
        rng = np.random.default_rng(24)
        model = qnn.random_model(3, 1, rng)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        lines = path.read_text().splitlines()
        lines[4] = entry
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(qnn.ModelFormatError, match=r"model\.txt:\d+: matrix is not unitary"):
            qnn.load_model(path)
