import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsdc import qcore, qnn
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, sample_trajectories
from ghzsdc.qcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    QuantumChannel,
    StateVector,
    Unitary,
    _apply_each,
    _kraus_sum,
    _retarget,
    _spectrum_entropy,
    von_neumann_entropy,
)
from ghzsdc.sdc import Codeword, distribute, ghz_fidelity, run_protocol, transmit

from full_space import (
    CNOT,
    apply_channel,
    apply_unitary,
    basis_state,
    embedded_matrix,
    fidelity,
    identity_model,
    kraus_sum,
    partial_trace,
    random_channel,
    tensor_product,
)

NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan)]


def bell_state():
    return StateVector(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def random_density(rng, m):
    d = 2 ** m
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mat = a @ a.conj().T
    return DensityOperator(mat / np.trace(mat))


def random_unitary(rng, k):
    d = 2 ** k
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return Unitary(q * (np.diag(r) / np.abs(np.diag(r))))


class TestValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(np.array([1.0, 1.0]))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.array([1.0, 0.0, 0.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))

    def test_negative_eigenvalue_floor_is_atol(self):
        with pytest.raises(ValueError, match="negative"):
            DensityOperator(np.diag([1 + 1e-8, -1e-8]))
        assert DensityOperator(np.diag([1 + 1e-11, -1e-11])).spectrum[0] == -1e-11

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            Unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("entry", NON_FINITE)
    def test_non_finite_unitary_rejected(self, entry):
        mat = np.eye(2, dtype=complex)
        mat[1, 0] = entry
        with pytest.raises(ValueError, match="not unitary"):
            Unitary(mat)

    @pytest.mark.parametrize("entry", NON_FINITE)
    def test_non_finite_state_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(np.array([entry, 0.0]))

    @pytest.mark.parametrize("entry", NON_FINITE)
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_density_rejected(self, entry, where):
        # before any arithmetic: an inf entry must not warn in the subtract
        mat = np.diag([0.0, 1.0]).astype(complex)
        mat[where] = entry
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(mat)

    @pytest.mark.parametrize("entry", NON_FINITE)
    def test_non_finite_kraus_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            QuantumChannel((np.array([[entry, 0], [0, 1]], dtype=complex),))

    @pytest.mark.parametrize("entry", NON_FINITE)
    def test_non_finite_spectrum_rejected(self, entry):
        with pytest.raises(ValueError, match="non-finite"):
            _spectrum_entropy(np.array([entry, 0.5, 0.5]))

    def test_incomplete_kraus_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            QuantumChannel((0.5 * I2,))


# Every refusal of the value types and of the target check, by its exact
# type and message; the package reaches the target check through
# `sample_trajectories`. Oversized inputs are zero-stride views, so the size
# checks are reached without allocating the state.
REFUSALS = {
    "state-above-cap": (
        lambda: StateVector(np.broadcast_to(np.complex128(1), (2 ** (qcore.MAX_STATE_QUBITS + 1),))),
        "state vectors support at most 12 qubits, got 13"),
    "density-not-square": (
        lambda: DensityOperator(np.eye(2, 4)), "density operator must be a square matrix"),
    "density-one-dimensional": (
        lambda: DensityOperator(np.full(4, 0.25)), "density operator must be a square matrix"),
    "density-above-cap": (
        lambda: DensityOperator(np.broadcast_to(np.complex128(0), (2 ** (qcore.MAX_DENSITY_QUBITS + 1),) * 2)),
        "density operators support at most 10 qubits, got 11"),
    "trace-two": (lambda: DensityOperator(np.eye(2)), "density operator trace 2.0 is not 1"),
    # twice ATOL past a unit trace
    "trace-past-atol": (
        lambda: DensityOperator(np.diag([0.5 + 1e-10, 0.5 + 1e-10])),
        "density operator trace 1.0000000002 is not 1"),
    # orthonormal rows pass the unitarity bound, so only the shape refuses it
    "unitary-not-square": (lambda: Unitary(np.eye(2, 4)), "unitary must be a square matrix"),
    "channel-empty": (lambda: QuantumChannel(()), "channel needs at least one Kraus operator"),
    "kraus-not-square": (
        lambda: QuantumChannel((np.eye(2, 4),)), "Kraus operators must share one square shape"),
    "kraus-two-widths": (
        lambda: QuantumChannel((np.eye(2) / np.sqrt(2), np.eye(4) / np.sqrt(2))),
        "Kraus operators must share one square shape"),
    "target-past-last": (
        lambda: sample_trajectories(basis_state(2, 0), QuantumChannel((I2,)), [2], [0]),
        "target out of range for 2 qubits"),
    "target-negative": (
        lambda: sample_trajectories(basis_state(2, 0), QuantumChannel((I2,)), [-1], [0]),
        "target out of range for 2 qubits"),
    # a trace-one Hermitian matrix whose overlap with |0> is 2 ATOL above 1
    # carries an eigenvalue 2 ATOL below 0, so no fidelity ever reads it
    "overlap-above-one": (
        lambda: DensityOperator(np.diag([1 + 2e-10, -2e-10])),
        "density operator has a negative eigenvalue"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_type_and_message(case):
    build, message = REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        build()
    assert refused.type is ValueError
    assert str(refused.value) == message


class TestSpectrum:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), rank=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    def test_is_the_validation_eigensolve_and_read_only(self, n, rank, seed):
        rng = np.random.default_rng(seed)
        d = 2 ** n
        g = rng.normal(size=(d, min(rank, d))) + 1j * rng.normal(size=(d, min(rank, d)))
        mat = g @ g.conj().T
        rho = DensityOperator(mat / np.trace(mat).real)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho.spectrum[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.spectrum = np.ones(d) / d
        assert "spectrum" not in repr(rho)


@pytest.mark.parametrize("make", [
    bell_state,
    lambda: bell_state().density(),
    lambda: Unitary(SIGMA_X),
    lambda: QuantumChannel((I2,)),
    lambda: identity_model(1, 1),
    lambda: run_protocol(Codeword(3, 5), NoiseSpec(NoiseKind.BIT_FLIP, 0.1)),
], ids=["StateVector", "DensityOperator", "Unitary", "QuantumChannel", "QnnModel", "SdcRunResult"])
def test_array_holders_compare_and_hash_by_identity(make):
    # elementwise array equality has no single truth value, so two distinct
    # equal-valued instances are unequal rather than raising
    a, b = make(), make()
    assert a == a
    assert not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


class TestTensorProduct:
    def test_identity_case(self):
        eye = Unitary(I2)
        assert np.allclose(tensor_product(eye, eye).matrix, np.eye(4))

    def test_basis_kets(self):
        out = tensor_product(basis_state(1, 0), basis_state(1, 1))
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_z_tensor_x_by_hand(self):
        # hand-multiplied entries of sigma_z (x) sigma_x
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1
        expected[2, 3] = expected[3, 2] = -1
        out = tensor_product(Unitary(SIGMA_Z), Unitary(SIGMA_X))
        assert np.allclose(out.matrix, expected)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor_product(basis_state(1, 0), Unitary(I2))


class TestPartialTrace:
    def test_product_state(self):
        rho = basis_state(2, 0).density()
        out = partial_trace(rho, [0])
        assert np.allclose(out.matrix, basis_state(1, 0).density().matrix)

    def test_bell_reduction_is_maximally_mixed(self):
        rho = bell_state().density()
        for keep in ([0], [1]):
            out = partial_trace(rho, keep)
            assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ghz_trace_out_last_qubit(self):
        # derived by expanding the 3-qubit GHZ state and summing the traced index
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        rho = StateVector(amps).density()
        out = partial_trace(rho, [0, 1])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(out.matrix, expected, atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(bell_state().density(), [])

    def test_tensor_then_trace_recovers_factor(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_density(rng, 1)
            b = random_density(rng, 2)
            joint = tensor_product(a, b)
            assert np.max(np.abs(partial_trace(joint, [0]).matrix - a.matrix)) < 1e-10
            assert np.max(np.abs(partial_trace(joint, [1, 2]).matrix - b.matrix)) < 1e-10


class TestApplyUnitary:
    def test_flip_qubit(self):
        rho = basis_state(1, 0).density()
        out = apply_unitary(rho, Unitary(SIGMA_X), [0])
        assert np.allclose(out.matrix, basis_state(1, 1).density().matrix)

    def test_identity_exact(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng, 2)
        out = apply_unitary(rho, Unitary(np.eye(4)), [0, 1])
        assert np.array_equal(out.matrix, rho.matrix) or np.max(np.abs(out.matrix - rho.matrix)) < 1e-15

    def test_cnot_row_mapping(self):
        # CNOT maps basis index 2 -> 3
        rho = basis_state(2, 2).density()
        out = apply_unitary(rho, Unitary(CNOT), [0, 1])
        assert np.allclose(out.matrix, basis_state(2, 3).density().matrix)

    def test_repeated_target_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            apply_unitary(bell_state().density(), Unitary(CNOT), [0, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_unitary(bell_state().density(), Unitary(CNOT), [0])

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 4):
            rho = random_density(rng, m)
            u = random_unitary(rng, 2)
            targets = list(rng.choice(m, size=2, replace=False))
            out = apply_unitary(rho, u, targets)
            before = np.sort(np.linalg.eigvalsh(rho.matrix))
            after = np.sort(np.linalg.eigvalsh(out.matrix))
            assert np.max(np.abs(before - after)) < 1e-9


def kron_embedding(mat, targets, m):
    """Independent oracle for `embedded_matrix`: mat (x) I with the targets as
    the high qubits, then the basis relabelled bit by bit into qubit order."""
    order = list(targets) + [q for q in range(m) if q not in targets]
    x = np.arange(2 ** m)
    relabel = sum(((x >> (m - 1 - q)) & 1) << (m - 1 - pos) for pos, q in enumerate(order))
    full = np.kron(mat, np.eye(2 ** (m - len(targets))))
    return full[np.ix_(relabel, relabel)]


def einsum_step(mat, arr, targets, m):
    """Oracle for one step of `_apply_each` that never moves an axis: mat
    contracted with the target axes of arr as a (2,)*m + (columns,) tensor."""
    k = len(targets)
    fresh = list(range(m + 1, m + 1 + k))
    out_axes = [fresh[targets.index(q)] if q in targets else q for q in range(m + 1)]
    tensor = arr.reshape((2,) * m + (-1,))
    return np.einsum(mat.reshape((2,) * 2 * k), fresh + list(targets),
                     tensor, list(range(m + 1)), out_axes).reshape(arr.shape)


def random_matrix(rng, k):
    return rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))


class TestApplyEach:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8), columns=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_embedded_matrix(self, data, m, columns, seed):
        # ordered, possibly non-contiguous targets on rows of several columns
        k = data.draw(st.integers(1, min(m, 3)))
        targets = tuple(data.draw(st.permutations(range(m)))[:k])
        rng = np.random.default_rng(seed)
        mat = random_matrix(rng, k)
        arr = rng.normal(size=(2 ** m, columns)) + 1j * rng.normal(size=(2 ** m, columns))
        full = embedded_matrix(mat, targets, m)
        assert np.max(np.abs(full - kron_embedding(mat, targets, m))) < 1e-12
        out = _apply_each([mat], [targets], arr, m)
        assert out.shape == arr.shape
        assert np.max(np.abs(out - full @ arr)) < 1e-12
        rows = _retarget(arr, (), targets, m)
        assert rows.shape == (2 ** k, 2 ** (m - k) * columns)
        assert np.array_equal(_retarget(rows, targets, (), m).reshape(arr.shape), arr)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 7), steps=st.integers(1, 4),
           columns=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_walk_matches_einsum_and_the_steps_through_natural_order(self, data, m, steps,
                                                                     columns, seed):
        target_sets = [tuple(data.draw(st.permutations(range(m)))[:data.draw(st.integers(1, min(m, 3)))])
                       for _ in range(steps)]
        rng = np.random.default_rng(seed)
        # unit Frobenius norm keeps every entry of the walk near arr's scale
        mats = [mat / np.linalg.norm(mat) for mat in (random_matrix(rng, len(t)) for t in target_sets)]
        arr = rng.normal(size=(2 ** m, columns)) + 1j * rng.normal(size=(2 ** m, columns))
        walked = _apply_each(mats, target_sets, arr, m)
        assert walked.shape == arr.shape
        oracle, stepped = arr, arr
        for mat, targets in zip(mats, target_sets):
            oracle = einsum_step(mat, oracle, targets, m)
            stepped = _apply_each([mat], [targets], stepped, m)
        assert np.max(np.abs(walked - oracle)) < 1e-12
        # one move between layouts is the same copy as two through the natural order
        assert np.array_equal(walked, stepped)
        src, dst = target_sets[0], target_sets[-1]
        assert np.array_equal(_retarget(arr, src, dst, m),
                              _retarget(_retarget(arr, src, (), m), (), dst, m))

    def test_state_vector_keeps_its_shape(self):
        amps = bell_state().amplitudes
        out = _apply_each([SIGMA_X], [(1,)], amps, 2)
        assert out.shape == (4,)
        assert np.array_equal(out, amps[[1, 0, 3, 2]])


class TestMoveCount:
    """Each local step costs one `_retarget`, and each walk one more to
    return to the natural order; counted by wrapping the name each module
    looks up."""

    @pytest.fixture
    def moves(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(None)
            return _retarget(*args)

        monkeypatch.setattr(qcore, "_retarget", counted)
        monkeypatch.setattr(qnn, "_retarget", counted)
        return calls

    @pytest.mark.parametrize("kind", [NoiseKind.AMPLITUDE_DAMPING, NoiseKind.DEPOLARIZING])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_transmit_at_stage_both_moves_n_times(self, moves, kind, n):
        spec = NoiseSpec(kind, 0.3, NoiseStage.DISTRIBUTION_AND_RETURN)
        shared = distribute(n, spec)
        moves.clear()
        transmit(shared, Codeword(n, 2 ** n - 1), spec)
        assert len(moves) == n

    @pytest.mark.parametrize("n, depth", [(1, 1), (2, 2), (3, 1), (3, 2)])
    def test_forward_and_ascent(self, moves, n, depth):
        stack = qnn.random_model(n, depth, np.random.default_rng(n)).stack
        psi = StateVector(np.full(2 ** n, 2 ** (-n / 2)))
        inputs, bras, weights = qnn._batch([qnn.TrainingPair(psi, psi)], n)
        _, overlap, outputs = qnn._scored_walk(stack, n, inputs, bras, weights)
        assert len(moves) == depth * n + 1
        moves.clear()
        qnn._ascent(stack, n, outputs, overlap, bras, weights)
        assert len(moves) == depth * n


class TestApplyChannel:
    def test_identity_channel(self):
        ch = QuantumChannel((I2,))
        rho = bell_state().density()
        out = apply_channel(rho, ch, [1])
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_fully_depolarizing_gives_maximally_mixed(self):
        ch = QuantumChannel((0.5 * I2, 0.5 * SIGMA_X, 0.5 * SIGMA_Y, 0.5 * SIGMA_Z))
        rng = np.random.default_rng(11)
        for _ in range(5):
            out = apply_channel(random_density(rng, 1), ch, [0])
            assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_amplitude_damping_p1_resets(self):
        ch = QuantumChannel((np.array([[1, 0], [0, 0]], dtype=complex),
                             np.array([[0, 1], [0, 0]], dtype=complex)))
        out = apply_channel(basis_state(1, 1).density(), ch, [0])
        assert np.allclose(out.matrix, basis_state(1, 0).density().matrix)

    def test_trace_and_psd_preserved_on_random_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho = random_density(rng, 2)
            # random 2-outcome channel from a Stinespring pair
            u = random_unitary(rng, 2).matrix
            k0, k1 = u[:2, :2], u[2:, :2]
            # rescale to completeness via polar trick: columns of a random isometry
            a = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(a)
            ch = QuantumChannel((q[:2, :], q[2:, :]))
            out = apply_channel(rho, ch, [int(rng.integers(2))])
            assert abs(np.trace(out.matrix).real - 1) < 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


class TestSuperoperator:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), k=st.integers(1, 2), r=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_kraus_sum_matches_the_kraus_conjugations(self, data, k, r, seed):
        m = data.draw(st.integers(k, 6))
        targets = data.draw(st.permutations(range(m)))[:k]
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, k, r)
        rho = random_density(rng, m).matrix
        out = _kraus_sum(ch, rho, [targets], m)
        assert out.shape == rho.shape
        assert np.max(np.abs(out - kraus_sum(ch, rho, targets, m))) < 1e-14

    def test_is_the_cached_read_only_kron_sum(self):
        ch = random_channel(np.random.default_rng(3), 2, 3)
        assert "superoperator" not in ch.__dict__
        sup = ch.superoperator
        expected = sum(np.kron(op, op.conj()) for op in ch.kraus_ops)
        assert np.array_equal(sup, expected)
        assert ch.superoperator is sup
        assert not sup.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sup[0, 0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.superoperator = expected


class TestFidelityAndEntropy:
    def test_pure_state_fidelity_one(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = StateVector(amps / np.linalg.norm(amps))
            assert abs(fidelity(psi, psi.density()) - 1) < 1e-9
            assert abs(von_neumann_entropy(psi.density())) < 1e-9

    def test_orthogonal_zero(self):
        assert fidelity(basis_state(1, 0), basis_state(1, 1).density()) == 0

    def test_maximally_mixed_single_qubit(self):
        mixed = DensityOperator(np.eye(2) / 2)
        assert abs(fidelity(basis_state(1, 0), mixed) - 1 / np.sqrt(2)) < 1e-12
        assert abs(von_neumann_entropy(mixed) - 1) < 1e-12

    def test_entropy_three_quarters(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert round(expected, 4) == 0.8113

    def test_dimension_mismatch(self):
        # the GHZ basis the package's fidelity reads needs two qubits
        with pytest.raises(ValueError, match="GHZ decoding needs at least 2 qubits, got 1"):
            ghz_fidelity(DensityOperator(np.eye(2) / 2))

    def test_entropy_admits_what_validation_admits(self):
        # validation accepts eigenvalues down to -ATOL, so the entropy must too
        rho = DensityOperator(np.diag([1 + 5e-11, -5e-11]))
        assert abs(von_neumann_entropy(rho)) < 1e-9
        with pytest.raises(ValueError, match="clamp floor"):
            _spectrum_entropy(np.array([1 + 2e-10, -2e-10]))

    def test_fidelity_admits_what_validation_admits(self):
        # GHZ-basis weights 1 + ATOL / 2 and -ATOL / 2 still validate, and
        # ghz_fidelity clamps them to exactly 1 and 0
        c = 0.5 + 5e-11
        rho = DensityOperator(np.array([[0.5, 0, 0, c], [0, 0, 0, 0], [0, 0, 0, 0], [c, 0, 0, 0.5]]))
        assert ghz_fidelity(rho, 0) == 1.0
        assert ghz_fidelity(rho, 1) == 0.0

    def test_entropy_counts_tiny_eigenvalues(self):
        # x log x is continuous at 0: an eigenvalue of 1e-13 carries 4.3e-12 bits
        evals = np.array([1e-13, 1 - 1e-13])
        expected = -(1e-13 * np.log2(1e-13) + (1 - 1e-13) * np.log2(1 - 1e-13))
        assert abs(_spectrum_entropy(evals) - expected) < 1e-20
        assert _spectrum_entropy(np.array([0.0, 1.0])) == 0.0

    @pytest.mark.parametrize("evals", [[1.0], [0.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    def test_pure_spectrum_entropy_is_positive_zero(self, evals):
        # -sum of x log2 x over the lone eigenvalue 1 is -0.0, which a CSV writes as "-0"
        assert math.copysign(1.0, _spectrum_entropy(np.array(evals))) == 1.0
