import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsdc import qcore
from ghzsdc.qcore import (
    I2,
    SIGMA_X,
    DensityOperator,
    QuantumChannel,
    StateVector,
    Unitary,
    _move,
    _spectrum_entropy,
    von_neumann_entropy,
)

from full_space import basis_state, random_channel, random_state, retarget

NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan)]


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


# Every refusal of the value types, by its exact type and message.
# Oversized inputs are zero-stride views, so the size checks are reached
# without allocating the state.
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
        d = 2 ** n
        rho = random_state(np.random.default_rng(seed), n, min(rank, d))
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rho.spectrum[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.spectrum = np.ones(d) / d
        assert "spectrum" not in repr(rho)


@pytest.mark.parametrize("make", [
    lambda: basis_state(2, 0),
    lambda: basis_state(2, 0).density(),
    lambda: Unitary(SIGMA_X),
    lambda: QuantumChannel((I2,)),
], ids=["StateVector", "DensityOperator", "Unitary", "QuantumChannel"])
def test_array_holders_compare_and_hash_by_identity(make):
    # elementwise array equality has no single truth value, so two distinct
    # equal-valued instances are unequal rather than raising
    a, b = make(), make()
    assert a == a
    assert not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


class TestMove:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 8), columns=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, data, m, columns, seed):
        # ordered, possibly non-contiguous targets on rows of several columns
        k = data.draw(st.integers(1, min(m, 3)))
        targets = tuple(data.draw(st.permutations(range(m)))[:k])
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(2 ** m, columns)) + 1j * rng.normal(size=(2 ** m, columns))

        def move(a, src, dst):
            shape, order, height = _move(src, dst, m)
            return a.reshape(shape).transpose(order).reshape(height, -1)

        rows = move(arr, (), targets)
        assert rows.shape == (2 ** k, 2 ** (m - k) * columns)
        assert np.array_equal(rows, retarget(arr, (), targets, m))
        assert np.array_equal(move(rows, targets, ()).reshape(arr.shape), arr)
        # one move between layouts is the same copy as two through the natural order
        other = tuple(data.draw(st.permutations(range(m)))[:data.draw(st.integers(0, m))])
        assert np.array_equal(move(rows, targets, other), move(move(rows, targets, ()), (), other))


class TestSuperoperator:
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


class TestEntropy:
    def test_pure_state_entropy_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            assert abs(von_neumann_entropy(random_state(rng, 2).density())) < 1e-9

    def test_maximally_mixed_single_qubit(self):
        assert abs(von_neumann_entropy(DensityOperator(np.eye(2) / 2)) - 1) < 1e-12

    def test_entropy_three_quarters(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert round(expected, 4) == 0.8113

    def test_entropy_admits_what_validation_admits(self):
        # validation accepts eigenvalues down to -ATOL, so the entropy must too
        rho = DensityOperator(np.diag([1 + 5e-11, -5e-11]))
        assert abs(von_neumann_entropy(rho)) < 1e-9
        with pytest.raises(ValueError, match="clamp floor"):
            _spectrum_entropy(np.array([1 + 2e-10, -2e-10]))

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
