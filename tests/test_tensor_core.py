"""Tensor arithmetic: shape contracts, hand-derived values, determinism."""

import numpy as np
import pytest

from quantdistill.errors import DimensionError, DomainError
from quantdistill.tensor_core import Tensor, l2_normalize, matmul, relu


class TestTensor:
    def test_shape_and_flat_size_agree(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert t.shape == (3, 2)
        assert t.size == 6

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Tensor([1.0, float("nan")])
        with pytest.raises(DomainError):
            Tensor([float("inf")])

    def test_wrap_does_not_check_finiteness(self):
        # The constructor checks outside data; the internal fast path leaves
        # finite checks to the graph's layer boundaries.
        arr = np.array([1.0, np.nan, np.inf, -np.inf], dtype=np.float32)
        assert np.array_equal(Tensor._wrap(arr).data, arr, equal_nan=True)
        with pytest.raises(DomainError):
            Tensor(arr)

    def test_storage_is_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0


class TestMatmul:
    def test_identity_left(self):
        i = Tensor([[1, 0], [0, 1]])
        a = Tensor([[5, 6], [7, 8]])
        assert matmul(i, a).tolist() == [[5, 6], [7, 8]]

    def test_scalar_case(self):
        assert matmul(Tensor([[2]]), Tensor([[3]])).tolist() == [[6]]

    def test_2x2_hand_expansion(self):
        # oracle: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        out = matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5, 6], [7, 8]]))
        assert out.tolist() == [[19, 22], [43, 50]]

    def test_identity_both_sides_exact(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.integers(-5, 6, size=(4, 4)).astype(np.float32))
        i = Tensor(np.eye(4, dtype=np.float32))
        assert np.array_equal(matmul(i, a).data, a.data)
        assert np.array_equal(matmul(a, i).data, a.data)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor([[1, 2]]), Tensor([[1, 2]]))
        with pytest.raises(DimensionError):
            matmul(Tensor([1, 2]), Tensor([[1], [2]]))

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.standard_normal((17, 23)).astype(np.float32))
        b = Tensor(rng.standard_normal((23, 11)).astype(np.float32))
        first = matmul(a, b).data
        second = matmul(a, b).data
        assert np.array_equal(first, second)

    def test_matches_left_to_right_scalar_loop(self):
        # oracle: explicit per-element float32 accumulation in k order
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 5)).astype(np.float32)
        b = rng.standard_normal((5, 4)).astype(np.float32)
        expected = np.zeros((3, 4), dtype=np.float32)
        for i in range(3):
            for j in range(4):
                acc = np.float32(0.0)
                for k in range(5):
                    acc = np.float32(acc + np.float32(a[i, k] * b[k, j]))
                expected[i, j] = acc
        assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, expected)


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_already_unit(self):
        assert l2_normalize(Tensor([[1.0, 0.0]])).tolist() == [[1.0, 0.0]]

    def test_constant_row(self):
        # oracle: norm of [2,2,2,2] is 4
        out = l2_normalize(Tensor([[2.0, 2.0, 2.0, 2.0]]))
        assert np.allclose(out.data, 0.25 * np.full((1, 4), 2.0), atol=1e-7)

    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(9)
        out = l2_normalize(Tensor(rng.standard_normal((20, 7)).astype(np.float32)))
        norms = np.linalg.norm(out.data.astype(np.float64), axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        t = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
        once = l2_normalize(t)
        twice = l2_normalize(once)
        assert np.allclose(once.data, twice.data, atol=1e-6)

    def test_zero_row_rejected(self):
        with pytest.raises(DomainError):
            l2_normalize(Tensor([[0.0, 0.0]]))


class TestRelu:
    def test_sign_cases(self):
        assert relu(Tensor([-1.0, 0.0, 2.0])).tolist() == [0.0, 0.0, 2.0]

    def test_all_negative(self):
        assert relu(Tensor([[-3.0, -0.5]])).tolist() == [[0.0, 0.0]]

    def test_positive_passthrough(self):
        assert relu(Tensor([0.5])).tolist() == [0.5]
