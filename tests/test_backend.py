"""Abstract (shape-only) backend: shape algebra must match NumPy exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.tensor import backend as bk
from repro.tensor.backend import AbstractArray

dims = st.integers(min_value=1, max_value=5)


class TestAbstractArrayBasics:
    def test_shape_and_size(self):
        a = AbstractArray((3, 4, 5))
        assert a.shape == (3, 4, 5)
        assert a.size == 60
        assert a.ndim == 3

    def test_negative_dim_rejected(self):
        with pytest.raises(ShapeError):
            AbstractArray((2, -1))

    def test_copy_and_astype_preserve_shape(self):
        a = AbstractArray((2, 3))
        assert a.copy().shape == (2, 3)
        assert a.astype("anything").shape == (2, 3)

    def test_transpose_property(self):
        assert AbstractArray((2, 3, 4)).T.shape == (4, 3, 2)

    def test_scalar_shape(self):
        assert AbstractArray(()).size == 1


class TestBroadcasting:
    @given(st.lists(dims, min_size=1, max_size=3), st.lists(dims, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_add_matches_numpy(self, s1, s2):
        a, b = np.zeros(s1), np.zeros(s2)
        try:
            expected = (a + b).shape
        except ValueError:
            with pytest.raises(Exception):
                _ = AbstractArray(s1) + AbstractArray(s2)
            return
        assert (AbstractArray(s1) + AbstractArray(s2)).shape == expected

    def test_mixed_abstract_concrete(self):
        out = AbstractArray((4, 1, 3)) * np.zeros((2, 3))
        assert out.shape == (4, 2, 3)

    def test_reflected_ops(self):
        out = np.zeros((2, 3)) + AbstractArray((3,))
        assert isinstance(out, AbstractArray)
        assert out.shape == (2, 3)

    def test_scalar_operand(self):
        assert (AbstractArray((2, 3)) * 2.0).shape == (2, 3)

    def test_negation_and_power(self):
        assert (-AbstractArray((2,))).shape == (2,)
        assert (AbstractArray((2,)) ** 2).shape == (2,)


class TestMatmul:
    def test_linear(self):
        assert (AbstractArray((5, 2, 3)) @ AbstractArray((3, 7))).shape == (5, 2, 7)

    def test_batched(self):
        assert (AbstractArray((2, 4, 5, 6)) @ AbstractArray((2, 4, 6, 3))).shape == (2, 4, 5, 3)

    def test_batch_broadcast(self):
        assert (AbstractArray((1, 4, 5, 6)) @ AbstractArray((2, 1, 6, 3))).shape == (2, 4, 5, 3)

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            _ = AbstractArray((2, 3)) @ AbstractArray((4, 5))

    def test_vector_rejected(self):
        with pytest.raises(ShapeError):
            _ = AbstractArray((3,)) @ AbstractArray((3, 2))

    @given(dims, dims, dims, dims)
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy(self, b, m, k, n):
        expected = (np.zeros((b, m, k)) @ np.zeros((k, n))).shape
        assert (AbstractArray((b, m, k)) @ AbstractArray((k, n))).shape == expected


class TestLinear:
    """``bk.linear`` runs ``x (..., k) @ w (k, n)`` as one 2-D GEMM."""

    W = np.random.default_rng(5).standard_normal((6, 4))

    @staticmethod
    def _one_gemm(x, w):
        return (np.ascontiguousarray(x).reshape(-1, x.shape[-1]) @ w
                ).reshape(*x.shape[:-1], w.shape[-1])

    def test_abstract_shapes(self):
        out = bk.linear(AbstractArray((5, 2, 6)), AbstractArray((6, 4)))
        assert isinstance(out, AbstractArray) and out.shape == (5, 2, 4)
        out = bk.linear(np.zeros((5, 2, 6)), AbstractArray((6, 4)))
        assert isinstance(out, AbstractArray) and out.shape == (5, 2, 4)
        assert bk.linear(AbstractArray((5, 1, 6)),
                         AbstractArray((4, 6)).T).shape == (5, 1, 4)
        with pytest.raises(ShapeError):
            bk.linear(AbstractArray((5, 2, 6)), AbstractArray((4, 6)))

    @pytest.mark.parametrize("shape", [(5, 3, 6), (7, 1, 6), (2, 3, 4, 6)],
                             ids=["sbh", "prefill_b1", "4d"])
    def test_one_gemm_over_all_rows(self, shape):
        x = np.random.default_rng(1).standard_normal(shape)
        out = bk.linear(x, self.W)
        assert out.shape == shape[:-1] + (4,)
        np.testing.assert_array_equal(out, self._one_gemm(x, self.W))
        np.testing.assert_allclose(out, x @ self.W, rtol=1e-12, atol=1e-12)

    def test_non_contiguous_input(self):
        base = np.random.default_rng(2).standard_normal((3, 5, 6))
        x = base.transpose(1, 0, 2)           # (5, 3, 6) strided view
        assert not x.flags.c_contiguous
        before = base.copy()
        out = bk.linear(x, self.W)
        np.testing.assert_array_equal(out, self._one_gemm(x, self.W))
        np.testing.assert_allclose(out, x @ self.W, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(base, before)

    def test_transposed_weight_view(self):
        g = np.random.default_rng(3).standard_normal((5, 3, 4))
        w_t = self.W.T                         # the dgrad operand
        assert not w_t.flags.c_contiguous
        out = bk.linear(g, w_t)
        assert out.shape == (5, 3, 6)
        np.testing.assert_array_equal(out, self._one_gemm(g, w_t))
        np.testing.assert_allclose(out, g @ w_t, rtol=1e-12, atol=1e-12)

    def test_two_dimensional_input_is_plain_matmul(self):
        x = np.random.default_rng(4).standard_normal((3, 6))
        np.testing.assert_array_equal(bk.linear(x, self.W), x @ self.W)


class TestReductionsAndReshape:
    @pytest.mark.parametrize("axis,keepdims", [
        (None, False), (None, True), (0, False), (1, True), (-1, False),
        ((0, 2), False), ((0, 2), True),
    ])
    def test_sum_matches_numpy(self, axis, keepdims):
        x = np.zeros((2, 3, 4))
        expected = np.sum(x, axis=axis, keepdims=keepdims).shape
        got = bk.sum_(AbstractArray((2, 3, 4)), axis=axis, keepdims=keepdims)
        assert bk.shape_of(got) == expected

    @pytest.mark.parametrize("fn", [bk.mean, bk.max_, bk.var])
    def test_other_reductions(self, fn):
        assert bk.shape_of(fn(AbstractArray((2, 3)), axis=-1, keepdims=True)) == (2, 1)

    def test_reshape_with_minus_one(self):
        assert AbstractArray((2, 3, 4)).reshape(6, -1).shape == (6, 4)

    def test_reshape_size_mismatch(self):
        with pytest.raises(ShapeError):
            AbstractArray((2, 3)).reshape(4, 2)

    def test_reshape_two_minus_ones(self):
        with pytest.raises(ShapeError):
            AbstractArray((4,)).reshape(-1, -1)

    def test_transpose_axes(self):
        assert bk.shape_of(bk.transpose(AbstractArray((2, 3, 4)), (2, 0, 1))) == (4, 2, 3)

    def test_transpose_bad_axes(self):
        with pytest.raises(ShapeError):
            bk.transpose(AbstractArray((2, 3)), (0, 0))

    def test_swap_last_two(self):
        assert bk.shape_of(bk.swap_last_two(AbstractArray((2, 3, 4)))) == (2, 4, 3)


class TestConcatSplitSlice:
    def test_concat(self):
        out = bk.concatenate([AbstractArray((2, 3)), AbstractArray((5, 3))], axis=0)
        assert bk.shape_of(out) == (7, 3)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            bk.concatenate([AbstractArray((2, 3)), AbstractArray((2, 4))], axis=0)

    def test_concat_mixed_concrete(self):
        out = bk.concatenate([AbstractArray((2, 3)), np.zeros((4, 3))], axis=0)
        assert bk.shape_of(out) == (6, 3)

    def test_split(self):
        parts = bk.split(AbstractArray((6, 4)), 3, axis=0)
        assert len(parts) == 3 and all(p.shape == (2, 4) for p in parts)

    def test_split_indivisible(self):
        with pytest.raises(ShapeError):
            bk.split(AbstractArray((5, 4)), 3, axis=0)

    def test_split_concrete_contiguous(self):
        parts = bk.split(np.arange(12).reshape(6, 2), 2, axis=0)
        assert all(p.flags["C_CONTIGUOUS"] for p in parts)
        np.testing.assert_array_equal(parts[1], np.arange(6, 12).reshape(3, 2))

    def test_slice_axis(self):
        out = bk.slice_axis(AbstractArray((8, 2)), 0, 2, 5)
        assert bk.shape_of(out) == (3, 2)

    def test_slice_out_of_range(self):
        with pytest.raises(ShapeError):
            bk.slice_axis(AbstractArray((4,)), 0, 2, 6)


class TestGatherScatter:
    def test_take_rows_concrete(self):
        table = np.arange(12).reshape(4, 3).astype(float)
        ids = np.array([[0, 3], [1, 1]])
        out = bk.take_rows(table, ids)
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out[0, 1], table[3])

    def test_take_rows_abstract(self):
        out = bk.take_rows(AbstractArray((10, 4)), AbstractArray((3, 2)))
        assert bk.shape_of(out) == (3, 2, 4)

    def test_index_add_rows_accumulates(self):
        ids = np.array([1, 1, 2])
        vals = np.ones((3, 4))
        out = bk.index_add_rows((5, 4), ids, vals)
        np.testing.assert_array_equal(out[1], 2 * np.ones(4))
        np.testing.assert_array_equal(out[0], np.zeros(4))

    def test_one_hot(self):
        oh = bk.one_hot_rows(np.array([2, 0]), 4)
        np.testing.assert_array_equal(oh, [[0, 0, 1, 0], [1, 0, 0, 0]])

    def test_take_along_last(self):
        x = np.arange(12).reshape(3, 4).astype(float)
        got = bk.take_along_last(x, np.array([1, 0, 3]))
        np.testing.assert_array_equal(got, [1.0, 4.0, 11.0])

    def test_bernoulli_mask_probability(self):
        rng = np.random.default_rng(0)
        mask = bk.bernoulli_mask((10000,), 0.7, rng, abstract=False)
        assert 0.66 < mask.mean() < 0.74

    def test_bernoulli_mask_abstract(self):
        mask = bk.bernoulli_mask((3, 4), 0.5, None, abstract=True)
        assert bk.shape_of(mask) == (3, 4)

    def test_bernoulli_keep_prob_validated(self):
        with pytest.raises(ShapeError):
            bk.bernoulli_mask((2,), 0.0, np.random.default_rng(0), abstract=False)
