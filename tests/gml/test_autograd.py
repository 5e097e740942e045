"""Unit tests for the numpy autograd engine, including numeric gradient checks."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import AutogradError, ShapeError
from repro.gml.autograd import (
    Embedding,
    Parameter,
    Tensor,
    binary_cross_entropy_with_logits,
    concatenate,
    cross_entropy,
    dropout,
    gather_rows,
    log_softmax,
    no_grad,
    softmax,
    spmm,
    stack,
    tensor,
    zeros,
)


def numeric_gradient(fn, parameter, eps=1e-6):
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``parameter``."""
    grad = np.zeros_like(parameter.data)
    flat = parameter.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = fn().item()
        flat[index] = original - eps
        minus = fn().item()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(fn, parameter, tolerance=1e-5):
    parameter.zero_grad()
    loss = fn()
    loss.backward()
    analytic = parameter.grad
    numeric = numeric_gradient(fn, parameter)
    assert analytic is not None
    assert np.abs(analytic - numeric).max() < tolerance


@pytest.fixture()
def rng_local():
    return np.random.default_rng(7)


class TestTensorBasics:
    def test_construction_and_shape(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2 and t.size == 4

    def test_item_and_numpy(self):
        assert Tensor([3.0]).item() == 3.0
        assert isinstance(Tensor([1.0]).numpy(), np.ndarray)

    def test_detach_breaks_graph(self):
        p = Parameter([1.0, 2.0])
        detached = (p * 2).detach()
        assert not detached.requires_grad

    def test_backward_requires_scalar(self):
        p = Parameter([[1.0, 2.0]])
        with pytest.raises(AutogradError):
            (p * 2).backward()

    def test_zeros_and_ones_helpers(self):
        assert zeros(2, 3).shape == (2, 3)
        assert tensor([1, 2]).shape == (2,)

    def test_no_grad_disables_tracking(self):
        p = Parameter([1.0, 2.0])
        with no_grad():
            out = (p * 3).sum()
        assert out._backward_fn is None

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_spmm_requires_sparse(self):
        with pytest.raises(AutogradError):
            spmm(np.ones((2, 2)), Tensor(np.ones((2, 2))))


class TestGradients:
    def test_addition_and_broadcasting(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)))
        x = Tensor(rng_local.normal(size=(4, 3)))
        check_gradient(lambda: ((x + p) ** 2).sum(), p)

    def test_subtraction_and_negation(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 2)))
        check_gradient(lambda: ((-p - 1.5) ** 2).mean(), p)

    def test_multiplication(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 3)))
        x = Tensor(rng_local.normal(size=(3, 3)))
        check_gradient(lambda: (p * x * p).sum(), p)

    def test_division(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)) + 3.0)
        check_gradient(lambda: (Tensor([1.0, 2.0, 3.0]) / p).sum(), p)

    def test_power(self, rng_local):
        p = Parameter(np.abs(rng_local.normal(size=(4,))) + 0.5)
        check_gradient(lambda: (p ** 3).sum(), p)

    def test_matmul(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)) * 0.3)
        x = Tensor(rng_local.normal(size=(5, 4)))
        check_gradient(lambda: ((x @ p) ** 2).sum(), p)

    def test_spmm(self, rng_local):
        adjacency = sp.random(6, 6, density=0.4, format="csr",
                              random_state=np.random.RandomState(0))
        p = Parameter(rng_local.normal(size=(6, 3)) * 0.3)
        check_gradient(lambda: (spmm(adjacency, p) ** 2).sum(), p)

    def test_relu_and_leaky_relu(self, rng_local):
        p = Parameter(rng_local.normal(size=(10,)) + 0.1)
        check_gradient(lambda: (p.relu() * 2).sum(), p)
        check_gradient(lambda: (p.leaky_relu(0.1) * 2).sum(), p)

    def test_sigmoid_tanh_exp_log(self, rng_local):
        p = Parameter(rng_local.normal(size=(6,)) * 0.5 + 1.5)
        check_gradient(lambda: p.sigmoid().sum(), p)
        check_gradient(lambda: p.tanh().sum(), p)
        check_gradient(lambda: p.exp().sum(), p, tolerance=1e-4)
        check_gradient(lambda: p.log().sum(), p)

    def test_sum_mean_axes(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 4)))
        check_gradient(lambda: (p.sum(axis=0) ** 2).sum(), p)
        check_gradient(lambda: (p.mean(axis=1) ** 2).sum(), p)

    def test_reshape_and_transpose(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 4)))
        check_gradient(lambda: ((p.reshape(4, 3) @ p) ** 2).sum(), p)
        check_gradient(lambda: ((p.T @ p) ** 2).sum(), p)

    def test_getitem_rows_and_slices(self, rng_local):
        p = Parameter(rng_local.normal(size=(5, 4)))
        indices = np.array([0, 2, 2, 4])
        check_gradient(lambda: (p[indices] ** 2).sum(), p)
        check_gradient(lambda: (p[:, :2] * p[:, 2:]).sum(), p)

    def test_gather_rows_duplicates_accumulate(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)))
        indices = np.array([1, 1, 1])
        check_gradient(lambda: gather_rows(p, indices).sum(), p)
        loss = gather_rows(p, indices).sum()
        p.zero_grad()
        loss = gather_rows(p, indices).sum()
        loss.backward()
        assert p.grad[1].sum() == pytest.approx(9.0)  # 3 rows x 3 columns of ones

    def test_concatenate_and_stack(self, rng_local):
        p = Parameter(rng_local.normal(size=(3, 2)))
        q = Tensor(rng_local.normal(size=(3, 2)))
        check_gradient(lambda: (concatenate([p, q], axis=1) ** 2).sum(), p)
        check_gradient(lambda: (stack([p, q], axis=0) ** 2).sum(), p)

    def test_softmax_and_log_softmax(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 5)))
        check_gradient(lambda: (softmax(p, axis=-1)[:, 0]).sum(), p)
        check_gradient(lambda: (log_softmax(p, axis=-1)[:, 1]).sum(), p)

    def test_cross_entropy(self, rng_local):
        p = Parameter(rng_local.normal(size=(6, 4)) * 0.5)
        targets = np.array([0, 1, 2, 3, 1, 2])
        check_gradient(lambda: cross_entropy(p, targets), p)

    def test_cross_entropy_with_weights(self, rng_local):
        p = Parameter(rng_local.normal(size=(4, 3)) * 0.5)
        targets = np.array([0, 1, 2, 1])
        weights = np.array([1.0, 2.0, 0.5, 1.5])
        check_gradient(lambda: cross_entropy(p, targets, weight=weights), p)

    def test_binary_cross_entropy(self, rng_local):
        p = Parameter(rng_local.normal(size=(8,)))
        targets = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=float)
        check_gradient(lambda: binary_cross_entropy_with_logits(p, targets), p)

    def test_gradient_accumulates_across_backward_calls(self):
        p = Parameter([1.0, 2.0])
        (p * 2).sum().backward()
        first = p.grad.copy()
        (p * 2).sum().backward()
        assert np.allclose(p.grad, 2 * first)

    def test_chained_graph_reuse(self, rng_local):
        p = Parameter(rng_local.normal(size=(3,)))
        shared = p * 2
        loss = (shared * shared).sum() + shared.sum()
        loss.backward()
        numeric = numeric_gradient(
            lambda: ((p * 2) * (p * 2)).sum() + (p * 2).sum(), p)
        assert np.abs(p.grad - numeric).max() < 1e-5


class TestGraphLifetime:
    def test_backward_frees_the_graph_without_the_cycle_collector(self):
        """After ``backward()`` the graph's tensors die by reference counting."""
        gc.collect()
        gc.disable()
        try:
            weights = Parameter(np.ones((4, 3)))
            hidden = Tensor(np.arange(12.0).reshape(3, 4)) @ weights
            alive = weakref.ref(hidden)
            (hidden * hidden).sum().backward()
            del hidden
            assert alive() is None
            assert weights.grad is not None
        finally:
            gc.enable()


class TestDropoutAndEmbedding:
    def test_dropout_identity_in_eval(self, rng_local):
        x = Tensor(rng_local.normal(size=(10, 10)))
        assert np.allclose(dropout(x, 0.5, training=False).data, x.data)
        assert np.allclose(dropout(x, 0.0, training=True).data, x.data)

    def test_dropout_scales_kept_units(self, rng_local):
        x = Tensor(np.ones((1000, 10)))
        dropped = dropout(x, 0.5, training=True, rng=rng_local)
        kept = dropped.data[dropped.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.3 < (dropped.data == 0).mean() < 0.7

    def test_embedding_lookup_and_gradient(self):
        table = Embedding(10, 4, rng=np.random.default_rng(0))
        indices = np.array([0, 3, 3, 9])
        out = table(indices)
        assert out.shape == (4, 4)
        loss = (out ** 2).sum()
        loss.backward()
        grad = table.weight.grad
        assert grad is not None
        assert np.allclose(grad[3], 2 * 2 * table.weight.data[3])  # two lookups
        assert np.allclose(grad[1], 0.0)

    def test_embedding_normalize(self):
        table = Embedding(5, 8, rng=np.random.default_rng(0), scale=10.0)
        table.normalize_(max_norm=1.0)
        norms = np.linalg.norm(table.weight.data, axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_parameter_requires_grad_inside_no_grad(self):
        with no_grad():
            p = Parameter(np.ones(3))
        assert p.requires_grad
