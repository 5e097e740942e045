"""A small reverse-mode automatic differentiation engine over numpy arrays.

This module is the computational core of the GML framework substrate.  The
paper's pipelines rely on PyTorch (through PyG/DGL); since the reproduction
is pure-Python, :class:`Tensor` provides the minimal set of differentiable
operations the GNN layers and KGE models need:

* element-wise arithmetic with broadcasting,
* dense ``matmul`` and *sparse* ``spmm`` (a constant ``scipy.sparse`` matrix
  times a dense tensor — the workhorse of message passing),
* activations (ReLU, sigmoid, tanh, leaky ReLU), softmax / log-softmax,
* reductions (sum, mean), indexing (gather rows), concatenation, dropout,
* an :class:`Embedding` table with scatter-add gradients.

Gradients are accumulated with standard reverse-mode topological traversal.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import AutogradError, ShapeError

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "zeros",
    "ones",
    "tensor",
    "spmm",
    "concatenate",
    "stack",
    "gather_rows",
    "dropout",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "Embedding",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling gradient tracking (used for inference)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data.astype(np.float64, copy=False)
    return np.asarray(data, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __array_priority__ = 100  # numpy should defer to Tensor operators

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 children: Tuple["Tensor", ...] = (),
                 backward_fn: Optional[Callable[[np.ndarray], None]] = None,
                 name: str = "") -> None:
        self.data = _as_array(data)
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._children = children
        self._backward_fn = backward_fn
        self.name = name

    # -- basic properties ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad_flag})"

    # -- autograd machinery ----------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor."""
        if grad is None:
            if self.data.size != 1:
                raise AutogradError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def build(node: Tensor) -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for child in node._children:
                build(child)
            topo.append(node)

        build(self)
        # ``build`` refers to itself through its closure cell.  Deleting it
        # breaks that cycle, so ``topo`` — every tensor of the graph — is
        # freed when this call returns, not whenever the cyclic garbage
        # collector next runs.
        del build
        grads = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward_fn is None:
                continue
            child_grads = node._backward_fn(node_grad)
            if child_grads is None:
                continue
            for child, child_grad in zip(node._children, child_grads):
                if child_grad is None:
                    continue
                if not (child.requires_grad or child._backward_fn is not None or child._children):
                    continue
                existing = grads.get(id(child))
                grads[id(child)] = child_grad if existing is None else existing + child_grad

    # -- helpers to build result tensors ---------------------------------------
    @staticmethod
    def _result(data: np.ndarray, children: Tuple["Tensor", ...],
                backward_fn: Callable[[np.ndarray], Optional[Tuple]]) -> "Tensor":
        needs_grad = _GRAD_ENABLED and any(
            c.requires_grad or c._backward_fn is not None or c._children for c in children
        )
        if not needs_grad:
            return Tensor(data)
        return Tensor(data, requires_grad=False, children=children, backward_fn=backward_fn)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.data.shape),
                    _unbroadcast(grad, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)
        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad, self.data.shape),
                    _unbroadcast(-grad, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad * other_t.data, self.data.shape),
                    _unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray):
            return (_unbroadcast(grad / other_t.data, self.data.shape),
                    _unbroadcast(-grad * self.data / (other_t.data ** 2),
                                 other_t.data.shape))

        return Tensor._result(out_data, (self, other_t), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._result(out_data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        if self.data.shape[-1] != other.data.shape[0]:
            raise ShapeError(
                f"matmul shape mismatch: {self.data.shape} @ {other.data.shape}")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray):
            return (grad @ other.data.T, self.data.T @ grad)

        return Tensor._result(out_data, (self, other), backward)

    __matmul__ = matmul

    # -- shaping ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(original),)

        return Tensor._result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (grad.T,)
        return Tensor._result(self.data.T, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._result(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray):
            grad_arr = np.asarray(grad)
            if axis is not None and not keepdims:
                grad_arr = np.expand_dims(grad_arr, axis=axis)
            return (np.broadcast_to(grad_arr, self.data.shape).copy(),)

        return Tensor._result(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- element-wise functions -------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = (self.data > 0).astype(np.float64)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._result(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = np.where(self.data > 0, 1.0, negative_slope)

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._result(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward(grad: np.ndarray):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._result(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._result(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray):
            return (grad * out_data,)

        return Tensor._result(out_data, (self,), backward)

    def log(self, eps: float = 1e-12) -> "Tensor":
        out_data = np.log(self.data + eps)

        def backward(grad: np.ndarray):
            return (grad / (self.data + eps),)

        return Tensor._result(out_data, (self,), backward)

    def clip_norm(self, max_norm: float) -> "Tensor":
        """L2-normalise rows whose norm exceeds ``max_norm`` (no gradient path)."""
        norms = np.linalg.norm(self.data, axis=-1, keepdims=True)
        scale = np.minimum(1.0, max_norm / np.maximum(norms, 1e-12))
        return Tensor(self.data * scale)


class Parameter(Tensor):
    """A tensor that is always a leaf requiring gradients (model weights)."""

    def __init__(self, data: ArrayLike, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.requires_grad = True  # Parameters track gradients even under no_grad()


# ---------------------------------------------------------------------------
# Free functions
# ---------------------------------------------------------------------------

def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor (A @ X).

    The sparse matrix carries no gradient; the gradient w.r.t. ``dense`` is
    ``A.T @ grad``.  This is the message-passing primitive used by every GNN
    layer in the framework.
    """
    if not sp.issparse(matrix):
        raise AutogradError("spmm expects a scipy sparse matrix")
    csr = matrix.tocsr()
    out_data = csr @ dense.data

    def backward(grad: np.ndarray):
        return (csr.T @ grad,)

    return Tensor._result(out_data, (dense,), backward)


def gather_rows(source: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of ``source``.

    The gradient scatters back as one sparse product: a ``rows x n`` CSR
    matrix with a 1 at ``(indices[i], i)`` times the ``n`` gradient rows.
    Each matrix row lists its columns in increasing ``i``, so a repeated
    index accumulates in the same order, and to the same bits, as
    ``np.add.at``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = source.data[indices]

    def backward(grad: np.ndarray):
        rows, *row_shape = source.data.shape
        flat = indices.reshape(-1)
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=rows), out=indptr[1:])
        scatter = sp.csr_matrix(
            (np.ones(flat.size), np.argsort(flat, kind="stable"), indptr),
            shape=(rows, flat.size))
        full = scatter @ grad.reshape(flat.size, int(np.prod(row_shape)))
        return (full.reshape(source.data.shape),)

    return Tensor._result(out_data, (source,), backward)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    arrays = [t.data for t in tensors]
    out_data = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]

    def backward(grad: np.ndarray):
        pieces = np.split(grad, np.cumsum(sizes)[:-1], axis=axis)
        return tuple(pieces)

    return Tensor._result(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis) for p in pieces)

    return Tensor._result(out_data, tuple(tensors), backward)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor._result(x.data * mask, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._result(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    probs = np.exp(out_data)

    def backward(grad: np.ndarray):
        return (grad - probs * grad.sum(axis=axis, keepdims=True),)

    return Tensor._result(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N x C) and integer ``targets`` (N,)."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError("cross_entropy expects 2-D logits")
    n = logits.shape[0]
    if n == 0:
        return Tensor(0.0)
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(n), targets]
    if weight is not None:
        picked = picked * Tensor(weight)
        return -(picked.sum() / float(weight.sum()))
    return -(picked.mean())


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Numerically stable mean BCE over arbitrary-shaped logits."""
    targets_t = Tensor(np.asarray(targets, dtype=np.float64))
    x = logits
    # Stable formulation: log(1 + exp(-|x|)) + max(x, 0) - x * y,
    # with |x| = relu(x) + relu(-x) and max(x, 0) = relu(x) so the whole
    # expression stays differentiable through the autograd graph.
    relu_x = x.relu()
    abs_x = relu_x + (-x).relu()
    softplus = (Tensor(1.0) + (-abs_x).exp()).log()
    loss = softplus + relu_x - x * targets_t
    return loss.mean()


class Embedding:
    """A learnable lookup table (entities / relations in KGE models)."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None,
                 scale: Optional[float] = None, name: str = "embedding") -> None:
        rng = rng or np.random.default_rng(0)
        if scale is None:
            scale = 6.0 / np.sqrt(dim)
        data = rng.uniform(-scale, scale, size=(num_embeddings, dim))
        self.weight = Parameter(data, name=name)
        self.num_embeddings = num_embeddings
        self.dim = dim

    def __call__(self, indices: np.ndarray) -> Tensor:
        return gather_rows(self.weight, indices)

    def parameters(self) -> List[Parameter]:
        return [self.weight]

    def normalize_(self, max_norm: float = 1.0) -> None:
        """In-place row L2 normalisation (TransE-style constraint)."""
        norms = np.linalg.norm(self.weight.data, axis=1, keepdims=True)
        norms = np.maximum(norms, 1e-12)
        self.weight.data = self.weight.data / norms * np.minimum(norms, max_norm)
