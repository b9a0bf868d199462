"""Kernel functions and their gradients with respect to the first argument.

Each kernel is described by a small immutable :class:`KernelSpec` so that
models built on top of it can be serialized without pickling callables.
Three kinds are supported:

``rbf``
    k(x, y) = exp(-w * ||x - y||^2) with precision-style parameter w.
``linear``
    k(x, y) = x . y (parameter free).
``rational-quadratic``
    k(x, y) = (1 + ||x - y||^2 / (2 * alpha * length^2))^(-alpha).

All evaluation routines are pure functions of immutable inputs and safe
for concurrent use.  They check no input: callers pass 2-d float arrays
of one width, as the query rule (``data._query_block``) and the GP
training-set rule (``gpc._training_set``) give them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

KINDS = ("rbf", "linear", "rational-quadratic")


@dataclass(frozen=True)
class KernelSpec:
    """Parameter record for a positive semi-definite kernel.

    Parameters the chosen kind does not use are ignored (a linear kernel
    carries no parameters at all), but every parameter must be finite, so
    that the record serializes to valid JSON.  Parameters the kind does
    use must also be strictly positive.
    """

    kind: str = "rbf"
    width: float = 1.0
    rq_alpha: float = 1.0
    rq_length: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KINDS}")
        used = {"rbf": ("width",), "rational-quadratic": ("alpha", "length")}.get(self.kind, ())
        for name, value in (("width", self.width), ("alpha", self.rq_alpha), ("length", self.rq_length)):
            if not math.isfinite(value):
                raise ValueError(f"kernel {name} must be finite, got {value}")
            if name in used and not value > 0:
                raise ValueError(f"{self.kind} {name} must be positive, got {value}")


def kernel_to_dict(spec: KernelSpec) -> dict:
    """JSON-ready mapping ``{"kind", "w", "alpha", "length"}``."""
    return {
        "kind": spec.kind,
        "w": spec.width,
        "alpha": spec.rq_alpha,
        "length": spec.rq_length,
    }


def kernel_from_dict(obj: dict) -> KernelSpec:
    """Inverse of :func:`kernel_to_dict`; missing parameters default to 1,
    and a missing kind or a key kernel_to_dict does not write is an error."""
    if "kind" not in obj or not set(obj) <= {"kind", "w", "alpha", "length"}:
        raise ValueError(f"kernel JSON takes 'kind' and optionally 'w', 'alpha', 'length'; got keys {sorted(obj)}")
    return KernelSpec(
        kind=obj["kind"],
        width=float(obj.get("w", 1.0)),
        rq_alpha=float(obj.get("alpha", 1.0)),
        rq_length=float(obj.get("length", 1.0)),
    )


def _kernel_core(spec: KernelSpec, A: np.ndarray, B: np.ndarray, grad: bool = False):
    """Kernel matrix K[i, j] = k(a_i, b_j), and with `grad` the q x n x d
    tensor J whose entry [i, j] is the gradient of k(., b_j) at a_i.

    Each kind is a profile of one scalar per pair: the dot product for
    linear, the squared distance (direct differences, so no cancellation
    between nearby points) otherwise.  J is the profile's derivative times
    the gradient of that scalar, scaled in place in its one buffer.  Every
    entry depends on its own pair only, so a row of A gives the same bits
    in any block.  Returns (K, J), J None without `grad`.
    """
    if spec.kind == "linear":
        # einsum sums every pair in the same order: the Gram matrix is exactly
        # symmetric and each of its rows equals the single-point vector
        K = np.einsum("ik,jk->ij", A, B)
        return K, (np.repeat(B[None], len(A), axis=0) if grad else None)
    sq = cdist(A, B, "sqeuclidean")
    if spec.kind == "rbf":
        K = np.exp(np.multiply(sq, -spec.width, out=sq), out=sq)  # in sq's buffer
        dK = -spec.width * K if grad else None
    else:
        # 1 + sq / (2 alpha l^2), then the derivative -0.5 base^-(alpha + 1) / l^2,
        # each in sq's buffer by the textbook form's operations in its order
        base = np.add(np.divide(sq, 2.0 * spec.rq_alpha * spec.rq_length**2, out=sq), 1.0, out=sq)
        K = base**-spec.rq_alpha
        if grad:
            dK = base
            dK **= -(spec.rq_alpha + 1.0)
            dK *= -0.5
            dK /= spec.rq_length**2
    if not grad:
        return K, None
    # the differences go into a copy of the query rows: a broadcast
    # subtraction would also take ufunc buffers beside J
    J = np.repeat(A[:, None, :], len(B), axis=1)
    J -= B
    dK *= 2.0
    J *= dK[:, :, None]
    return K, J


def kernel_vector(spec: KernelSpec, X, points) -> np.ndarray:
    """Kernel values K[i, j] = k(x_i, p_j) at the rows of a q x d block X."""
    return _kernel_core(spec, X, points)[0]


def kernel_gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix K_ij = k(p_i, p_j); exactly symmetric, row i equal to
    kernel_vector(spec, points[i:i + 1], points)[0]."""
    return _kernel_core(spec, points, points)[0]


def kernel_grad_matrix(spec: KernelSpec, X, points):
    """kernel_vector's K at the rows of a q x d block X, and the q x n x d
    tensor J whose entry [i, j] is the gradient of k(., p_j) at x_i, from
    one kernel pass."""
    return _kernel_core(spec, X, points, grad=True)


def kernel_diag(spec: KernelSpec, X):
    """k(x, x) at every row x of the block X, and the gradients of x -> k(x, x)."""
    if spec.kind == "linear":
        return np.einsum("ik,ik->i", X, X), 2.0 * X
    return np.ones(len(X)), np.zeros_like(X)  # both profiles are 1 at distance 0
