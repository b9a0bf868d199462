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
for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

KINDS = ("rbf", "linear", "rational-quadratic")


@dataclass(frozen=True)
class KernelSpec:
    """Parameter record for a positive semi-definite kernel.

    Parameters the chosen kind does not use are ignored (a linear kernel
    carries no parameters at all).  Parameters the kind does use must be
    strictly positive.
    """

    kind: str = "rbf"
    width: float = 1.0
    rq_alpha: float = 1.0
    rq_length: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "rbf" and not self.width > 0:
            raise ValueError(f"rbf width must be positive, got {self.width}")
        if self.kind == "rational-quadratic":
            if not self.rq_alpha > 0:
                raise ValueError(f"rational-quadratic alpha must be positive, got {self.rq_alpha}")
            if not self.rq_length > 0:
                raise ValueError(f"rational-quadratic length must be positive, got {self.rq_length}")


def kernel_to_dict(spec: KernelSpec) -> dict:
    """JSON-ready mapping ``{"kind", "w", "alpha", "length"}``."""
    return {
        "kind": spec.kind,
        "w": spec.width,
        "alpha": spec.rq_alpha,
        "length": spec.rq_length,
    }


def kernel_from_dict(obj: dict) -> KernelSpec:
    """Inverse of :func:`kernel_to_dict`; missing parameters default to 1."""
    return KernelSpec(
        kind=obj["kind"],
        width=float(obj.get("w", 1.0)),
        rq_alpha=float(obj.get("alpha", 1.0)),
        rq_length=float(obj.get("length", 1.0)),
    )


def _as_point(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"{name} must be a 1-d point, got shape {x.shape}")
    return x


def _check_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = _as_point(x, "x")
    y = _as_point(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: x has {x.size} components, y has {y.size}")
    return x, y


def _kernel_core(spec: KernelSpec, A: np.ndarray, B: np.ndarray, grad: bool = False):
    """Kernel matrix K[i, j] = k(a_i, b_j), and with `grad` the matrix J
    whose row j is the gradient of k(., b_j) at the single point A[0].

    Each kind is a profile of one scalar per pair: the dot product for
    linear, the squared distance (direct differences, so no cancellation
    between nearby points) otherwise.  J is the profile's derivative times
    the gradient of that scalar.  Returns (K, J), J None without `grad`.
    """
    if spec.kind == "linear":
        # einsum sums every pair in the same order: the Gram matrix is exactly
        # symmetric and each of its rows equals the single-point vector
        K = np.einsum("ik,jk->ij", A, B)
        return K, (B.copy() if grad else None)
    sq = cdist(A, B, "sqeuclidean")
    if spec.kind == "rbf":
        K = np.exp(-spec.width * sq)
        dK = -spec.width * K if grad else None
    else:
        base = 1.0 + sq / (2.0 * spec.rq_alpha * spec.rq_length**2)
        K = base**-spec.rq_alpha
        dK = -0.5 * base ** -(spec.rq_alpha + 1.0) / spec.rq_length**2 if grad else None
    return K, ((2.0 * dK[0])[:, None] * (A[0] - B) if grad else None)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x, y = _check_pair(x, y)
    return float(_kernel_core(spec, x[None], y[None])[0][0, 0])


def kernel_grad_x(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of k(., y) at x.

    For the translation-invariant kinds (rbf, rational-quadratic) this is
    antisymmetric under swapping the arguments:
    kernel_grad_x(x, y) = -kernel_grad_x(y, x).
    """
    x, y = _check_pair(x, y)
    return _kernel_core(spec, x[None], y[None], grad=True)[1][0]


def _as_matrix(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {X.shape}")
    return X


def _check_cross(x0, points) -> tuple[np.ndarray, np.ndarray]:
    x0 = _as_point(x0, "x0")
    P = _as_matrix(points, "points")
    if P.shape[1] != x0.size:
        raise ValueError(f"dimension mismatch: x0 has {x0.size} components, points have {P.shape[1]}")
    return x0, P


def kernel_vector(spec: KernelSpec, x0, points) -> np.ndarray:
    """Vector of kernel values (k(x0, p_1), ..., k(x0, p_n))."""
    x0, P = _check_cross(x0, points)
    return _kernel_core(spec, x0[None], P)[0][0]


def kernel_gram(spec: KernelSpec, points) -> np.ndarray:
    """Gram matrix K_ij = k(p_i, p_j); exactly symmetric, row i equal to
    kernel_vector(spec, p_i, points)."""
    P = _as_matrix(points, "points")
    return _kernel_core(spec, P, P)[0]


def kernel_grad_matrix(spec: KernelSpec, x0, points) -> np.ndarray:
    """Stacked gradients; row i is the gradient of k(., p_i) at x0."""
    x0, P = _check_cross(x0, points)
    return _kernel_core(spec, x0[None], P, grad=True)[1]
