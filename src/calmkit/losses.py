"""Smooth losses: values, analytic gradients/Hessians, Lipschitz-gradient bounds.

Five families: quadratic, structured-composite (strongly convex quadratic
applied to Ax plus a linear term), logistic, exponential, and a one-hidden-
layer sigmoid network.  The exponential and network losses have no global
gradient-Lipschitz constant; their bounds are scoped to a user box.

Each family writes f and grad f once, batched over rows (value_many,
gradient_many); single-point value and gradient are the one-row case.  Only
the network has no batched formula and loops over rows.  Logistic and
exponential are margin losses, f(x) = sum_i l((Mx)_i): each gives only its
l, l', l'' and Lipschitz bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


EPS = np.finfo(float).eps


class LossError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo_i, hi_i]^n."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def cube(n: int, lo: float, hi: float) -> "Box":
        return Box(np.full(n, float(lo)), np.full(n, float(hi)))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(np.maximum(self.lo - x, 0.0)
                                    + np.maximum(x - self.hi, 0.0)))

    def to_json(self):
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class LipschitzBound:
    value: float
    scope: str            # 'global' | 'box'
    box: Box | None = None


def _spectral_bound(M) -> float:
    """Upper bound on the largest |eigenvalue| of a symmetric matrix.

    eigvalsh is backward stable: its eigenvalues are exact for some M + E
    with ||E|| of order n eps ||M||.  Adding n eps ||M||_F covers that
    error, so the bound cannot fall below the exact spectral radius.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    diag = np.diag(M)
    if np.count_nonzero(M) == np.count_nonzero(diag):
        return float(np.max(np.abs(diag)))   # diagonal: the eigenvalues are exact
    w = np.linalg.eigvalsh(M)
    return float(max(-w[0], w[-1]) + M.shape[0] * EPS * np.linalg.norm(M))


def operator_norm(A) -> float:
    """Upper bound on the spectral norm of a rectangular matrix.

    The square root of the bound for A^T A, widened by m eps ||A||_F^2 for
    the rounding of the product itself.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    return math.sqrt(_spectral_bound(A.T @ A) + A.shape[0] * EPS * np.linalg.norm(A) ** 2)


class SmoothLoss:
    family = "abstract"
    twice_differentiable = True

    def __init__(self):
        self.n = 0

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise LossError("dimension mismatch: expected %d, got %s" % (self.n, x.shape))
        return x

    def value(self, x) -> float:
        return float(self.value_many(self._check(x)[None])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_many(self._check(x)[None])[0]

    def value_and_gradient(self, x):
        """(f(x), grad f(x)); families whose two share work override it."""
        return self.value(x), self.gradient(x)

    def value_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def gradient_many(self, X) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise LossError("Hessian not supported for family %r" % self.family)

    def lipschitz_bound(self, box: Box | None = None) -> LipschitzBound:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class QuadraticLoss(SmoothLoss):
    """f(x) = 0.5 x^T Q x + q^T x with symmetric Q."""

    family = "quadratic"

    def __init__(self, Q, q):
        self.Q = np.asarray(Q, dtype=float)
        self.q = np.asarray(q, dtype=float)
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise LossError("Q must be square")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12):
            raise LossError("Q must be symmetric")
        if self.q.shape != (self.Q.shape[0],):
            raise LossError("q has wrong length")
        self.n = self.Q.shape[0]

    def value_and_gradient(self, x):
        """One product Q x serves both; the gradient is bit-identical to
        gradient(x), the value agrees with value(x) to rounding."""
        x = self._check(x)
        y = self.Q @ x
        return float(0.5 * (y @ x) + self.q @ x), y + self.q

    def hessian(self, x):
        self._check(x)
        return self.Q.copy()

    def value_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return 0.5 * np.einsum("ij,ij->i", X @ self.Q, X) + X @ self.q

    def gradient_many(self, X):
        # X Q^T, not X Q: one row is then value_and_gradient's Q x + q, bit for bit
        return np.atleast_2d(X) @ self.Q.T + self.q

    def lipschitz_bound(self, box=None):
        return LipschitzBound(_spectral_bound(self.Q), "global")

    def to_json(self):
        return {"family": "quadratic", "Q": self.Q.tolist(), "q": self.q.tolist()}


class StructuredCompositeLoss(SmoothLoss):
    """f(x) = h(Ax) + q^T x with h(z) = 0.5 z^T H z + h0^T z strongly convex."""

    family = "structured-composite"

    def __init__(self, A, q, H, h0):
        self.A = np.asarray(A, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.H = np.asarray(H, dtype=float)
        self.h0 = np.asarray(h0, dtype=float)
        m, n = self.A.shape
        if self.H.shape != (m, m) or self.h0.shape != (m,) or self.q.shape != (n,):
            raise LossError("inconsistent structured-composite dimensions")
        if not np.allclose(self.H, self.H.T, atol=1e-12):
            raise LossError("H must be symmetric")
        if np.linalg.eigvalsh(self.H)[0] <= 0:
            raise LossError("h must be strongly convex (H positive definite)")
        self.n = n

    def hessian(self, x):
        self._check(x)
        return self.A.T @ self.H @ self.A

    def value_many(self, X):
        Z = np.atleast_2d(X) @ self.A.T
        return 0.5 * np.einsum("ki,ij,kj->k", Z, self.H, Z) + Z @ self.h0 \
            + np.atleast_2d(X) @ self.q

    def gradient_many(self, X):
        Z = np.atleast_2d(X) @ self.A.T
        return (Z @ self.H.T + self.h0) @ self.A + self.q   # H^T: one row computes H z

    def lipschitz_bound(self, box=None):
        lh = _spectral_bound(self.H)
        na = operator_norm(self.A)
        return LipschitzBound(lh * na * na, "global")

    def to_json(self):
        return {"family": "structured-composite", "A": self.A.tolist(),
                "q": self.q.tolist(), "H": self.H.tolist(), "h0": self.h0.tolist()}


class MarginLoss(SmoothLoss):
    """f(x) = sum_i l(t_i) over the margins t = M x, M = diag(d) C, with
    labels d_i = +-1.  A subclass gives l, l' and l'' as element-wise static
    methods ell, dell and ddell, and its own Lipschitz bound."""

    def __init__(self, C, d):
        self.C = np.asarray(C, dtype=float)
        self.d = np.asarray(d, dtype=float)
        if self.C.ndim != 2 or self.d.shape != (self.C.shape[0],):
            raise LossError("C rows must match labels d")
        if not np.all(np.isin(self.d, (-1.0, 1.0))):
            raise LossError("labels must be +-1")
        self.n = self.C.shape[1]
        self.M = self.d[:, None] * self.C  # rows d_i c_i

    def value_and_gradient(self, x):
        """One margin product serves both, bit-identical to (value(x), gradient(x))."""
        T = self._check(x)[None] @ self.M.T
        return float(np.sum(self.ell(T), axis=1)[0]), (self.dell(T) @ self.M)[0]

    def value_many(self, X):
        return np.sum(self.ell(np.atleast_2d(X) @ self.M.T), axis=1)

    def gradient_many(self, X):
        return self.dell(np.atleast_2d(X) @ self.M.T) @ self.M

    def hessian(self, x):
        w = self.ddell(self.M @ self._check(x))
        return (self.M * w[:, None]).T @ self.M

    def to_json(self):
        return {"family": self.family, "C": self.C.tolist(), "d": self.d.tolist()}


class LogisticLoss(MarginLoss):
    """l(t) = log(1 + e^{-t}).

    The cited scenario table carries the concave sign variant; the standard
    convex form is implemented (see README notes).
    """

    family = "logistic"

    @staticmethod
    def ell(t):
        return np.logaddexp(0.0, -t)     # log(1 + e^{-t}) computed stably

    @staticmethod
    def dell(t):
        return -(1.0 / (1.0 + np.exp(t)))    # -sigma(-t)

    @staticmethod
    def ddell(t):
        s = 1.0 / (1.0 + np.exp(t))
        return s * (1.0 - s)

    def lipschitz_bound(self, box=None):
        nm = operator_norm(self.M)
        return LipschitzBound(0.25 * nm * nm, "global")


class ExponentialLoss(MarginLoss):
    """l(t) = e^{-t}; gradient Lipschitz only on boxes."""

    family = "exponential"

    @staticmethod
    def ell(t):
        return np.exp(-t)

    @staticmethod
    def dell(t):
        return -np.exp(-t)

    @staticmethod
    def ddell(t):
        return np.exp(-t)

    def lipschitz_bound(self, box=None):
        if box is None:
            raise LossError("no global Lipschitz bound for the exponential loss; a box is required")
        # sup of sum_i e^{-t_i} ||c_i||^2 over the box, per-term via corner analysis
        total = 0.0
        for row in self.M:
            tmin = float(np.sum(np.where(row >= 0, row * box.lo, row * box.hi)))
            total += math.exp(-tmin) * float(row @ row)
        return LipschitzBound(total, "box", box)


class SigmoidNNLoss(SmoothLoss):
    """One-hidden-layer sigmoid network with l2 output loss.

    Variable layout: x = (w_1, ..., w_p, u) flattened, w_j in R^m for input
    dimension m, u in R^p.  f(x) = 0.5 sum_i (sigma(sum_j u_j sigma(w_j^T a_i)) - b_i)^2.
    """

    family = "sigmoid-nn"
    twice_differentiable = False

    SIGMA_D1_MAX = 0.25
    SIGMA_D2_MAX = 0.1   # |sigma''| <= 1/(6*sqrt(3)) ~ 0.0962

    def __init__(self, hidden: int, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise LossError("data rows must match targets")
        self.p = int(hidden)
        self.m = self.A.shape[1]
        self.n = self.p * self.m + self.p

    def _split(self, x):
        W = x[: self.p * self.m].reshape(self.p, self.m)
        u = x[self.p * self.m:]
        return W, u

    @staticmethod
    def _sigma(z):
        # exp(-z) overflows to inf for z < -709, which gives the exact limit 0
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))

    def value(self, x):
        x = self._check(x)
        W, u = self._split(x)
        Hmat = self._sigma(self.A @ W.T)        # (samples, p)
        out = self._sigma(Hmat @ u)
        return float(0.5 * np.sum((out - self.b) ** 2))

    def gradient(self, x):
        x = self._check(x)
        W, u = self._split(x)
        Z = self.A @ W.T
        Hmat = self._sigma(Z)
        s = Hmat @ u
        out = self._sigma(s)
        r = (out - self.b) * out * (1.0 - out)   # r_i * sigma'(s_i)
        gu = Hmat.T @ r
        gW = ((r[:, None] * Hmat * (1.0 - Hmat)) * u[None, :]).T @ self.A
        return np.concatenate([gW.reshape(-1), gu])

    # no batched formula: a batch is a loop over its rows
    def value_many(self, X):
        return np.array([self.value(x) for x in np.atleast_2d(X)])

    def gradient_many(self, X):
        return np.stack([self.gradient(x) for x in np.atleast_2d(X)])

    def lipschitz_bound(self, box=None):
        if box is None:
            raise LossError("no global Lipschitz bound for the network loss; a box is required")
        # conservative analytic bound from |sigma'| <= 1/4, |sigma''| <= 0.1:
        # hess(0.5 r^2) = grad r grad r^T + r hess r with r = sigma(s) - b
        u_max = float(np.max(np.abs(np.concatenate([box.lo[self.p * self.m:],
                                                    box.hi[self.p * self.m:]]))))
        total = 0.0
        for i in range(self.A.shape[0]):
            na = float(np.linalg.norm(self.A[i]))
            grad_s_sq = self.p * (1.0 + (u_max * na * self.SIGMA_D1_MAX) ** 2)
            hess_s = self.p * (2.0 * na * self.SIGMA_D1_MAX
                               + u_max * self.SIGMA_D2_MAX * na * na)
            r_max = 1.0 + abs(self.b[i])
            total += (self.SIGMA_D1_MAX ** 2) * grad_s_sq \
                + r_max * (self.SIGMA_D2_MAX * grad_s_sq + self.SIGMA_D1_MAX * hess_s)
        return LipschitzBound(total, "box", box)

    def to_json(self):
        return {"family": "sigmoid-nn", "hidden": self.p,
                "A": self.A.tolist(), "b": self.b.tolist()}


# ---------------------------------------------------------------------------
# spec-facing operations

def loss_value(loss: SmoothLoss, x) -> float:
    return loss.value(x)


def loss_gradient(loss: SmoothLoss, x) -> np.ndarray:
    return loss.gradient(x)


def loss_hessian(loss: SmoothLoss, x) -> np.ndarray:
    return loss.hessian(x)


def lipschitz_bound(loss: SmoothLoss, box: Box | None = None) -> LipschitzBound:
    return loss.lipschitz_bound(box)


def loss_from_json(d: dict) -> SmoothLoss:
    fam = d.get("family")
    if fam == "quadratic":
        return QuadraticLoss(d["Q"], d["q"])
    if fam == "structured-composite":
        return StructuredCompositeLoss(d["A"], d["q"], d["H"], d["h0"])
    if fam == "logistic":
        return LogisticLoss(d["C"], d["d"])
    if fam == "exponential":
        return ExponentialLoss(d["C"], d["d"])
    if fam == "sigmoid-nn":
        return SigmoidNNLoss(d["hidden"], d["A"], d["b"])
    raise LossError("unknown loss family %r" % fam)
