"""Second-order forward-mode differentiation scalars.

A :class:`Jet2` carries a value together with its gradient and Hessian with
respect to ``n`` chart variables.  Arithmetic propagates both derivative
levels through the exact second-order chain rule, so curvature tensors can be
assembled from metric component functions without symbolic algebra and
without finite-difference noise.

Values may be numpy arrays: a single ``Jet2`` then represents a whole batch
of evaluation points, with the derivative slots living on trailing axes
(``value`` has shape ``S``, ``grad`` shape ``S + (n,)``, ``hess`` shape
``S + (n, n)``).  All operations broadcast over the batch.  The elementary
functions below also take plain arrays and return plain arrays, with the
same domain guards, so a component function evaluated on plain coordinates
gives metric values alone, bit for bit the values of its jets.  The metrics
use ``sin``, ``cos`` and ``recip``; ``sqrt`` is kept because the selftest's
random jet expressions, checked against finite differences, use it.

No rule writes into an operand's arrays, and a result may share them, so a
jet's arrays are never mutated.  A variable's zero Hessian seed relies on
this: it is a read-only zero-stride view of one float, not a fresh
(..., n, n) array per variable.  A variable's gradient stays a real array;
as a view it slowed small calls.  There is no constant jet: a plain number
or array operand is a constant, and changes only the value.

Hessians are symmetric by construction: every rule below produces the (i, j)
and (j, i) entries from the same pair of products added in commuted order,
which is bit-exact in IEEE arithmetic.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ChartDomainError",
    "Jet2",
    "jet_variable",
    "value_of",
    "sin",
    "cos",
    "sqrt",
    "recip",
]


class ChartDomainError(ValueError):
    """The evaluation point left the valid open chart domain.

    Raised on division by zero, square roots of non-positive values, and by
    explicit boundary guards in metric component functions.
    """


def _as_value(x):
    return np.asarray(x, dtype=float)


class Jet2:
    """Truncated second-order Taylor data: value, gradient, Hessian."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value = _as_value(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @property
    def nvars(self) -> int:
        return self.grad.shape[-1]

    def __repr__(self):
        return f"Jet2(value={self.value!r}, nvars={self.nvars})"

    # -- arithmetic ---------------------------------------------------------
    # A plain-number operand is a constant: it changes only the value, and the
    # result shares this jet's derivative arrays, so no jet is ever mutated.

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value + _as_value(other), self.grad, self.hess)
        return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value - _as_value(other), self.grad, self.hess)
        return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __rsub__(self, other):
        return Jet2(_as_value(other) - self.value, -self.grad, -self.hess)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            c = _as_value(other)
            return Jet2(
                self.value * c,
                self.grad * c[..., None],
                self.hess * c[..., None, None],
            )
        a, b = self, other
        value = a.value * b.value
        grad = a.value[..., None] * b.grad + b.value[..., None] * a.grad
        cross = a.grad[..., :, None] * b.grad[..., None, :] \
            + b.grad[..., :, None] * a.grad[..., None, :]
        hess = a.value[..., None, None] * b.hess \
            + b.value[..., None, None] * a.hess + cross
        return Jet2(value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / _as_value(other))
        return self * recip(other)

    def __rtruediv__(self, other):
        return recip(self) * other


# One zero float in an immutable buffer: every array over it is read-only.
_ZERO = bytes(8)


def _zeros(shape) -> np.ndarray:
    """A read-only all-zero array of ``shape`` over one float, every stride 0:
    a safe seed because no rule writes into a jet's arrays.  It is
    ``np.broadcast_to(0.0, shape)`` without that function's Python-level
    checks, which slowed 16- and 64-point ``metric_jets`` calls by 10-15%."""
    return np.ndarray(shape, float, _ZERO, 0, (0,) * len(shape))


def jet_variable(index: int, value, n: int) -> Jet2:
    """Jet of the coordinate function ``x^index`` at ``value``.

    The gradient is the standard basis vector ``e_index`` and the Hessian is
    zero, a read-only view of one float.  ``value`` may be an array, giving
    a batch of evaluation points.
    """
    if not 0 <= index < n:
        raise IndexError(f"variable index {index} out of range for dimension {n}")
    v = _as_value(value)
    grad = np.zeros(v.shape + (n,))
    grad[..., index] = 1.0
    return Jet2(v, grad, _zeros(v.shape + (n, n)))


def value_of(x) -> np.ndarray:
    """The value of a jet, or a plain number or array as a float array."""
    return x.value if isinstance(x, Jet2) else _as_value(x)


def _chain(a: Jet2, f0, f1, f2) -> Jet2:
    """Second-order chain rule for a scalar function with derivatives f1, f2."""
    grad = f1[..., None] * a.grad
    outer = a.grad[..., :, None] * a.grad[..., None, :]
    hess = f1[..., None, None] * a.hess + f2[..., None, None] * outer
    return Jet2(f0, grad, hess)


def sin(a):
    if not isinstance(a, Jet2):
        return np.sin(a)
    s, c = np.sin(a.value), np.cos(a.value)
    return _chain(a, s, c, -s)


def cos(a):
    if not isinstance(a, Jet2):
        return np.cos(a)
    s, c = np.sin(a.value), np.cos(a.value)
    return _chain(a, c, -s, -c)


def sqrt(a):
    v = value_of(a)
    if np.any(v <= 0.0):
        raise ChartDomainError("sqrt of a non-positive value: point left the chart domain")
    r = np.sqrt(v)
    if not isinstance(a, Jet2):
        return r
    return _chain(a, r, 0.5 / r, -0.25 / (v * r))


def recip(a):
    v = value_of(a)
    if np.any(v == 0.0):
        raise ChartDomainError("division by zero: point left the chart domain")
    inv = 1.0 / v
    if not isinstance(a, Jet2):
        return inv
    return _chain(a, inv, -inv * inv, 2.0 * inv * inv * inv)
