"""Dense truncated multivariate Taylor arithmetic.

A Jet stores the Taylor coefficients of a smooth function at a point, up to a
fixed total degree, over at most three variables.  The coefficient array may
carry an arbitrary leading batch shape, so whole grids of points move through
the arithmetic in single numpy operations; a plain 1-d coefficient vector is
the single-point case.

Tensor fields are single Jets whose trailing batch axes are the tensor's
slots: coeffs[..., *slots, monomial], so a metric field is coeffs[..., i, j, :]
and the Christoffel symbols are christoffel[..., k, i, j] = Gamma^k_ij.
Indexing a Jet (jet[..., i, j], for reading or assignment) selects batch and
slot axes and always keeps the monomial axis whole.  Slot Jets that feed many
products are stored slot-major (Jet.zeros): the slot axes are outermost in
memory, so each entry is one contiguous block, which products gather from much
faster than from a strided view.  Truncation keeps that layout.

Coefficients are stored against a graded lexicographic monomial basis; the
basis of a lower order is always a prefix of the basis of a higher order, so
truncation and differentiation are cheap slices.  The coefficient of the
monomial x^gamma is (d^gamma f) / gamma!, so derivatives are exact reads.

Downstream code keeps metric jets at order 4 (the scalar-curvature Laplacian
needs four metric derivatives); the generating chart maps run one order higher
internally because the metric is a product of first derivatives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import DomainError

MAX_VARS = 3
MAX_ORDER = 6


@lru_cache(maxsize=None)
def _basis(nvars, order):
    if not 1 <= nvars <= MAX_VARS:
        raise ValueError(f"nvars must be in 1..{MAX_VARS}, got {nvars}")
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")

    monos = []
    for deg in range(order + 1):
        level = [
            e
            for e in np.ndindex(*((deg + 1,) * nvars))
            if sum(e) == deg
        ]
        monos.extend(sorted(level))
    index = {m: i for i, m in enumerate(monos)}
    count = len(monos)
    exps = np.array(monos, dtype=np.int64)
    degrees = exps.sum(axis=1)

    mul_i, mul_j, mul_k = [], [], []
    for i, gi in enumerate(monos):
        for j, gj in enumerate(monos):
            if degrees[i] + degrees[j] <= order:
                mul_i.append(i)
                mul_j.append(j)
                mul_k.append(index[tuple(a + b for a, b in zip(gi, gj))])
    mul_i = np.array(mul_i, dtype=np.int64)
    mul_j = np.array(mul_j, dtype=np.int64)
    scatter = np.zeros((mul_i.size, count))
    scatter[np.arange(mul_i.size), mul_k] = 1.0

    derivs = []
    if order >= 1:
        lower = [m for m in monos if sum(m) <= order - 1]
        for v in range(nvars):
            src = np.empty(len(lower), dtype=np.int64)
            fac = np.empty(len(lower))
            for t, m in enumerate(lower):
                bumped = list(m)
                bumped[v] += 1
                src[t] = index[tuple(bumped)]
                fac[t] = bumped[v]
            derivs.append((src, fac))

    return SimpleNamespace(
        monos=tuple(monos),
        index=index,
        count=count,
        mul_i=mul_i,
        mul_j=mul_j,
        scatter=scatter,
        derivs=tuple(derivs),
    )


def basis_monomials(nvars, order):
    """The exponent tuples indexing jet coefficients, in storage order."""
    return _basis(nvars, order).monos


class Jet:
    """Truncated Taylor expansion; see the module docstring."""

    __slots__ = ("nvars", "order", "coeffs")

    def __init__(self, nvars, order, coeffs):
        b = _basis(nvars, order)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[-1] != b.count:
            raise ValueError(
                f"coefficient axis has length {coeffs.shape[-1]}, expected {b.count}"
            )
        self.nvars = nvars
        self.order = order
        self.coeffs = coeffs

    # ------------------------------------------------------------- builders

    @classmethod
    def constant(cls, value, nvars, order):
        value = np.asarray(value, dtype=float)
        b = _basis(nvars, order)
        coeffs = np.zeros(value.shape + (b.count,))
        coeffs[..., 0] = value
        return cls(nvars, order, coeffs)

    @classmethod
    def zeros(cls, batch_shape, slots, nvars, order):
        """Zero jet with batch axes batch_shape + slots, stored slot-major."""
        k = len(slots)
        coeffs = np.zeros(tuple(slots) + tuple(batch_shape) + (_basis(nvars, order).count,))
        return cls(nvars, order, np.moveaxis(coeffs, tuple(range(k)), tuple(range(-k - 1, -1))))

    @classmethod
    def variable(cls, value, index, nvars, order):
        """The coordinate function x_index expanded at the point value."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} outside 0..{nvars - 1}")
        if order < 1:
            raise ValueError("a variable needs order >= 1")
        out = cls.constant(value, nvars, order)
        unit = tuple(1 if v == index else 0 for v in range(nvars))
        out.coeffs[..., _basis(nvars, order).index[unit]] = 1.0
        return out

    @classmethod
    def linear(cls, value, grad, nvars, order=1):
        """Jet with given value and first partials (higher terms zero)."""
        value = np.asarray(value, dtype=float)
        grad = np.asarray(grad, dtype=float)
        if grad.shape != value.shape + (nvars,):
            raise ValueError("gradient must have one trailing axis per variable")
        out = cls.constant(value, nvars, order)
        b = _basis(nvars, order)
        for v in range(nvars):
            unit = tuple(1 if k == v else 0 for k in range(nvars))
            out.coeffs[..., b.index[unit]] = grad[..., v]
        return out

    # ------------------------------------------------------------- accessors

    @property
    def value(self):
        return self.coeffs[..., 0]

    @property
    def batch_shape(self):
        return self.coeffs.shape[:-1]

    def coefficient(self, gamma):
        return self.coeffs[..., _basis(self.nvars, self.order).index[tuple(gamma)]]

    def partial(self, gamma):
        """Value of the partial derivative d^gamma f at the base point."""
        gamma = tuple(gamma)
        b = _basis(self.nvars, self.order)
        if sum(gamma) > self.order:
            raise ValueError(f"derivative order {sum(gamma)} exceeds jet order {self.order}")
        fac = math.prod(math.factorial(e) for e in gamma)
        return self.coeffs[..., b.index[gamma]] * fac

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot raise a jet's order by truncation")
        if order == self.order:
            return Jet(self.nvars, self.order, self.coeffs.copy(order="K"))
        b = _basis(self.nvars, order)
        return Jet(self.nvars, order, self.coeffs[..., : b.count].copy(order="K"))

    def derivative(self, var):
        """Jet of the partial derivative with respect to variable var."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        b = _basis(self.nvars, self.order)
        src, fac = b.derivs[var]
        return Jet(self.nvars, self.order - 1, self.coeffs[..., src] * fac)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            key = (key,)
        return Jet(self.nvars, self.order, self.coeffs[key + (slice(None),)])

    def __setitem__(self, key, jet):
        self._check_compatible(jet)
        if not isinstance(key, tuple):
            key = (key,)
        self.coeffs[key + (slice(None),)] = jet.coeffs

    # ------------------------------------------------------------- arithmetic

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise ValueError(
                f"jet mismatch: ({self.nvars} vars, order {self.order}) vs "
                f"({other.nvars} vars, order {other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.nvars, self.order, self.coeffs + other.coeffs)
        other = np.asarray(other, dtype=float)
        out = self.coeffs.copy()
        if other.ndim > 0:
            out = np.broadcast_to(out, np.broadcast_shapes(out.shape, other.shape + (1,))).copy()
        out[..., 0] = out[..., 0] + other
        return Jet(self.nvars, self.order, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.nvars, self.order, self.coeffs - other.coeffs)
        return self.__add__(-np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            b = _basis(self.nvars, self.order)
            prod = self.coeffs[..., b.mul_i] * other.coeffs[..., b.mul_j]
            return Jet(self.nvars, self.order, prod @ b.scatter)
        other = np.asarray(other, dtype=float)
        return Jet(self.nvars, self.order, self.coeffs * other[..., None])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        other = np.asarray(other, dtype=float)
        return Jet(self.nvars, self.order, self.coeffs / other[..., None])

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if not isinstance(p, (int, np.integer)):
            raise TypeError("jet powers must be integers; use sqrt/exp for the rest")
        if p < 0:
            return self.reciprocal() ** (-p)
        out = Jet.constant(np.ones(self.batch_shape), self.nvars, self.order)
        base = self
        p = int(p)
        while p:
            if p & 1:
                out = out * base
            base = base * base if p > 1 else base
            p >>= 1
        return out

    # ------------------------------------------------------------- analytic

    def _apply_series(self, dk):
        """sum_k dk[k] * (self - value)^k, truncated; dk[k] may be batched."""
        u = Jet(self.nvars, self.order, self.coeffs.copy())
        u.coeffs[..., 0] = 0.0
        out = Jet.constant(np.broadcast_to(dk[-1], self.batch_shape).copy(), self.nvars, self.order)
        for k in range(len(dk) - 2, -1, -1):
            out = out * u
            out.coeffs[..., 0] += dk[k]
        return out

    def reciprocal(self):
        c = self.value
        if np.any(c == 0.0):
            raise ZeroDivisionError("jet constant term is zero")
        dk = [(-1.0) ** k / c ** (k + 1) for k in range(self.order + 1)]
        return self._apply_series(dk)

    def sqrt(self):
        c = self.value
        if np.any(c <= 0.0):
            raise DomainError("jet sqrt needs a positive constant term")
        dk = []
        binom = 1.0
        for k in range(self.order + 1):
            dk.append(binom * c ** (0.5 - k))
            binom *= (0.5 - k) / (k + 1)
        return self._apply_series(dk)

    def exp(self):
        c = self.value
        dk = [np.exp(c) / math.factorial(k) for k in range(self.order + 1)]
        return self._apply_series(dk)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, batch={self.batch_shape})"
