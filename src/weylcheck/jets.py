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

A product is a Cauchy product formed with elementwise numpy alone: both
operands are gathered monomial-first (through their transposes) at every
(i, j) monomial pair of total degree <= order, multiplied, and the pairs are
summed in layers.  Layer t holds the t-th pair, in generation order, of every
output monomial with more than t pairs; ranking the outputs by pair count
makes each later layer an in-place add into a suffix of layer 0.  So each
coefficient is the sum of its pairs in generation order, the same bits for a
point whatever batch it is in.  Product outputs are monomial-major: the
monomial axis is outermost in memory, so each coefficient is one contiguous
block, which is what the next product gathers.

Coefficients are stored against a graded lexicographic monomial basis; the
basis of a lower order is always a prefix of the basis of a higher order, so
truncation and differentiation are cheap slices.  The coefficient of the
monomial x^gamma is (d^gamma f) / gamma!, so derivatives are exact reads.

A coefficient of degree d has the same bits at every order >= d: a product
sums the same pairs in the same order, and the series terms of reciprocal
and sqrt beyond degree d multiply the exact-zero constant term of
(self - value).  So each field is formed at the order its readers use: metric
jets of order 4 for the scalar-curvature Laplacian, order 3 for the solver,
from chart maps one order higher (the metric is a product of derivatives).
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

    # Product layers (module docstring): pairs[k] lists the (i, j) pairs of
    # output monomial k in generation order; layer t is (first, start, stop),
    # its products prod[start:stop] adding into the outputs ranked first on.
    pairs = [[] for _ in range(count)]
    for i, gi in enumerate(monos):
        for j, gj in enumerate(monos):
            if degrees[i] + degrees[j] <= order:
                pairs[index[tuple(a + b for a, b in zip(gi, gj))]].append((i, j))
    ranked = sorted(range(count), key=lambda k: len(pairs[k]))
    rank = np.empty(count, dtype=np.int64)
    rank[ranked] = np.arange(count)
    mul_i, mul_j, layers = [], [], []
    for t in range(len(pairs[ranked[-1]])):
        first = next(r for r, k in enumerate(ranked) if len(pairs[k]) > t)
        layers.append((first, len(mul_i), len(mul_i) + count - first))
        for k in ranked[first:]:
            mul_i.append(pairs[k][t][0])
            mul_j.append(pairs[k][t][1])

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
        mul_i=np.array(mul_i, dtype=np.int64),
        mul_j=np.array(mul_j, dtype=np.int64),
        layers=tuple(layers[1:]),
        rank=rank,
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
            x, y = self.coeffs, other.coeffs
            # .T reverses the axes, so pad the operand with fewer batch axes
            # on the left first, or the transposed batch axes would misalign.
            if x.ndim < y.ndim:
                x = x.reshape((1,) * (y.ndim - x.ndim) + x.shape)
            elif y.ndim < x.ndim:
                y = y.reshape((1,) * (x.ndim - y.ndim) + y.shape)
            prod = x.T.take(b.mul_i, axis=0) * y.T.take(b.mul_j, axis=0)
            out = prod[: b.count]
            for first, start, stop in b.layers:
                out[first:] += prod[start:stop]
            return Jet(self.nvars, self.order, out.take(b.rank, axis=0).T)
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
            raise TypeError("jet powers must be integers; use sqrt for the rest")
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

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, batch={self.batch_shape})"
