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
slot axes and always keeps the monomial axis whole; Jet.gradient() gives the
first partials, last axis k for d/dx_k.

One layout.  Every Jet the package forms keeps its monomial axis outermost
in memory: coeffs.T is C-contiguous, so each coefficient of each slot entry
is one contiguous block over the batch, which is what a product gathers.
The builders (Jet.zeros, Jet.constant) allocate it; products, the
recurrences, mul_variable and derivative form their outputs through the
transpose; ops with an array operand allocate it (numpy's order "F", which
a broadcast operand cannot upset), and sums and negation keep their
operands' (order "K").  Index views and truncations, a view of the leading
coefficients, keep it too.  Values a pass hands out (Jet.gradient, and the
value arrays of weylcheck.intrinsic and weylcheck.surfaces) are
C-contiguous: numpy's matmul and einsum may sum in an order that follows
the memory layout, so their readers' bits depend on it.

A product is a Cauchy product formed with elementwise numpy alone.  The
product and both recurrences below are pair sums, planned by one builder
(_plan) and summed by one kernel (_pair_sums): both operands are gathered
monomial-first (through their transposes) at every (i, j) pair, multiplied,
and the pairs summed in layers.  Layer t holds the t-th pair, in generation
order, of every output with more than t pairs; ranking the outputs by pair
count makes each later layer an in-place add into a suffix of layer 0.  So
each coefficient is the sum of its pairs in generation order, the same bits
for a point whatever batch it is in.  A product is one such step over every
output monomial.

Coefficients are stored against a graded lexicographic monomial basis; the
basis of a lower order is always a prefix of the basis of a higher order, so
truncation is a view and differentiation a gather.  The coefficient of the
monomial x^gamma is (d^gamma f) / gamma!, so derivatives are exact reads.

The reciprocal and the square root are degree recurrences, not Taylor
series of products.  With a = self, c = 1/a has c_0 = 1/a_0 and, for k of
degree >= 1, c_k = -(sum of a_i c_j over the pairs i + j = k with i != 0)
/ a_0; s = sqrt(a) has s_0 = sqrt(a_0) and s_k = (a_k - sum of s_i s_j over
the pairs with i, j != 0) / (2 s_0).  Every c_j and s_j read has a lower
degree than k, so the plan has one step a degree: one product's worth of
pairs in all, where a series summed by Horner's rule costs `order` products.

det(rows), by Laplace expansion along the first row, is the one determinant
of a small matrix of jets: of the tangent rows' maximal minors for the unit
normal, and of the metric's cofactors for its inverse.  The empty matrix
has determinant 1, so a one-variable metric's inverse is its reciprocal.
Likewise symmetric(n, entry, out) is the one fill of a symmetric (n, n)-slot
field, jets or values: the metric, chi, the inverse metric and Ricci.

A pass differentiates each jet it reads once: the ambient jets' tangent
rows d_i X^a (weylcheck.surfaces) feed the metric, the normal's minors and
chi's second partials, and the metric's partials d_k g_ab form one table
that every Christoffel symbol reads (weylcheck.intrinsic).

A coefficient of degree d has the same bits at every order >= d: a product
sums the same pairs in the same order, and the recurrences form c_k and s_k
from the same pairs, summed in the same generation order, of coefficients
of degree below d, none of which depends on the order either.  Every step
is elementwise over the batch, so a point's coefficients are the same bits
whatever batch it is in.  So each field is formed at the order its readers
use: metric jets of order 3 for the solver and for verify's grid, whose
inverse to order 2 gives the scalar curvature's 2-jet and so its Laplacian,
from chart maps of order 4, one order higher (the metric is a product of
derivatives).
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

    # pairs[k] lists the (i, j) pairs of output monomial k in generation
    # order; the product sums all of them (module docstring).
    pairs = [[] for _ in range(count)]
    for i, gi in enumerate(monos):
        for j, gj in enumerate(monos):
            if degrees[i] + degrees[j] <= order:
                pairs[index[tuple(a + b for a, b in zip(gi, gj))]].append((i, j))

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
        derivs=tuple(derivs),
        product=_plan([dict(enumerate(pairs))]),
        recip=_recurrence(pairs, degrees, square=False),
        sqrt=_recurrence(pairs, degrees, square=True),
    )


def _plan(groups, head=()):
    """(perm, pos, steps) summing the pairs of each output, a step a group.

    groups is a sequence of {output k: its (i, j) pairs}.  A work buffer,
    monomial axis first, holds head, then each group's outputs ranked by
    pair count, fewest first: perm[p] is the output at position p, and pos
    its inverse.  A step is (lo, hi, mul_i, mul_j, layers) for rows lo:hi;
    layer t is (first, start, stop), the t-th pair of every output ranked
    first on, gathered at mul_i[start:stop] and mul_j[start:stop].
    """
    perm, steps = list(head), []
    for group in groups:
        ranked = sorted(group, key=lambda k: len(group[k]))
        mul_i, mul_j, layers = [], [], []
        for t in range(len(group[ranked[-1]])):
            first = next(r for r, k in enumerate(ranked) if len(group[k]) > t)
            layers.append((first, len(mul_i), len(mul_i) + len(ranked) - first))
            for k in ranked[first:]:
                mul_i.append(group[k][t][0])
                mul_j.append(group[k][t][1])
        steps.append((len(perm), len(perm) + len(ranked), np.array(mul_i, dtype=np.int64),
                      np.array(mul_j, dtype=np.int64), tuple(layers)))
        perm.extend(ranked)
    perm = np.array(perm, dtype=np.int64)
    pos = np.empty(perm.size, dtype=np.int64)
    pos[perm] = np.arange(perm.size)
    return perm, pos, tuple(steps)


def _recurrence(pairs, degrees, square):
    """The plan of the reciprocal's (square False) or the sqrt's (square
    True) recurrence: row 0, then a step a degree.  The reciprocal keeps the
    pairs (i, j) with i != 0, i reading the input and j the output; sqrt
    keeps those with i, j != 0.  Reads of the output index buffer positions.
    """
    groups = [{k: [(i, j) for i, j in pairs[k] if i != 0 and (j != 0 or not square)]
               for k in range(len(pairs)) if degrees[k] == d}
              for d in range(1, int(degrees.max()) + 1)]
    perm, pos, steps = _plan(groups, head=(0,))
    return perm, pos, tuple((lo, hi, pos[mul_i] if square else mul_i, pos[mul_j], layers)
                            for lo, hi, mul_i, mul_j, layers in steps)


def _pair_sums(left, right, step):
    """The rows of step summed from left and right (monomial axis first):
    both gathered at its pairs and multiplied, each later layer added in
    place into a suffix of layer 0, the view returned."""
    lo, hi, mul_i, mul_j, layers = step
    prod = left.take(mul_i, axis=0) * right.take(mul_j, axis=0)
    out = prod[: hi - lo]
    for first, start, stop in layers[1:]:
        out[first:] += prod[start:stop]
    return out


def basis_monomials(nvars, order):
    """The exponent tuples indexing jet coefficients, in storage order."""
    return _basis(nvars, order).monos


def _sum(terms):
    """The terms (Jets or arrays) added in order, with no zero to start."""
    terms = iter(terms)
    return sum(terms, next(terms))


def det(rows):
    """Determinant of a square list of rows of Jets (or arrays), expanded
    along the first row down to 1 x 1: the terms rows[0][j] * minor are
    added in order of j, with alternating signs; 1 for no rows."""
    if not rows:
        return 1.0
    if len(rows) == 1:
        return rows[0][0]
    out = None
    for j, entry in enumerate(rows[0]):
        term = entry * det([row[:j] + row[j + 1:] for row in rows[1:]])
        out = term if out is None else out - term if j % 2 else out + term
    return out


def symmetric(n, entry, out):
    """Fill out[..., i, j] and out[..., j, i] with entry(i, j) for i <= j,
    calling entry once a pair in row order; out is a slot Jet and entry
    gives Jets, or out is an array and entry gives values.  Returns out."""
    for i in range(n):
        for j in range(i, n):
            out[..., i, j] = out[..., j, i] = entry(i, j)
    return out


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
        coeffs = np.zeros(value.shape + (b.count,), order="F")
        coeffs[..., 0] = value
        return cls(nvars, order, coeffs)

    @classmethod
    def zeros(cls, batch_shape, slots, nvars, order):
        """Zero jet with batch axes batch_shape + slots, its monomial axis
        outermost in memory, as every Jet's (module docstring)."""
        shape = tuple(batch_shape) + tuple(slots) + (_basis(nvars, order).count,)
        return cls(nvars, order, np.zeros(shape, order="F"))

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

    def gradient(self):
        """The first partials, batch_shape + (nvars,), last axis k for d/dx_k,
        a C-contiguous array as every value a pass hands out."""
        unit = np.eye(self.nvars, dtype=int)
        return np.ascontiguousarray(np.stack([self.partial(u) for u in unit], -1))

    def truncate(self, order):
        """The jet at a lower order: a view of the leading coefficients, as
        a lower order's basis is a prefix of a higher one's."""
        if order > self.order:
            raise ValueError("cannot raise a jet's order by truncation")
        return Jet(self.nvars, order, self.coeffs[..., : _basis(self.nvars, order).count])

    def derivative(self, var):
        """Jet of the partial derivative with respect to variable var."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        b = _basis(self.nvars, self.order)
        src, fac = b.derivs[var]
        out = self.coeffs.T.take(src, axis=0)
        out *= fac.reshape(fac.shape + (1,) * (out.ndim - 1))
        return Jet(self.nvars, self.order - 1, out.T)

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
        shape = np.broadcast_shapes(self.coeffs.shape, other.shape + (1,))
        out = np.array(np.broadcast_to(self.coeffs, shape), order="F")
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
            _, pos, (step,) = b.product
            out = _pair_sums(x.T, y.T, step)
            return Jet(self.nvars, self.order, out.take(pos, axis=0).T)
        other = np.asarray(other, dtype=float)
        return Jet(self.nvars, self.order, np.multiply(self.coeffs, other[..., None], order="F"))

    def mul_variable(self, value, index):
        """self * Jet.variable(value, index, ...), formed without a product:
        its coefficient of x^k is value c_k + c_(k - e_index), the bits of
        that product up to the sign of a zero."""
        c = self.coeffs.T
        out = c * np.asarray(value, dtype=float).T
        if self.order >= 1:
            src = _basis(self.nvars, self.order).derivs[index][0]
            out[src] += c[: src.size]
        return Jet(self.nvars, self.order, out.T)

    def __rmul__(self, other):
        return self.__mul__(other)

    # ------------------------------------------------------------- analytic

    def _recurrence(self, square):
        """1/self (square False) or sqrt(self) (square True): row 0 of a
        monomial-first buffer is c_0 or s_0, then each degree's rows are its
        pair sums, made coefficients by the recurrence's last step."""
        b = _basis(self.nvars, self.order)
        perm, pos, steps = b.sqrt if square else b.recip
        a = self.coeffs.T
        out = np.empty(a.shape)
        out[0] = np.sqrt(a[0]) if square else 1.0 / a[0]
        den = 2.0 * out[0] if square else -a[0]
        left = out if square else a
        for step in steps:
            lo, hi, _, _, layers = step
            rows = out[lo:hi]
            rows[...] = _pair_sums(left, out, step) if layers else 0.0
            if square:
                np.subtract(a.take(perm[lo:hi], axis=0), rows, out=rows)
            rows /= den
        return Jet(self.nvars, self.order, out.take(pos, axis=0).T)

    def reciprocal(self):
        """1/self: c_0 = 1/a_0, then c_k = -(sum of a_i c_j over the pairs
        i + j = k with i != 0) / a_0."""
        if np.any(self.value == 0.0):
            raise ZeroDivisionError("jet constant term is zero")
        return self._recurrence(square=False)

    def sqrt(self):
        """sqrt(self): s_0 = sqrt(a_0), then s_k = (a_k - sum of s_i s_j over
        the pairs i + j = k with i, j != 0) / (2 s_0)."""
        if np.any(self.value <= 0.0):
            raise DomainError("jet sqrt needs a positive constant term")
        return self._recurrence(square=True)

    def __repr__(self):
        return f"Jet(nvars={self.nvars}, order={self.order}, batch={self.batch_shape})"
