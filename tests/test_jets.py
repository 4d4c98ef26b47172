import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coefficient, jet_exp, series_reciprocal, series_sqrt
from weylcheck.errors import DomainError
from weylcheck.jets import MAX_ORDER, Jet, basis_monomials, det, symmetric


def make_xyz(point, order=4):
    return [Jet.variable(point[i], i, 3, order) for i in range(3)]


def poly_f(x, y, z):
    # generic polynomial exercised throughout; plain ops only
    return x * x * y - 2.0 * z * z * z + x * y * z + 3.0 * y - 1.5


def test_basis_prefix_property():
    lo = basis_monomials(3, 3)
    hi = basis_monomials(3, 5)
    assert hi[: len(lo)] == lo


def test_basis_counts():
    # C(order + nvars, nvars) monomials of total degree <= order
    assert len(basis_monomials(3, 4)) == math.comb(7, 3)
    assert len(basis_monomials(2, 6)) == math.comb(8, 2)
    assert len(basis_monomials(1, 0)) == 1


def test_polynomial_partials_exact():
    x, y, z = make_xyz((1.0, -2.0, 0.5))
    f = poly_f(x, y, z)
    assert f.value == pytest.approx(-2.0 - 2.0 * 0.125 + 1.0 * -2.0 * 0.5 + 3.0 * (-2.0) - 1.5)
    # d/dx = 2xy + yz, d/dy = x^2 + xz + 3, d/dz = -6z^2 + xy
    assert f.partial((1, 0, 0)) == pytest.approx(2 * 1 * -2 + -2 * 0.5)
    assert f.partial((0, 1, 0)) == pytest.approx(1 + 0.5 + 3)
    assert f.partial((0, 0, 1)) == pytest.approx(-6 * 0.25 + -2)
    assert f.partial((1, 1, 1)) == pytest.approx(1.0)
    assert f.partial((0, 0, 3)) == pytest.approx(-12.0)
    assert f.partial((0, 0, 2)) == pytest.approx(-6.0)


def central_diff(fn, point, gamma, h=1e-3):
    """Nested central differences for a mixed partial."""
    point = np.asarray(point, dtype=float)
    vars_with_mult = [i for i, g in enumerate(gamma) for _ in range(g)]

    def rec(p, todo):
        if not todo:
            return fn(p)
        v, rest = todo[0], todo[1:]
        up, dn = p.copy(), p.copy()
        up[v] += h
        dn[v] -= h
        return (rec(up, rest) - rec(dn, rest)) / (2 * h)

    return rec(point, vars_with_mult)


ANALYTIC = [
    ("exp", lambda j: jet_exp(j), np.exp, None),
    ("sqrt", lambda j: j.sqrt(), np.sqrt, "positive"),
    ("reciprocal", lambda j: j.reciprocal(), lambda t: 1.0 / t, "nonzero"),
]


@pytest.mark.parametrize("name,jfn,nfn,constraint", ANALYTIC)
def test_analytic_functions_match_finite_differences(name, jfn, nfn, constraint):
    rng = np.random.default_rng(7)
    point = np.array([0.7, -0.3, 0.4])

    def scalar(p):
        t = p[0] ** 2 + 0.5 * p[1] + 0.25 * p[2] ** 2 + 1.5
        return nfn(t)

    x, y, z = make_xyz(point)
    f = jfn(x * x + 0.5 * y + 0.25 * z * z + 1.5)
    for gamma in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1)]:
        want = central_diff(scalar, point, gamma, h=1e-4)
        got = f.partial(gamma)
        assert got == pytest.approx(want, rel=1e-5, abs=1e-5), (name, gamma)


def test_third_and_fourth_order_partials_converge():
    # exp has easy closed-form high partials through composition with x+2y
    point = np.array([0.2, -0.1, 0.0])
    x, y, _ = make_xyz(point)
    f = jet_exp(x + 2.0 * y)
    base = math.exp(point[0] + 2 * point[1])
    assert f.partial((3, 0, 0)) == pytest.approx(base, rel=1e-12)
    assert f.partial((0, 3, 0)) == pytest.approx(8 * base, rel=1e-12)
    assert f.partial((2, 2, 0)) == pytest.approx(4 * base, rel=1e-12)
    assert f.partial((1, 3, 0)) == pytest.approx(8 * base, rel=1e-12)


def test_derivative_jet_consistency():
    point = np.array([0.3, 0.6, -0.4])
    x, y, z = make_xyz(point, order=4)
    f = (x * x + y + 2.0).sqrt() * z
    fx = f.derivative(0)
    assert fx.order == 3
    for gamma in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 0)]:
        bumped = (gamma[0] + 1, gamma[1], gamma[2])
        assert fx.partial(gamma) == pytest.approx(f.partial(bumped), rel=1e-12)


def test_derivative_of_order_zero_rejected():
    c = Jet.constant(3.0, 2, 0)
    with pytest.raises(ValueError):
        c.derivative(0)


def test_truncate_drops_high_coefficients():
    x, y, z = make_xyz((1.0, 2.0, 3.0), order=4)
    f = poly_f(x, y, z)
    g = f.truncate(2)
    assert g.order == 2
    assert g.value == pytest.approx(f.value)
    assert g.partial((1, 1, 0)) == pytest.approx(f.partial((1, 1, 0)))
    with pytest.raises(ValueError):
        g.truncate(3)


def test_batched_matches_scalar_loop():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.8, 0.8, size=(5, 4, 3))
    xs = [Jet.variable(pts[..., i], i, 3, 4) for i in range(3)]
    f = (xs[0] * xs[0] + xs[1] * xs[1] + xs[2] * xs[2] + 1.0).sqrt().reciprocal()
    for a in range(5):
        for b in range(4):
            sx = [Jet.variable(pts[a, b, i], i, 3, 4) for i in range(3)]
            sf = (sx[0] * sx[0] + sx[1] * sx[1] + sx[2] * sx[2] + 1.0).sqrt().reciprocal()
            np.testing.assert_allclose(f.coeffs[a, b], sf.coeffs, rtol=1e-13, atol=1e-15)


def test_batched_constant_and_array_scalars():
    vals = np.array([1.0, 2.0, 3.0])
    x = Jet.variable(vals, 0, 2, 3)
    f = x * vals + vals  # array scalar on both mul and add
    np.testing.assert_allclose(f.value, vals * vals + vals)
    np.testing.assert_allclose(f.partial((1, 0)), vals)


def test_known_series_coefficients():
    # 1-variable sanity anchors with hand-expanded series
    x = Jet.variable(0.0, 0, 1, 3)
    np.testing.assert_allclose(((1.0 + x) * (-x + 1.0)).coeffs, [1, 0, -1, 0], atol=1e-15)
    np.testing.assert_allclose((1.0 + x).reciprocal().coeffs, [1, -1, 1, -1], rtol=1e-14)
    y = Jet.variable(0.0, 0, 1, 2)
    np.testing.assert_allclose((1.0 + y).sqrt().coeffs, [1, 0.5, -0.125], rtol=1e-14)
    a = Jet.variable(1.0, 0, 2, 2)
    b = Jet.variable(1.0, 1, 2, 2)
    ab = a * b
    assert coefficient(ab, (0, 0)) == pytest.approx(1.0)
    assert coefficient(ab, (1, 0)) == pytest.approx(1.0)
    assert coefficient(ab, (0, 1)) == pytest.approx(1.0)
    assert coefficient(ab, (1, 1)) == pytest.approx(1.0)
    assert coefficient(ab, (2, 0)) == pytest.approx(0.0)


def test_variable_jet_layout():
    j = Jet.variable(2.0, 0, 1, 2)
    np.testing.assert_allclose(j.coeffs, [2.0, 1.0, 0.0])
    c = Jet.constant(5.0, 1, 2)
    np.testing.assert_allclose(c.coeffs, [5.0, 0.0, 0.0])


def test_domain_rejections():
    x, _, _ = make_xyz((0.0, 0.0, 0.0))
    with pytest.raises(ZeroDivisionError):
        x.reciprocal()
    with pytest.raises(DomainError):
        (x - 1.0).sqrt()


def _slot_operands():
    """Two entries of a filled (2, 3)-slot Jet and that Jet, as index views
    of what Jet.zeros allocates: the operands the package's passes read."""
    rng = np.random.default_rng(7)
    slots = Jet.zeros((5,), (2, 3), 3, 4)
    assert slots.batch_shape == (5, 2, 3) and not slots.coeffs.any()
    slots.coeffs[...] = rng.uniform(0.5, 2.0, slots.coeffs.shape)
    return slots[..., 0, 1], slots[..., 1, 2], slots


LAYOUT_OPS = {
    "zeros": lambda a, b, s: Jet.zeros((5,), (2, 3), 3, 4),
    "constant": lambda a, b, s: Jet.constant(np.ones((5, 2)), 3, 4),
    "variable": lambda a, b, s: Jet.variable(np.ones(5), 1, 3, 4),
    "truncate": lambda a, b, s: a.truncate(2),
    "truncate slots": lambda a, b, s: s.truncate(4),
    "derivative": lambda a, b, s: a.derivative(1),
    "derivative slots": lambda a, b, s: s.derivative(2),
    "jet + jet": lambda a, b, s: a + b,
    "jet - jet": lambda a, b, s: a - b,
    "-jet": lambda a, b, s: -a,
    "jet + scalar": lambda a, b, s: 1.0 + a,
    "jet - array": lambda a, b, s: a - np.arange(5.0),
    "jet + broadcast array": lambda a, b, s: a + np.ones((4, 5)),
    "jet * jet": lambda a, b, s: a * b,
    "jet * slots": lambda a, b, s: a[..., None, None] * s,
    "scalar * jet": lambda a, b, s: 2.0 * a,
    "jet * array": lambda a, b, s: a * np.arange(5.0),
    "jet * broadcast array": lambda a, b, s: a * np.ones((4, 5)),
    "mul_variable": lambda a, b, s: a.mul_variable(np.ones(5), 2),
    "reciprocal": lambda a, b, s: a.reciprocal(),
    "sqrt": lambda a, b, s: a.sqrt(),
    "det": lambda a, b, s: det([[a, b], [b, a]]),
}


@pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
def test_every_jet_keeps_its_monomial_axis_outermost(op):
    # one layout (module docstring): the monomial axis has the largest stride
    # in every Jet an op forms and in its index views, and an op that
    # allocates (all but truncation, a view of the coefficient prefix) gives
    # coeffs.T C-contiguous
    jet = LAYOUT_OPS[op](*_slot_operands())
    for coeffs in (jet.coeffs, jet[..., 1:3].coeffs):
        assert coeffs.strides[-1] == max(coeffs.strides)
    if not op.startswith("truncate"):
        assert jet.coeffs.T.flags["C_CONTIGUOUS"]


def test_mismatched_jets_rejected():
    a = Jet.variable(0.0, 0, 2, 3)
    b = Jet.variable(0.0, 0, 3, 3)
    c = Jet.variable(0.0, 0, 2, 2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + c


def _product_pairs(nvars, order):
    """(i, j, k) for every monomial pair i * j = k, in generation order."""
    monos = basis_monomials(nvars, order)
    index = {m: k for k, m in enumerate(monos)}
    return [
        (i, j, index[tuple(a + b for a, b in zip(gi, gj))])
        for i, gi in enumerate(monos)
        for j, gj in enumerate(monos)
        if sum(gi) + sum(gj) <= order
    ]


def _random_jet(rng, batch, nvars, order):
    return Jet(nvars, order, rng.standard_normal(batch + (len(basis_monomials(nvars, order)),)))


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_product_matches_pair_loop(nvars, order):
    rng = np.random.default_rng(100 * nvars + order)
    f, g = (_random_jet(rng, (7,), nvars, order) for _ in range(2))
    expected = np.zeros_like(f.coeffs)
    for i, j, k in _product_pairs(nvars, order):
        expected[:, k] += f.coeffs[:, i] * g.coeffs[:, j]
    prod = f * g
    # each coefficient sums its pairs in generation order, as this loop does
    np.testing.assert_array_equal(prod.coeffs, expected)
    assert prod.coeffs[:, -1].flags["C_CONTIGUOUS"]  # monomial-major


@pytest.mark.parametrize("size", [1, 2, 3])
def test_det_matches_numpy_on_values(size):
    rng = np.random.default_rng(size)
    # diagonally dominant, so that no determinant is near a cancellation
    rows = [[_random_jet(rng, (7,), 3, 2) + (4.0 if i == j else 0.0) for j in range(size)]
            for i in range(size)]
    values = np.stack([np.stack([e.value for e in row], -1) for row in rows], -2)
    want = np.linalg.det(values)
    got = det(rows)
    assert got.order == 2
    np.testing.assert_allclose(got.value, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind", ["slot jet", "array"])
def test_symmetric_fills_both_triangles_from_one_call_a_pair(kind):
    n, rng = 3, np.random.default_rng(7)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if kind == "slot jet":
        out = Jet.zeros((5,), (n, n), 3, 2)
        made = {p: _random_jet(rng, (5,), 3, 2) for p in pairs}
    else:
        out = np.zeros((5, n, n))
        made = {p: rng.standard_normal(5) for p in pairs}
    calls = []

    def entry(i, j):
        calls.append((i, j))
        return made[i, j]

    assert symmetric(n, entry, out) is out
    assert calls == pairs
    coeffs = out.coeffs if kind == "slot jet" else out
    for i, j in pairs:
        want = made[i, j].coeffs if kind == "slot jet" else made[i, j]
        assert coeffs[:, i, j].tobytes() == coeffs[:, j, i].tobytes() == want.tobytes()


def _recurrence_loop(f, square):
    """1/f (square False) or sqrt(f) (square True) by the degree recurrence,
    one coefficient at a time, each sum over its pairs in generation order."""
    a = f.coeffs
    out = np.zeros_like(a)
    out[:, 0] = np.sqrt(a[:, 0]) if square else 1.0 / a[:, 0]
    terms = {}
    for i, j, k in _product_pairs(f.nvars, f.order):
        if i != 0 and (j != 0 or not square):
            terms.setdefault(k, []).append((i, j))
    for k in range(1, a.shape[-1]):   # graded order: every c_j is formed first
        acc = None
        for i, j in terms.get(k, []):
            t = (out if square else a)[:, i] * out[:, j]
            acc = t if acc is None else acc + t
        acc = 0.0 if acc is None else acc
        out[:, k] = (a[:, k] - acc) / (2.0 * out[:, 0]) if square else acc / -a[:, 0]
    return out


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_recurrences_match_pair_loop_and_series(nvars, order):
    rng = np.random.default_rng(100 * nvars + order)
    f = _random_jet(rng, (64,), nvars, order)
    f.coeffs[:, 0] = rng.uniform(0.5, 2.0, size=64)
    for got, series, square in ((f.reciprocal(), series_reciprocal(f), False),
                                (f.sqrt(), series_sqrt(f), True)):
        np.testing.assert_array_equal(got.coeffs, _recurrence_loop(f, square))
        assert got.coeffs[:, -1].flags["C_CONTIGUOUS"]  # monomial-major
        # the Horner series rounds differently; 1e-14 of each point's scale
        scale = np.abs(series.coeffs).max(axis=-1, keepdims=True)
        assert (np.abs(got.coeffs - series.coeffs) <= 1e-14 * scale).all()


@pytest.mark.parametrize("nvars,order", [(3, 5), (3, 4), (2, 6), (3, 1)])
def test_product_is_batch_invariant(nvars, order):
    rng = np.random.default_rng(order)
    f, g = (_random_jet(rng, (128,), nvars, order) for _ in range(2))
    inside = Jet(nvars, order, f.coeffs.copy())
    inside.coeffs[:, 0] = np.abs(f.coeffs[:, 0]) + 0.5   # in every domain
    # the product, and the reciprocal and sqrt recurrences
    for fn, f, g in ((lambda f, g: f * g, f, g),
                     (lambda f, g: f.reciprocal(), inside, g),
                     (lambda f, g: f.sqrt(), inside, g)):
        batched = {n: fn(f[:n], g[:n]).coeffs for n in (2, 13, 128)}
        for p in range(128):
            alone = fn(f[p], g[p]).coeffs
            np.testing.assert_array_equal(fn(f[p:p + 1], g[p:p + 1]).coeffs[0], alone)
            for n, coeffs in batched.items():
                if p < n:
                    np.testing.assert_array_equal(coeffs[p], alone)


@pytest.mark.parametrize("fbatch,gbatch", [((5,), (4, 5)), ((), (4, 5)), ((4, 1), (3,))])
def test_product_broadcasts_batch_axes(fbatch, gbatch):
    nvars, order = 3, 4
    rng = np.random.default_rng(7)
    f = _random_jet(rng, fbatch, nvars, order)
    g = _random_jet(rng, gbatch, nvars, order)
    # the dense formula products used to be formed with
    i, j, k = np.array(_product_pairs(nvars, order)).T
    scatter = np.zeros((k.size, f.coeffs.shape[-1]))
    scatter[np.arange(k.size), k] = 1.0
    expected = (f.coeffs[..., i] * g.coeffs[..., j]) @ scatter
    for prod in (f * g, g * f):
        assert prod.coeffs.shape == expected.shape
        np.testing.assert_allclose(prod.coeffs, expected, rtol=1e-13, atol=1e-13)


TRUNCATION_OPS = {
    "product": lambda f, g: f * g,
    "reciprocal": lambda f, g: f.reciprocal(),
    "sqrt": lambda f, g: f.sqrt(),
    "exp": lambda f, g: jet_exp(f),
}


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("op", sorted(TRUNCATION_OPS))
def test_truncation_commutes_bit_for_bit(nvars, op):
    # a coefficient of degree d has the same bits at every order >= d
    fn = TRUNCATION_OPS[op]
    rng = np.random.default_rng(nvars)
    for top in range(1, MAX_ORDER + 1):
        f, g = (_random_jet(rng, (9,), nvars, top) for _ in range(2))
        f.coeffs[..., 0] = rng.uniform(0.5, 2.0, size=9)  # inside every domain
        full = fn(f, g).coeffs
        for d in range(top):
            low = fn(f.truncate(d), g.truncate(d)).coeffs
            assert low.tobytes() == full[..., : low.shape[-1]].tobytes(), (top, d)


small =st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


@st.composite
def jets3(draw, order=3):
    vals = [draw(small) for _ in range(3)]
    x, y, z = [Jet.variable(vals[i], i, 3, order) for i in range(3)]
    coefs = [draw(small) for _ in range(6)]
    return (
        coefs[0] * x + coefs[1] * y + coefs[2] * z
        + coefs[3] * x * y + coefs[4] * z * z + coefs[5]
    )


@given(jets3(), jets3(), jets3())
@settings(max_examples=200, deadline=None)
def test_ring_axioms(f, g, h):
    lhs = ((f + g) * h).coeffs
    rhs = (f * h + g * h).coeffs
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose((f * g).coeffs, (g * f).coeffs, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(((f * g) * h).coeffs, (f * (g * h)).coeffs, rtol=1e-9, atol=1e-8)


@given(jets3())
@settings(max_examples=200, deadline=None)
def test_product_rule(f):
    g = f * f + 1.0
    fg = f * g
    for v in range(3):
        lhs = fg.derivative(v).coeffs
        rhs = (f.derivative(v) * g.truncate(2) + f.truncate(2) * g.derivative(v)).coeffs
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-8)


@given(jets3())
@settings(max_examples=150, deadline=None)
def test_sqrt_squares_back(f):
    g = f * f + 1.0
    r = g.sqrt()
    np.testing.assert_allclose((r * r).coeffs, g.coeffs, rtol=1e-9, atol=1e-8)
    recip = g.reciprocal()
    np.testing.assert_allclose((recip * g).coeffs, Jet.constant(1.0, 3, 3).coeffs, atol=1e-9)
