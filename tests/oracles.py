"""Reference implementations kept only to check the program against.

full_riemann_curvature is the curvature() of an earlier version: it fills a
whole (n, n, n, n)-slot Riemann Jet, takes Ricci as its trace and lowers the
Riemann values from that Jet.  curvature() now forms only the entries the
Ricci trace reads as jets, and Riemann from values; the two must agree in
every bit.
"""

import numpy as np

from weylcheck.intrinsic import CurvatureState, covariant_hessian
from weylcheck.jets import Jet


def full_riemann_curvature(mj) -> CurvatureState:
    n, m = mj.n, mj.order
    ro = m - 2
    gamma = mj.christoffels()
    gamma_t = gamma.truncate(ro)

    # up[..., r, s, mu, nu] = R^r_{s mu nu}, formed for mu < nu
    up = Jet.zeros(mj.batch_shape, (n, n, n, n), n, ro)
    for r in range(n):
        for s in range(n):
            for mu in range(n):
                for nu in range(mu + 1, n):
                    acc = gamma[..., r, nu, s].derivative(mu) \
                        - gamma[..., r, mu, s].derivative(nu)
                    for lam in range(n):
                        acc = acc + gamma_t[..., r, mu, lam] * gamma_t[..., lam, nu, s]
                        acc = acc - gamma_t[..., r, nu, lam] * gamma_t[..., lam, mu, s]
                    up[..., r, s, mu, nu] = acc
                    up[..., r, s, nu, mu] = -acc

    # ricci[..., s, nu] = R^mu_{s mu nu}, upper triangle mirrored
    ric = np.trace(up.coeffs, axis1=-5, axis2=-3)
    lo = np.tril_indices(n, -1)
    ric[..., lo[0], lo[1], :] = ric[..., lo[1], lo[0], :]
    ricci = Jet(n, ro, ric)

    ginv_t = mj.inverse().truncate(ro)
    scalar = None
    for s in range(n):
        for nu in range(n):
            term = ginv_t[..., s, nu] * ricci[..., s, nu]
            scalar = term if scalar is None else scalar + term

    gvals = mj.values()
    ginv_vals = np.linalg.inv(gvals)
    riemann = np.einsum("...rl,...lsmn->...rsmn", gvals, up.value)
    gamma_vals = np.ascontiguousarray(gamma.value)

    lap = None
    if m >= 4:
        _, hess = covariant_hessian(scalar, gamma_vals)
        lap = np.einsum("...ij,...ij->...", ginv_vals, hess)

    return CurvatureState(n=n, metric=gvals, metric_inv=ginv_vals,
                          christoffel=gamma_vals, riemann=riemann,
                          ricci=ricci.value, scalar=scalar.value,
                          laplacian_scalar=lap, ricci_jet=ricci)
