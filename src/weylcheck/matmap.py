"""The symmetric-matrix map A -> tr(A) A - A^2 and the determinant family
that controls its invertibility.

The map sends positive definite matrices into the cone of positive definite
matrices whose largest eigenvalue is less than the sum of the others; on that
cone it has a unique positive definite inverse.  For 3x3 input the inverse is
in closed form; larger sizes use a damped Newton iteration on the diagonal
system, which is well posed because its Jacobian is exactly the matrix G_n
whose determinant is shown positive below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError
from .symfun import MultiIndex, sigma

_SYM_TOL = 1e-8


class SymMatrix:
    """Dense real symmetric matrix with a cached spectral decomposition."""

    def __init__(self, mat):
        m = np.array(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > _SYM_TOL * scale:
            raise ValueError("matrix is not symmetric")
        self.mat = 0.5 * (m + m.T)

    @property
    def dim(self):
        return self.mat.shape[0]

    @cached_property
    def _eig(self):
        w, q = np.linalg.eigh(self.mat)
        return w[::-1].copy(), q[:, ::-1].copy()

    @property
    def eigenvalues(self):
        """Eigenvalues in descending order."""
        return self._eig[0]

    @property
    def eigenvectors(self):
        """Orthonormal eigenvectors as columns, matching .eigenvalues."""
        return self._eig[1]

    def norm(self):
        """sqrt(sum of squared eigenvalues) == Frobenius norm."""
        return float(np.linalg.norm(self.mat, "fro"))

    @property
    def is_spd(self):
        return bool(self.eigenvalues[-1] > 0)

    def __repr__(self):
        return f"SymMatrix({self.mat!r})"


def _as_sym(a):
    return a if isinstance(a, SymMatrix) else SymMatrix(a)


def phi(a):
    """tr(A) A - A^2."""
    a = _as_sym(a)
    m = a.mat
    return SymMatrix(np.trace(m) * m - m @ m)


@dataclass(frozen=True)
class ConeReport:
    eigenvalues: np.ndarray      # descending
    is_spd: bool
    eps_gap: float               # min_i (sum_j mu_j - 2 mu_i)

    @property
    def member(self):
        return self.is_spd and self.eps_gap > 0


def cone_report(b):
    """Membership data for the image cone.

    A symmetric B belongs to the cone iff it is positive definite and every
    eigenvalue is less than the sum of the others, i.e. eps_gap > 0.
    """
    b = _as_sym(b)
    mu = b.eigenvalues
    gap = float(np.min(mu.sum() - 2.0 * mu))
    return ConeReport(eigenvalues=mu, is_spd=bool(mu[-1] > 0), eps_gap=gap)


def _gaps_closed_form_3(mu):
    """Eigenvalues lambda of the SPD inverse of phi, for eigenvalues mu
    (..., 3) in the image cone: lambda_i = sqrt(prod_j t_j / 2) / t_i with
    t_i = sum(mu) - 2 mu_i."""
    t = np.sum(mu, axis=-1, keepdims=True) - 2.0 * mu
    return np.sqrt(np.prod(t, axis=-1, keepdims=True) / 2.0) / t


def _seed_eigenvalues(mu):
    """Starting point on the correct side of each lambda_i = S/2 branch.

    With S = sum(lambda) held fixed, lambda (S - lambda) = mu_i is a
    quadratic whose upper root can be taken by at most one entry (two
    entries above S/2 would already exceed S), and comparing mu_i - mu_j
    shows that entry carries the largest mu.  When every entry takes the
    lower root, sum_i lambda_i(S) - S is strictly decreasing in S, so the
    consistency equation brackets cleanly in either regime.  Bisection
    here is deliberately coarse; Newton does the precision work.
    """
    n = mu.size
    top = int(np.argmax(mu))
    s_lo = 2.0 * math.sqrt(float(mu[top]))

    def lam_of(s, plus_top):
        root = np.sqrt(np.maximum(s * s - 4.0 * mu, 0.0))
        lam = 2.0 * mu / (s + root)  # lower branch without cancellation
        if plus_top:
            lam[top] = 0.5 * (s + root[top])
        return lam

    def excess(s, plus_top):
        return float(lam_of(s, plus_top).sum() - s)

    plus_top = excess(s_lo, False) < 0.0
    want = -1.0 if plus_top else 1.0  # sign of the excess at the bracket's low end
    lo = hi = s_lo
    for _ in range(200):
        hi *= 2.0
        if excess(hi, plus_top) * want <= 0.0:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid, plus_top) * want > 0.0:
            lo = mid
        else:
            hi = mid
    return lam_of(0.5 * (lo + hi), plus_top)


def _invert_eigenvalues_newton(mu, tol=1e-12, max_iter=100):
    """Solve lambda_i (sum(lambda) - lambda_i) = mu_i for positive lambda.

    Damped Newton on the diagonal system.  Starts from whichever of two
    seeds fits better: the scalar-calibrated guess (exact when all mu are
    equal) or the branch-aware bisection seed, which is what keeps the
    iteration out of the near-singular strip along lambda_i = 0 when the
    solution has a dominant entry.  Steps are capped to stay a fraction
    away from the positivity boundary, then halved until the residual
    norm decreases.
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    scale = max(1.0, float(np.linalg.norm(mu)))

    def residual(lam):
        s = lam.sum()
        return lam * (s - lam) - mu

    # exact for scalar matrices: mu = b gives lam = sqrt(b/(n-1)) and the
    # rescale to sqrt(n sigma_1(mu)/(n-1)) is then a no-op
    lam = np.sqrt(mu / (n - 1))
    lam *= math.sqrt(n * mu.sum() / (n - 1)) / lam.sum()
    alt = _seed_eigenvalues(mu)
    if np.linalg.norm(residual(alt)) < np.linalg.norm(residual(lam)):
        lam = alt
    r = residual(lam)
    for _ in range(max_iter):
        rnorm = np.linalg.norm(r)
        if rnorm <= tol * scale:
            return lam
        jac = np.tile(lam[:, None], (1, n))
        jac[np.diag_indices(n)] = lam.sum() - lam
        step = np.linalg.solve(jac, -r)
        neg = step < 0.0
        alpha = 1.0
        if np.any(neg):
            alpha = min(1.0, float(0.995 * np.min(-lam[neg] / step[neg])))
        while alpha >= 1e-14:
            cand = lam + alpha * step
            if np.all(cand > 0):
                rc = residual(cand)
                if np.linalg.norm(rc) < rnorm:
                    lam, r = cand, rc
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                "Newton stalled while inverting the eigenvalue system",
                residual=float(rnorm),
            )
    raise ConvergenceError(
        "Newton did not converge within the iteration cap",
        residual=float(np.linalg.norm(residual(lam))),
    )


def phi_inverse(b, tol=1e-12):
    """The unique SPD solution A of tr(A) A - A^2 = B.

    B must lie in the image cone (see cone_report); otherwise DomainError.
    """
    b = _as_sym(b)
    rep = cone_report(b)
    if not rep.member:
        raise DomainError(
            "matrix is outside the invertibility cone: "
            f"spd={rep.is_spd}, eps_gap={rep.eps_gap:.6g}"
        )
    mu = b.eigenvalues
    if b.dim == 3:
        lam = _gaps_closed_form_3(mu)
    else:
        lam = _invert_eigenvalues_newton(mu, tol=tol)
    q = b.eigenvectors
    a = SymMatrix((q * lam) @ q.T)
    res = np.linalg.norm(phi(a).mat - b.mat, "fro")
    if res > max(tol, 1e-12) * max(1.0, b.norm()) * 100:
        raise ConvergenceError("inverse verification failed", residual=float(res))
    return a


def norm_bound_sides(a):
    """Both sides of  ||A|| <= (n/2) ||phi(A)|| eps(phi(A))^{-1/2}  for SPD A."""
    a = _as_sym(a)
    if not a.is_spd:
        raise ValueError("matrix must be positive definite")
    b = phi(a)
    rep = cone_report(b)
    if rep.eps_gap <= 0:
        # cannot happen for SPD input; guard against numerics anyway
        raise DomainError(f"degenerate image gap {rep.eps_gap:.6g}")
    n = a.dim
    return a.norm(), 0.5 * n * b.norm() / math.sqrt(rep.eps_gap)


# ------------------------------------------------------------------ exact det

def _is_exact_scalar(v):
    return isinstance(v, (int, Fraction)) or (hasattr(v, "__index__") and not isinstance(v, bool))


def _det_bareiss(rows):
    """Fraction-free elimination determinant; exact for int/Fraction entries."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_dispatch(rows):
    flat = [v for row in rows for v in row]
    if all(_is_exact_scalar(v) for v in flat):
        return _det_bareiss(rows)
    return float(np.linalg.det(np.array(rows, dtype=float)))


def build_fn_matrix(s, x):
    """The n x n matrix with diagonal s - x_i and off-diagonal x_i in row i."""
    n = len(x)
    return [[(s - x[i]) if i == j else x[i] for j in range(n)] for i in range(n)]


def build_gn_matrix(x):
    """build_fn_matrix evaluated at s = sum(x)."""
    return build_fn_matrix(sum(x), x)


def det_gn_direct(x):
    """det of the G matrix by elimination.

    Exact (fraction-free elimination) when all entries are ints/Fractions,
    LU with partial pivoting otherwise.  Requires n >= 3.
    """
    if len(x) < 3:
        raise ValueError(f"G matrix needs n >= 3, got n = {len(x)}")
    return _det_dispatch(build_gn_matrix(x))


def det_gn_term_weights(gamma):
    """Magnitudes b_k = 2^(k-1) (k-2) (n-k)! sigma_k(gamma) / gamma!  for k = 3..n.

    These are the absolute values of the terms in the monomial coefficient
    below; they are nonincreasing in k, which is what makes the alternating
    sum nonnegative.
    """
    gamma = MultiIndex(gamma) if not isinstance(gamma, MultiIndex) else gamma
    n = len(gamma)
    if gamma.norm != n:
        raise ValueError(f"needs |gamma| = len(gamma) = {n}")
    gfact = gamma.factorial()
    out = {}
    for k in range(3, n + 1):
        out[k] = (
            Fraction(2 ** (k - 1) * (k - 2) * math.factorial(n - k), gfact)
            * sigma(k, gamma.entries)
        )
    return out


def det_gn_coefficients(n):
    """Monomial coefficients of det G as a polynomial in x_1..x_n.

    Returns {multi-index gamma with |gamma| = n: coefficient}, where the
    coefficient is sum_{k=3..n} (-2)^(k-1) (k-2) (n-k)! sigma_k(gamma) / gamma!.
    Every coefficient is nonnegative.
    """
    if n < 3:
        raise ValueError(f"needs n >= 3, got {n}")

    def gen(parts, total):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in gen(parts - 1, total - head):
                yield (head,) + rest

    out = {}
    for ent in gen(n, n):
        gamma = MultiIndex(ent)
        gfact = gamma.factorial()
        coeff = Fraction(0)
        for k in range(3, n + 1):
            coeff += (
                Fraction((-2) ** (k - 1) * (k - 2) * math.factorial(n - k), gfact)
                * sigma(k, ent)
            )
        out[gamma] = coeff
    return out


def fn_poly_sides(s, x):
    """Determinant route vs closed polynomial route for the F matrix.

    Returns (det F(s, x),
             s^n - sigma_1 s^(n-1) + sum_{k=3..n} (-2)^(k-1) (k-2) sigma_k s^(n-k)).
    """
    n = len(x)
    if n < 3:
        raise ValueError(f"needs n >= 3, got n = {n}")
    det = _det_dispatch(build_fn_matrix(s, x))
    poly = s ** n - sigma(1, x) * s ** (n - 1)
    for k in range(3, n + 1):
        poly += (-2) ** (k - 1) * (k - 2) * sigma(k, x) * s ** (n - k)
    return det, poly


# ------------------------------------------------------------- trace cubics

def _exact_spd_check(rows):
    # Sylvester criterion with exact determinants
    n = len(rows)
    for k in range(1, n + 1):
        minor = [row[:k] for row in rows[:k]]
        if _det_bareiss(minor) <= 0:
            return False
    return True


def chi_inequality_sides(a):
    """Both sides of  (tr A)^3 - tr(A^3) <= (3/2) ((tr A)^2 - tr(A^2)) tr A.

    A must be positive definite.  Accepts SymMatrix, float arrays, or nested
    sequences of ints/Fractions (kept exact, equality case n = 2 included).
    """
    if isinstance(a, SymMatrix):
        rows = [list(row) for row in a.mat]
        exact = False
    else:
        rows = [list(row) for row in a]
        exact = all(_is_exact_scalar(v) for row in rows for v in row)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if exact:
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
            elif abs(rows[i][j] - rows[j][i]) > _SYM_TOL * max(1.0, abs(rows[i][j])):
                raise ValueError("matrix is not symmetric")
    if exact:
        if not _exact_spd_check(rows):
            raise ValueError("matrix must be positive definite")
        m1 = rows
    else:
        arr = np.array(rows, dtype=float)
        if np.linalg.eigvalsh(arr).min() <= 0:
            raise ValueError("matrix must be positive definite")
        m1 = [list(r) for r in arr]

    def matmul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def tr(p):
        return sum(p[i][i] for i in range(n))

    m2 = matmul(m1, m1)
    m3 = matmul(m2, m1)
    t1, t2, t3 = tr(m1), tr(m2), tr(m3)
    half3 = Fraction(3, 2) if exact else 1.5
    return t1 ** 3 - t3, half3 * (t1 ** 2 - t2) * t1
