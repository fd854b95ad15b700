"""Matrix-valued second-order operator on the ball, realized through
Wirtinger finite differences, and its eigen-equation residual on the
Poisson kernel.

Conventions (fixed by finite-difference discrimination between the candidate
readings; see the module tests):
  * the coefficient matrices A = I - Z Z*, B = I - Z*Z and Z* are frozen at
    the base point; only the scalar field is differentiated;
  * the first-order term of the bottom block carries the right factor B
    (the variant with right factor A fails the eigen-equation for nu != 0
    and n >= 2, as a module test shows).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import ball_margin, poisson_kernel, validate_ball_point
from .errors import DomainError, MarginError, RangeError
from .report import CheckReport
from .special import SpectralParams

# 1e-3 fails hua_residual's tolerance at ordinary rank-3 points (up to 2e-4)
DEFAULT_FD_STEP = 4e-4
# Below this kernel value the residual entries, of size ~|P| eps, reach
# sqrt(tiny) and the sum of their squares in the Frobenius norm underflows.
MIN_KERNEL = math.sqrt(np.finfo(float).tiny) / np.finfo(float).eps


@dataclass
class HuaResult:
    """The two diagonal blocks of the matrix operator applied to a field."""

    top: np.ndarray
    bottom: np.ndarray


def _probes(Z: np.ndarray, h: float):
    """The distinct probes of the stencils at Z as an (M, n, n) stack, in
    order of first use, and the index of each move's probe.  The moves are
    the 4 n^2 gradient shifts (by entry, axis x/y, step +h/-h), then the
    16 n^4 cross shifts (by entries u, v, axes xx..yy, steps ++..--), one
    row each of one array; the first shifts and then the second are added
    in place, each to its own entry only, as W[entry] += step (x) or
    1j*step (y) would.  Rows are told apart by their exact bytes."""
    n = Z.shape[0]
    nn = n * n
    # the shifts of one entry, by index 2 * axis + sign: +h and -h along x,
    # then along y
    steps = np.array([h, -h, 1j * h, 1j * -h], dtype=complex)
    grad = np.arange(4 * nn)
    u, v, au, bv, su, sv = (i.ravel() for i in np.indices((nn, nn, 2, 2, 2, 2)))
    rows = np.tile(Z.ravel(), (grad.size + u.size, 1))
    moves = np.arange(len(rows))
    rows[moves, np.concatenate([grad // 4, u])] += steps[
        np.concatenate([grad % 4, 2 * au + su])]
    rows[moves[grad.size:], v] += steps[2 * bv + sv]
    width = nn * rows.itemsize
    flat = rows.tobytes()
    index = {}
    keys = [index.setdefault(flat[i:i + width], len(index))
            for i in range(0, len(flat), width)]
    points = np.frombuffer(b"".join(index), dtype=complex).reshape(-1, n, n)
    return points, keys


def _derivatives(F, Z: np.ndarray, h: float):
    """Wirtinger derivatives dbarF_{ij} = dF/dzbar_{ij} by central
    differences and the cross stencils H[a, b, q, c] = d^2 F/(dzbar_{ab}
    dz_{qc}) in the real and imaginary parts: f(+,+) - f(+,-) - f(-,+) +
    f(-,-) over 4 h^2, valid also when the two entries coincide.  F is
    called once, on the (M, n, n) stack of the distinct probes (see
    :func:`_probes`); differences are taken in Python complex arithmetic,
    whose last bits numpy's do not match.
    """
    n = Z.shape[0]
    points, keys = _probes(Z, h)
    vals = np.asarray(F(points), dtype=complex)
    if vals.shape != (len(points),):
        raise DomainError(f"field must map an (M, n, n) stack to M values; "
                          f"got shape {vals.shape} for M = {len(points)}")
    grad, cross = np.split(vals[keys], [4 * n * n])
    dbarF = np.empty((n, n), dtype=complex)
    for (i, j), (xp, xm, yp, ym) in zip(itertools.product(range(n), repeat=2),
                                        grad.reshape(-1, 4).tolist()):
        fx = (xp - xm) / (2.0 * h)
        fy = (yp - ym) / (2.0 * h)
        dbarF[i, j] = 0.5 * (fx + 1j * fy)
    H = np.empty((n,) * 4, dtype=complex)
    for abqc, fs in zip(itertools.product(range(n), repeat=4),
                        cross.reshape(-1, 4, 4).tolist()):
        xx, xy, yx, yy = ((pp - pm - mp + mm) / (4.0 * h * h) for pp, pm, mp, mm in fs)
        H[abqc] = 0.25 * (xx - 1j * xy + 1j * yx + yy)
    return dbarF, H


def hua_apply(p: SpectralParams, F, Z: np.ndarray,
              h: float = DEFAULT_FD_STEP) -> HuaResult:
    """Apply the matrix operator to a scalar field at Z by finite differences.

    With A = I - Z Z*, B = I - Z*Z frozen at Z:

        top_{pq}    =  sum A_{pa} B_{bc} d2F/(dzbar_{ab} dz_{qc})
                       - nu sum A_{pa} (Z*)_{bq} dF/dzbar_{ab}
        bottom_{pq} = -sum A_{ab} B_{cq} d2F/(dz_{ap} dzbar_{bc})
                       + nu sum (Z*)_{pa} B_{bq} dF/dzbar_{ab}

    ``F`` maps an (M, n, n) stack of points to M values (see _derivatives).
    Raises DomainError unless h is finite and > 0, and MarginError if a
    probe would leave the ball (the margin must be at least 4h in operator
    norm).
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"finite-difference step must be finite and > 0, got {h}")
    Z = validate_ball_point(Z)
    margin = ball_margin(Z)
    if margin < 4.0 * h:
        raise MarginError(
            f"finite-difference probes need margin >= 4.0*h = {4.0 * h}; "
            f"point has margin {margin:.3e}")
    if Z.shape[0] != p.n:
        raise DomainError(f"ball point size {Z.shape[0]} != rank {p.n}")
    n, nu = p.n, p.nu
    A = np.eye(n) - Z @ Z.conj().T
    B = np.eye(n) - Z.conj().T @ Z
    Zs = Z.conj().T
    dbarF, H = _derivatives(F, Z, h)

    # top: A_{pa} B_{bc} H[a,b,q,c] contracted over a, b, c
    top = np.einsum("pa,bc,abqc->pq", A, B, H)
    if nu != 0:
        top = top - nu * np.einsum("pa,bq,ab->pq", A, Zs, dbarF)

    # bottom second-order part: d2F/(dz_{ap} dzbar_{bc}) = H[b,c,a,p]
    bottom = -np.einsum("ab,cq,bcap->pq", A, B, H)
    if nu != 0:
        bottom = bottom + nu * np.einsum("pa,bq,ab->pq", Zs, B, dbarF)
    return HuaResult(top=top, bottom=bottom)


def hua_eigenvalue(p: SpectralParams) -> complex:
    """mu = (s^2 - (n - nu)^2)/4, the eigenvalue of the top block on the
    kernel (the bottom block carries -mu)."""
    return (p.s * p.s - (p.n - p.nu) ** 2) / 4.0


def hua_residual(p: SpectralParams, Z: np.ndarray, U: np.ndarray,
                 h: float = DEFAULT_FD_STEP, tol: float = 1e-4) -> CheckReport:
    """Eigen-equation residual of the kernel under the matrix operator:
    top should equal mu P I and bottom should equal -mu P I, with
    mu = (s^2 - (n-nu)^2)/4.  Reports the worse of the two relative
    Frobenius residuals.

    Raises RangeError where |P| is zero, non-finite or below MIN_KERNEL
    (about 7e-139), since the residual norm underflows there.
    """
    Z = validate_ball_point(Z)
    P = poisson_kernel(p, Z, U)
    if not MIN_KERNEL <= abs(P) < math.inf:
        raise RangeError(
            f"kernel value {P} is zero, non-finite or below {MIN_KERNEL:.1e}, "
            "where the residual norm underflows")
    res = hua_apply(p, lambda W: poisson_kernel(p, W, U), Z, h)
    mu = hua_eigenvalue(p)
    eye = np.eye(p.n)
    top_res = float(np.linalg.norm(res.top - mu * P * eye) / abs(P))
    bottom_res = float(np.linalg.norm(res.bottom + mu * P * eye) / abs(P))
    worst = max(top_res, bottom_res)
    return CheckReport(
        computed=worst, reference=0.0, rel_error=worst, passed=worst <= tol,
        extras={"top_residual": top_res, "bottom_residual": bottom_res})
