"""Reference torus quadrature for the tests: the direct form that the
numerator-form sums of ``matball.boundary`` replace.

Class functions are evaluated at the angle rows of each grid block, with
characters taken as the ratio of two batched determinants, and summed
against the squared-Vandermonde weight with the zero-weight (coincident
angle) nodes skipped.  The tests compare the library's sums with these
expressions at their own tolerances.
"""

import cmath
import itertools
import math

import numpy as np

from matball.boundary import (TorusGrid, _blocks, _grid_sum, _kernel_factor,
                              _power_table, _torus_axis)
from matball.errors import DomainError
from matball.special import SpectralParams
from matball.spherical import validate_signature, weyl_dimension

MIN_ANGLE_GAP = 1e-8


def weyl_integrate(f, grid: TorusGrid) -> complex:
    """Probability-Haar integral of a class function over the boundary:

        (1/n!) (2 pi)^{-n} sum_nodes f(theta) prod_{i<j}|e^{i th_i}-e^{i th_j}|^2 (2pi/N)^n

    ``f`` receives an (M, n) array of angle rows and must return (M,) values.
    Each block of whole first-axis slices builds its angle rows and
    squared-Vandermonde weights prod_{i<j} 4 sin^2((th_i - th_j)/2) from the
    N-point axis, calls ``f`` once and is summed.  Nodes with vanishing
    weight are skipped, so ``f`` is never evaluated at coincident angles.
    """
    n, N = grid.n, grid.points_per_dim
    theta = _torus_axis(N)
    total = 0.0 + 0.0j
    for block in _blocks(N, n):
        axes = np.meshgrid(theta[block], *[theta] * (n - 1), indexing="ij")
        angles = np.stack(axes, axis=-1).reshape(-1, n)
        weights = np.ones(angles.shape[0])
        for i, j in itertools.combinations(range(n), 2):
            weights *= 4.0 * np.sin((angles[:, i] - angles[:, j]) / 2.0) ** 2
        keep = weights != 0.0
        total += complex(np.sum(np.asarray(f(angles[keep])) * weights[keep]))
    return total / (math.factorial(n) * N ** n)


def poisson_kernel_torus(p: SpectralParams, z: complex, angles: np.ndarray) -> np.ndarray:
    """Vectorized kernel values P(z I, diag(e^{i theta})) for a scalar ball
    point z I, |z| < 1.  ``angles`` has shape (M, n); returns (M,) values.

    The kernel factorizes over the angles into prod_j (1-|z|^2)^sigma g(th_j),
    sigma = (s+n-nu)/2.  Each angle's share of (1-|z|^2)^(n sigma) enters
    inside that angle's exponent, so no factor overflows where the kernel
    itself is finite.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise DomainError(f"scalar ball point needs |z| < 1, got |z|={abs(z)}")
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    if angles.shape[1] != p.n:
        raise DomainError(f"angle rows have length {angles.shape[1]}, expected {p.n}")
    log_scale = (p.s + p.n - p.nu) / 2.0 * math.log1p(-abs(z) ** 2)
    return np.prod(_kernel_factor(p, z, angles, log_scale), axis=1)


def _check_angle_gaps(angles: np.ndarray) -> None:
    n = angles.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            d = np.abs(np.exp(1j * angles[:, i]) - np.exp(1j * angles[:, j]))
            if np.any(d < MIN_ANGLE_GAP):
                raise ValueError(f"angles {i} and {j} closer than {MIN_ANGLE_GAP}")


def schur_character(m, theta: np.ndarray) -> complex | np.ndarray:
    """Normalized character (zonal spherical function) at torus angles:

        phi_m(e^{i Theta}) = det(e^{i th_i (m_j + n - j)})
                             / [d_m det(e^{i th_i (n - j)})]

    Accepts a single angle row (n,) or a batch (M, n); angles within a row
    must be pairwise distinct (gap >= 1e-8 on the circle).
    """
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    angles = np.atleast_2d(theta)
    n = angles.shape[1]
    m = validate_signature(m, n)
    _check_angle_gaps(angles)
    z = np.exp(1j * angles)  # (M, n)
    exps_num = np.array([m[j] + n - (j + 1) for j in range(n)])
    exps_den = np.array([n - (j + 1) for j in range(n)])
    num = np.linalg.det(z[:, :, None] ** exps_num[None, None, :])
    den = np.linalg.det(z[:, :, None] ** exps_den[None, None, :])
    out = num / (weyl_dimension(m) * den)
    return complex(out[0]) if single else out


def ktype_evaluate(f, angles: np.ndarray) -> np.ndarray:
    """Values of the K-type sum ``f`` (a ``KTypeFunction``) at angle rows."""
    out = 0
    for m, c in f.items():
        out = out + c * schur_character(m, angles)
    return out


def kernel_projection(p: SpectralParams, m, z: complex, grid: TorusGrid) -> complex:
    """One signature's numerator-form kernel projection in a walk of its own
    over exactly two tables, a_delta and g a_{m+delta}:

        sum_nodes prod_j g(th_j) a_{m+delta} conj a_delta (1-|z|^2)^(n sigma)
            / (n! N^n d_m)

    The library's multi-signature walk must reproduce it bit for bit.
    """
    n, N = p.n, grid.points_per_dim
    num = _kernel_factor(p, z, _torus_axis(N))[:, None] * _power_table(N, m)
    total = _grid_sum(lambda _, alts: complex(np.vdot(alts[0], alts[1])),
                      _power_table(N, (0,) * n), num)
    sigma = (p.s + n - p.nu) / 2.0
    return (total * cmath.exp(n * sigma * math.log1p(-(z * z.conjugate()).real))
            / (math.factorial(n) * N ** n * weyl_dimension(m)))
