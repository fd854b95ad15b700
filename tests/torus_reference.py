"""Reference torus quadrature for the tests: the direct form that the
numerator-form sums of ``matball.boundary`` replace.

Class functions are evaluated at the angle rows of each grid block, with
characters taken as the ratio of two batched determinants, and summed
against the squared-Vandermonde weight with the zero-weight (coincident
angle) nodes skipped, on the uniform grid or on the kernel sums' tanh-sinh
nodes after the disk automorphism.  The tests compare the library's sums
with these expressions at their own tolerances.
"""

import itertools
import math

import numpy as np

from matball.boundary import (TorusGrid, _disk_axis, _grid_sum, _oracle_rows,
                              _power_table, _torus_axis, _walk_plan)
from matball.errors import DomainError
from matball.special import SpectralParams
from matball.spherical import validate_signature, weyl_dimension

MIN_ANGLE_GAP = 1e-8
CHUNK = 1 << 18


def _blocks(N: int, n: int):
    """First-axis slices that cut the N^n grid into blocks of whole slices,
    at most CHUNK nodes each (a single slice when one alone is larger)."""
    rows = max(1, CHUNK // N ** (n - 1))
    return (slice(start, start + rows) for start in range(0, N, rows))


def weyl_integrate(f, grid: TorusGrid) -> complex:
    """Probability-Haar integral of a class function over the boundary:

        (1/n!) (2 pi)^{-n} sum_nodes f(theta) prod_{i<j}|e^{i th_i}-e^{i th_j}|^2 (2pi/N)^n

    ``f`` receives an (M, n) array of angle rows and must return (M,) values.
    Each block of whole first-axis slices builds its angle rows and
    squared-Vandermonde weights prod_{i<j} 4 sin^2((th_i - th_j)/2) from the
    N-point axis, calls ``f`` once and is summed.  Nodes with vanishing
    weight are skipped, so ``f`` is never evaluated at coincident angles.
    """
    N = grid.points_per_dim
    return _weighted_sum(f, grid, _torus_axis(N), np.full(N, 1.0 / N))


def disk_weyl_integrate(f, r: float, grid: TorusGrid) -> complex:
    """The same integral on the nodes of the kernel sums: the N tanh-sinh
    nodes psi_j of ``boundary._disk_axis`` per axis, mapped by the disk
    automorphism e^{i theta} = (v + r)/(1 + r v), v = e^{i psi}, each
    weighted by its node weight times dtheta/dpsi = (1-r^2)/|1 + r v|^2:

        (1/n!) sum_nodes f(theta) prod_{i<j}|e^{i th_i}-e^{i th_j}|^2
            prod_j w_j (1-r^2)/|1 + r v_j|^2

    Angles are taken with ``np.angle``, so the squared-Vandermonde weight
    is formed from the angles, independently of the library's alternants.
    The nodes on either side of the cusp v = -1 lie ~1e-11 apart at
    N = 16, so nodes with two angles closer than 1e-8 on the circle, which
    ``schur_character`` refuses, are skipped too: their squared-Vandermonde
    weight is below 1e-16 and their node weight below ~1e-8.
    """
    log_weight, _, v = _disk_axis(grid.points_per_dim, r)
    theta = np.angle((v + r) / (1.0 + r * v))
    weights = np.exp(log_weight) * (1.0 - r * r) / np.abs(1.0 + r * v) ** 2
    return _weighted_sum(f, grid, theta, weights)


def _weighted_sum(f, grid: TorusGrid, theta: np.ndarray,
                  axis_weights: np.ndarray) -> complex:
    n, N = grid.n, grid.points_per_dim
    total = 0.0 + 0.0j
    for block in _blocks(N, n):
        index = np.meshgrid(np.arange(N)[block], *[np.arange(N)] * (n - 1),
                            indexing="ij")
        rows = np.stack(index, axis=-1).reshape(-1, n)
        angles = theta[rows]
        weights = np.prod(axis_weights[rows], axis=1)
        keep = np.ones(len(rows), dtype=bool)
        for i, j in itertools.combinations(range(n), 2):
            gap2 = 4.0 * np.sin((angles[:, i] - angles[:, j]) / 2.0) ** 2
            weights *= gap2
            # pairs closer than 1e-8 on the circle: on the uniform grid,
            # exactly the coincident ones, of zero weight
            keep &= gap2 >= MIN_ANGLE_GAP ** 2
        total += complex(np.sum(np.asarray(f(angles[keep])) * weights[keep]))
    return total / math.factorial(n)


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
    sigma = (p.s + p.n - p.nu) / 2.0
    log_scale = sigma * math.log1p(-abs(z) ** 2)
    w = 1.0 - z * np.exp(-1j * angles)
    return np.prod(np.exp(-2.0 * sigma * np.log(np.abs(w)) + log_scale)
                   * w ** (-p.nu), axis=1)


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


def kernel_projection(p: SpectralParams, m, r: float, grid: TorusGrid) -> complex:
    """One signature's numerator-form kernel projection in a walk of its own
    over exactly two tables, a_delta and c a_{m+delta}, on the mapped
    tanh-sinh nodes z_j with the row factors c_j of the library's oracle:

        sum_nodes prod_j c_j a_{m+delta}(z) conj a_delta(z) / (n! d_m)

    The library's multi-signature walk must reproduce it bit for bit.
    """
    n = p.n
    z, c = _oracle_rows(p, r, grid.points_per_dim)
    total = _grid_sum(lambda alts: complex(np.vdot(alts[0], alts[1])),
                      _power_table(z, (0,) * n), c * _power_table(z, m))
    return total / (math.factorial(n) * weyl_dimension(m))


def einsum_cofactors(table: np.ndarray) -> np.ndarray:
    """First-row cofactors of the alternants of an (N, n) table by one
    ``np.einsum`` on a Levi-Civita tensor formed afresh on every call: the
    library's tensordot chain on its cached tensor must give the same bits."""
    n = table.shape[1]
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = np.linalg.det(np.eye(n)[list(perm)])
    operands = [eps, list(range(n))]
    for j in range(1, n):
        operands += [table, [n + j, j]]
    return np.einsum(*operands, [0, *range(n + 1, 2 * n)], optimize=True)


def tensordot_grid_sum(integrand, *tables):
    """The strictly ordered torus walk with fresh cofactors, freshly listed
    colex tuples a_2 > ... > a_n and a fresh ``np.tensordot`` block per
    table and block, masked to a_1 > a_2 by comparison: only the block
    bounds come from ``boundary._walk_plan``, and the library's walk into
    reused buffers must give the same sums bit for bit."""
    N, n = tables[0].shape
    trailing = [t for t in itertools.product(range(N), repeat=n - 1)
                if all(a > b for a, b in zip(t, t[1:]))]
    lead = np.array([t[0] if t else -1 for t in trailing])
    cofactors = [np.stack([cof[(slice(None),) + t] for t in trailing], axis=-1)
                 for cof in map(einsum_cofactors, tables)]
    total = 0
    for lo, hi, c0, c1 in _walk_plan(N, n)[1]:
        keep = np.arange(lo, hi)[:, None] > lead[None, c0:c1]
        total += integrand([np.tensordot(table[lo:hi], cof[:, c0:c1], 1)[keep]
                            for table, cof in zip(tables, cofactors)])
    return total * math.factorial(n)


def full_grid_sum(integrand, *tables):
    """The walk over all N^n nodes in blocks of whole first-axis slices,
    each integrand seeing the nodes whose n indices are pairwise distinct
    (:func:`full_distinct_nodes`): the library's ordered walk times n!
    must match its sums to rounding."""
    N, n = tables[0].shape
    cofactors = list(map(einsum_cofactors, tables))
    total = 0
    for block in _blocks(N, n):
        keep = full_distinct_nodes(N, n, block)
        total += integrand([np.tensordot(table[block], cof, 1)[keep]
                            for table, cof in zip(tables, cofactors)])
    return total


def full_distinct_nodes(N: int, n: int, block: slice) -> np.ndarray:
    """Mask of the nodes of a block of :func:`full_grid_sum` whose n
    indices are pairwise distinct."""
    axes = np.ix_(np.arange(N)[block], *[np.arange(N)] * (n - 1))
    keep = np.ones(np.broadcast_shapes(*(a.shape for a in axes)), dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        keep &= axes[i] != axes[j]
    return keep
