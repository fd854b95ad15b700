"""Boundary machinery: the Poisson kernel on the matrix ball and torus
sums for class functions on the unitary-group boundary.

Class functions are integrated on a midpoint-offset product grid in the
numerator form of Weyl integration: a class function f = A / a_delta, with
a_lam(z) = det(z_j^{lam_k}) and delta = (n-1, ..., 0), integrates against
the probability Haar measure as

    int f dU = (1/(n! N^n)) sum_nodes A(z) conj a_delta(z),

so the Vandermonde denominator of a character never has to be divided out;
the K-type norms sum |A_f / a_delta|^p |a_delta|^2 on this grid.
The quadrature oracle for Phi_{s,m} sums kernel x a_{m+delta} x conj(a_delta)
node by node, and the kernel mass sums weight x |a_delta|^2 the same way;
both sum on one tanh-sinh grid after the disk automorphism.  Every such
integrand is symmetric in a node's indices and nodes with two equal indices
add zero, so the walk visits only the C(N, n) nodes a_1 > a_2 > ... > a_n
and multiplies by n!.
No sum is reduced to one-dimensional integrals (Andreief/Heine): the
reduction is the determinant formula the oracle is there to check.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularError
from .report import CheckReport, make_report
from .special import SpectralParams
from .spherical import (phi_scalar_core, validate_radius, validate_signature,
                        weyl_dimension)

# Bounds N^n, though the walk visits only C(N, n) nodes: the run time of a
# torus sum, not its memory, which blocks of _BLOCK_BUDGET products bound.
# The largest grid a shipped check builds is criterion 1's rank-3 N = 160.
MAX_GRID_NODES = 1 << 24


def validate_ball_point(Z: np.ndarray, stack: bool = False) -> np.ndarray:
    """Check that Z is finite and I - Z Z* positive definite (Cholesky
    succeeds) for one n x n point or, with ``stack``, also for every point
    of an (M, n, n) stack."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim not in ((2, 3) if stack else (2,)) or Z.shape[-1] != Z.shape[-2]:
        raise DomainError(f"ball point has shape {Z.shape}; expected n x n"
                          + (" or (M, n, n)" if stack else ""))
    if not np.isfinite(Z).all():
        raise DomainError("ball point has a non-finite entry")
    A = np.eye(Z.shape[-1]) - Z @ Z.conj().swapaxes(-1, -2)
    try:
        np.linalg.cholesky((A + A.conj().swapaxes(-1, -2)) / 2.0)
    except np.linalg.LinAlgError:
        raise DomainError("I - Z Z* is not positive definite") from None
    return Z


def ball_margin(Z: np.ndarray) -> float:
    """1 - ||Z||_op, the operator-norm distance to the boundary."""
    Z = np.asarray(Z, dtype=complex)
    return 1.0 - float(np.linalg.norm(Z, 2))


@dataclass(frozen=True)
class TorusGrid:
    """The validated rank n and nodes per axis N of a torus sum; it holds
    no nodes.  :func:`ktype_norms` puts the uniform midpoint nodes
    theta_j = 2 pi (j + 1/2) / N on each axis (:func:`_torus_axis`, which
    :func:`fourier_mode_check` sums on too), whose trapezoidal weight
    integrates trigonometric polynomials of per-variable degree < N
    exactly; :func:`spherical_oracles` and :func:`kernel_mass` put N
    tanh-sinh nodes on each axis (:func:`_disk_axis`), at every radius.
    """

    n: int
    points_per_dim: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"rank must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.points_per_dim, int) or self.points_per_dim < 8:
            raise DomainError(f"grid needs an integer N >= 8 points per "
                              f"dimension, got {self.points_per_dim!r}")
        if self.points_per_dim ** self.n > MAX_GRID_NODES:
            raise DomainError(
                f"grid of {self.points_per_dim}^{self.n} nodes exceeds the "
                f"limit of {MAX_GRID_NODES} nodes")


def _torus_axis(N: int) -> np.ndarray:
    """The N midpoint-offset angles 2 pi (j + 1/2) / N of one grid axis."""
    return 2.0 * np.pi * (np.arange(N) + 0.5) / N


# the tanh-sinh rule psi = pi tanh(2.2 sinh t), |t| < 2.75, of the kernel
# sums: its outermost nodes lie ~3e-14 from the cusp at psi = +-pi
_DE_TMAX, _DE_C = 2.75, 2.2


def poisson_kernel(p: SpectralParams, Z: np.ndarray,
                   U: np.ndarray) -> complex | np.ndarray:
    """Poisson kernel on the matrix ball:

        P(Z, U) = [det(I - Z Z*) / |det(I - Z U*)|^2]^((s+n-nu)/2)
                  det(I - Z U*)^(-nu)

    with s = i*lambda.  The first factor is a positive-real base raised to a
    complex power (principal logarithm); the second is an integer power.
    ``U`` is an n x n unitary matrix.  ``Z`` is one n x n point (a complex
    result) or an (M, n, n) stack (M values): checks and determinants run
    once over the stack, and each value is finished in Python arithmetic,
    whose last bits numpy's do not match.
    """
    Z = validate_ball_point(Z, stack=True)
    n, nu, s = p.n, p.nu, p.s
    if Z.shape[-1] != n:
        raise DomainError(f"ball point has size {Z.shape[-1]}, params have n={n}")
    U = np.asarray(U, dtype=complex)
    if U.shape != (n, n):
        raise DomainError(f"boundary matrix must be {n}x{n}, got {U.shape}")
    if not np.isfinite(U).all():
        raise DomainError("boundary matrix has a non-finite entry")
    if np.max(np.abs(U @ U.conj().T - np.eye(n))) > 1e-12:
        raise DomainError("boundary matrix is not unitary to 1e-12")
    detA = np.linalg.det(np.eye(n) - Z @ Z.conj().swapaxes(-1, -2)).real
    detW = np.linalg.det(np.eye(n) - Z @ U.conj().T)
    if np.any(detW == 0.0):
        raise SingularError("det(I - Z U*) = 0")
    sigma = (s + n - nu) / 2.0
    values = [cmath.exp(sigma * math.log(a / abs(w) ** 2)) * w ** (-nu)
              for a, w in zip(np.ravel(detA).tolist(), np.ravel(detW).tolist())]
    return values[0] if Z.ndim == 2 else np.array(values)


@functools.cache
def _levi_civita(n: int) -> np.ndarray:
    """The rank-n Levi-Civita tensor: sgn(k) at each permutation k (cached;
    read-only)."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        eps[perm] = (-1.0) ** inversions
    eps.flags.writeable = False
    return eps


def _cofactors(table: np.ndarray) -> np.ndarray:
    """Signed minors of the alternant det(T[a_j, k])_{j,k} along its first
    row: C[k_1, a_2, ..., a_n] = eps_{k_1..k_n} prod_{j>=2} T[a_j, k_j] for
    an (N, n) power table T, so that the alternant at node (a_1, ..., a_n)
    is sum_k T[a_1, k] C[k, a_2, ..., a_n].  Formed from the Levi-Civita
    tensor by n - 1 ``np.tensordot`` calls, each contracting the next index
    k_j with the columns of T and appending a_j as the last axis."""
    out = _levi_civita(table.shape[1])
    for _ in range(table.shape[1] - 1):
        out = np.tensordot(out, table, axes=([1], [1]))
    return out


# Entries (256 KiB) of a walk's dense block buffer and of each of its
# gather buffers, which the walk reuses block after block: fresh arrays per
# block cost ~800 minor page faults per rank-3 N = 80 oracle call, and 20
# such calls took 40-63 ms instead of 21-37 ms on a 2-vCPU Xeon.
_BLOCK_BUDGET = 1 << 14


@functools.lru_cache(maxsize=16)
def _walk_plan(N: int, n: int):
    """The cofactor columns and block bounds of :func:`_grid_sum` (cached;
    read-only).  ``columns`` holds the flat cofactor index of each trailing
    tuple a_2 > ... > a_n in colex order (by a_2 first), so the tuples with
    a_2 < a_1 are the first C(a_1, n-1) columns.  A block (lo, hi, c0, c1)
    takes the first-axis rows [lo, hi) against the columns [c0, c1), at
    most _BLOCK_BUDGET dense products (a row alone is cut into ranges)."""
    trailing = sorted(itertools.combinations(range(N - 1, -1, -1), n - 1))
    columns = (np.array(trailing, dtype=np.intp).reshape(len(trailing), n - 1)
               @ N ** np.arange(n - 2, -1, -1))
    columns.flags.writeable = False
    blocks, lo = [], 0
    while lo < N:
        # the dense products (hi - lo) C(hi - 1, n - 1) grow with hi
        hi = lo + 1 + bisect.bisect_right(
            range(lo + 2, N + 1), _BLOCK_BUDGET,
            key=lambda h: (h - lo) * math.comb(h - 1, n - 1))
        width = math.comb(hi - 1, n - 1)
        blocks += [(lo, hi, c0, min(width, c0 + _BLOCK_BUDGET))
                   for c0 in range(0, width, _BLOCK_BUDGET)]
        lo = hi
    return columns, tuple(blocks)


@functools.lru_cache(maxsize=128)
def _block_nodes(n: int, lo: int, hi: int, c0: int, c1: int) -> np.ndarray:
    """Flat indices, into a block's dense (hi - lo, c1 - c0) product, of its
    nodes a_1 > ... > a_n: row a_1 keeps the columns below C(a_1, n-1)
    (cached for at most 128 blocks, 16 MiB; read-only)."""
    rows = np.arange(lo, hi)
    below = np.ones(hi - lo, dtype=np.intp)
    for j in range(n - 1):
        below = below * (rows - j) // (j + 1)  # C(rows, j + 1), exactly
    nodes = np.flatnonzero(np.arange(c0, c1) < below[:, None])
    nodes.flags.writeable = False
    return nodes


def _pairing(x: np.ndarray, y: np.ndarray) -> complex:
    """sum conj(x) y in one order whatever the BLAS thread count: OpenBLAS
    threads ``np.vdot`` only above 10,000 entries, and up to 20,000 (not at
    20,001) sums the first ceil(n/2) entries and the rest apart, as this
    does above 10,000; _BLOCK_BUDGET caps a walk's block at 16,384 nodes."""
    if x.size <= 10_000:
        return np.vdot(x, y)
    h = (x.size + 1) // 2
    return np.vdot(x[:h], y[:h]) + np.vdot(x[h:], y[h:])


def _grid_sum(integrand, *tables):
    """Sum integrand(alternants) over the nodes (a_1, ..., a_n) of the N^n
    grid with a_1 > a_2 > ... > a_n, block by block, and return that sum
    times n!.  For each given (N, n) row table T, ``alternants`` holds the
    alternant det T[a_j, k] at every such node of the block, as a 1-D
    array: one ``np.dot`` of the block's rows of T with the first-row
    cofactors of its columns (:func:`_walk_plan`), gathered to the ordered
    nodes (:func:`_block_nodes`).  The cofactors of each table are formed
    once per walk (:func:`_cofactors`, n - 1 tensordots) and taken at the
    plan's columns.

    Both alternants of a node are antisymmetric in its indices and the row
    factors are per-axis, so every integrand of the kernel sums and K-type
    norms is symmetric in a node's indices, and a node with two equal
    indices adds zero to the full-grid sum: n! times the ordered sum is the
    sum over the full grid.  The walk visits C(N, n) nodes: N at rank 1,
    3,160 instead of 6,400 at rank 2 and 82,160 instead of 512,000 at
    rank 3 (N = 80).

    This is the one walk over the torus grid: every torus sum forms its
    integrand from these alternants node by node, never reducing it to
    one-dimensional integrals (Andreief/Heine); the kernel sums pair the
    alternants of a block by :func:`_pairing`, in an order its size fixes.
    The alternants are views of the walk's own buffers, one dense block
    and one gather buffer per table of _BLOCK_BUDGET entries each,
    allocated once per call, which the next block overwrites: an integrand
    must not keep one, or a view of one, after it returns, but it may
    start a walk of its own.
    """
    N, n = tables[0].shape
    columns, blocks = _walk_plan(N, n)
    cofactors = [np.take(_cofactors(table).reshape(n, -1), columns, axis=1)
                 for table in tables]
    dense, *bufs = (np.empty(_BLOCK_BUDGET, dtype=complex)
                    for _ in range(len(tables) + 1))
    total = 0
    for lo, hi, c0, c1 in blocks:
        nodes = _block_nodes(n, lo, hi, c0, c1)
        out = dense[:(hi - lo) * (c1 - c0)].reshape(hi - lo, c1 - c0)
        alternants = []
        for buf, table, cof in zip(bufs, tables, cofactors):
            np.dot(table[lo:hi], cof[:, c0:c1], out=out)
            # mode="raise" would gather through a temporary
            alternants.append(np.take(dense, nodes, out=buf[:nodes.size],
                                      mode="clip"))
        total += integrand(alternants)
    return total * math.factorial(n)


def _power_table(z: np.ndarray, m) -> np.ndarray:
    """The (N, n) row table z^(m_k + n - k) of the alternant a_{m+delta} at
    the N points z of one axis."""
    delta = np.arange(len(m) - 1, -1, -1)
    return z[:, None] ** (np.asarray(m) + delta)


def _disk_axis(N: int, r: float):
    """The N tanh-sinh nodes psi_j = pi tanh(2.2 sinh t_j) sgn(t_j),
    |t_j| < 2.75 (Takahasi-Mori), of one axis of the kernel sums at radius
    r, clustered at the cusp v = -1 of the disk automorphism
    e^{i theta} = (v + r)/(1 + r v), v = e^{i psi}.

    Returns (log_weight, log_dist, v): the log of each node's weight
    dpsi / (2 pi), log|1 + r v| and v.  gap = pi - |psi| and
    |1 + r v|^2 = (1-r)^2 + 4 r sin^2(gap/2) keep their digits near the
    cusp.
    """
    h = 2.0 * _DE_TMAX / N
    t = h * (np.arange(N) + 0.5) - _DE_TMAX
    u = np.abs(_DE_C * np.sinh(t))
    gap = 2.0 * np.pi / (np.exp(2.0 * u) + 1.0)
    log_weight = np.log(_DE_C / 2.0 * h * np.cosh(t) / np.cosh(u) ** 2)
    log_dist = np.log((1.0 - r) ** 2 + 4.0 * r * np.sin(gap / 2.0) ** 2) / 2.0
    return log_weight, log_dist, np.exp(1j * np.copysign(np.pi - gap, t))


_WALK_TABLES = 8  # per oracle walk: z^delta and up to 7 signatures


def spherical_oracles(p: SpectralParams, sigs, r: float,
                      grid: TorusGrid) -> list:
    """Quadrature values of the K-type radial profiles,

        Phi_{s,m}(r) = int P(r I, U) phi_m(U) dU,   m in sigs,

    reduced to the torus by Weyl integration in numerator form,

        (1/(n! d_m)) int_{T^n} prod_j k(th_j) a_{m+delta}(e^{i theta})
            conj a_delta(e^{i theta}) dtheta / (2 pi)^n,

    with k(th) = (1-r^2)^sigma |w|^(-2 sigma) w^(-nu), w = 1 - r e^{-i th}
    and sigma = (s+n-nu)/2 the kernel's factor per angle.  Each angle goes
    through the disk automorphism of :func:`kernel_mass` onto the same N
    tanh-sinh nodes per axis, at every radius; row j of each a_{m+delta}
    table carries k times the Jacobian times the node weight
    (:func:`_oracle_rows`).  The signatures share one a_delta table and
    are walked _WALK_TABLES - 1 at a time, so that a walk holds at most
    _WALK_TABLES tables and its memory does not grow with the number of
    signatures; each signature's sum is the same bit for bit however they
    are grouped.  The character's Vandermonde denominator cancels against
    the Haar weight, so coincident angles need no special treatment.  The sum
    runs node by node on the nodes a_1 > ... > a_n of :func:`_grid_sum`,
    times n!, and is never reduced to one-dimensional integrals
    (Andreief/Heine), because that reduction is the determinant formula of
    :func:`matball.spherical.phi_bigs`, for which this is the independent
    oracle.

    Against ``phi_bigs`` at N = 80, with Re s - n in [0.5, 1.5] and the
    signatures of criterion 1, the relative error is <= 1e-9 at ranks 1-3
    up to r = 0.7, and stays below 1e-6 at r = 0.999 (rank 1), 0.99
    (rank 2) and 0.9 (rank 3).  Larger Re s needs a larger N: the
    integrand peaks at v = 1 with a width ~ (Re s - n)^(-1/2), where the
    nodes are sparsest.  At rank 2, nu = 0 and r <= 0.7 the worst error at
    N = 80 is 2e-10 at s = 10, 8e-8 at s = 15, 4e-6 at s = 20 and 4e-3 at
    s = 40.
    """
    sigs = [validate_signature(m, p.n) for m in sigs]
    r = validate_radius(r)
    if grid.n != p.n:
        raise DomainError(f"grid rank {grid.n} != params rank {p.n}")
    z, c = _oracle_rows(p, r, grid.points_per_dim)
    base, step = _power_table(z, (0,) * p.n), _WALK_TABLES - 1
    totals = []
    for i in range(0, len(sigs), step):
        totals.extend(_grid_sum(
            lambda alts: np.array([_pairing(alts[0], a) for a in alts[1:]]),
            base, *(c * _power_table(z, m) for m in sigs[i:i + step])))
    return [complex(t) / (math.factorial(p.n) * weyl_dimension(m))
            for t, m in zip(totals, sigs)]


def _oracle_rows(p: SpectralParams, r: float, N: int):
    """The mapped nodes z_j = (v_j + r)/(1 + r v_j) of one axis and, as an
    (N, 1) column, the row factors of :func:`spherical_oracles`.  Under the
    map, w = 1 - r conj z_j = (1-r^2)/(1 + r conj v_j) and dth/dpsi =
    (1-r^2)/|1 + r v_j|^2, so the kernel factor times the Jacobian times
    the node weight omega_j is

        c_j = (1-r^2)^(1-sigma-nu) |1 + r v_j|^(2 sigma - 2)
              (1 + r conj v_j)^nu omega_j,

    formed in log form so that no entry overflows where Phi is finite."""
    log_weight, log_dist, v = _disk_axis(N, r)
    sigma = (p.s + p.n - p.nu) / 2.0
    # arg (1 + r conj v)^nu = -nu arg(1 + r v); its modulus joins log_dist
    log_c = (log_weight
             + (1.0 - sigma - p.nu) * math.log((1.0 - r) * (1.0 + r))
             + (2.0 * sigma - 2.0 + p.nu) * log_dist
             - 1j * p.nu * np.angle(1.0 + r * v))
    return (v + r) / (1.0 + r * v), np.exp(log_c)[:, None]


def spherical_oracle(p: SpectralParams, m, r: float, grid: TorusGrid) -> complex:
    """Phi_{s,m}(r) by quadrature for one signature m (see
    :func:`spherical_oracles`)."""
    return spherical_oracles(p, (m,), r, grid)[0]


def kernel_mass(p: SpectralParams, r: float, grid: TorusGrid) -> float:
    """Kernel L^1 mass int |P(r I, U)| dU.  The disk automorphism
    e^{i theta} = (v + r)/(1 + r v) on each angle takes every power of
    (1-r^2) out exactly (Forelli-Rudin; Rudin, Function Theory in the Unit
    Ball, 1.4.10):

        (1-r^2)^(n(n-nu-Re s)/2) (1/n!) int_{T^n} prod_j |1 + r v_j|^(Re s-n)
            |a_delta(v)|^2 dpsi / (2 pi)^n,     v = e^{i psi},

    summed node by node as sum_nodes |det(sqrt(c_j) v_j^{delta_k})|^2 / n!
    over the N^n product of tanh-sinh nodes psi_j (:func:`_disk_axis`),
    which cluster at the cusp v = -1, as n! times the sum over the nodes
    a_1 > ... > a_n of :func:`_grid_sum`.  c_j joins node j's weight,
    |1 + r v_j|^(Re s-n) and its share of the (1-r^2) power in log form, so
    that no entry overflows where the mass is finite.  N does not depend on
    r.  Up to r = 1 - 1e-6 the relative error is <= 1e-10 at N = 64 for
    n <= Re s <= n + 2, and <= 1e-8 at N = 128 for n - 1 < Re s < n.
    Larger Re s needs larger N: the integrand peaks at v = 1 with a width
    ~ (Re s - n)^(-1/2).
    """
    r = validate_radius(r)
    if grid.n != p.n:
        raise DomainError(f"grid rank {grid.n} != params rank {p.n}")
    n = p.n
    log_weight, log_dist, v = _disk_axis(grid.points_per_dim, r)
    log_c = (log_weight + (p.s.real - n) * log_dist
             + (n - p.nu - p.s.real) / 2.0 * math.log((1.0 - r) * (1.0 + r)))
    table = np.exp(log_c / 2.0)[:, None] * _power_table(v, (0,) * n)
    total = _grid_sum(lambda alts: complex(_pairing(alts[0], alts[0])), table)
    return total.real / math.factorial(n)


def ktype_norms(coefficient_rows, pexp: float, grid: TorusGrid) -> list:
    """L^p norms (int |f|^p dU)^(1/p) on the grid of K-type functions f,
    from one walk of the grid, in numerator form.  Each f is given by its
    sorted (signature, coefficient) pairs, as ``KTypeFunction.items``
    returns them: signatures already validated, of one rank per f.

    With A_f = sum_m (c_m/d_m) a_{m+delta} at each node, f = A_f / a_delta
    and the Haar weight is |a_delta|^2, so the sum over the N^n midpoint
    nodes is of |A_f / a_delta|^p |a_delta|^2, divided by n! N^n.  The
    walk visits only the nodes a_1 > ... > a_n and multiplies by n!, so it
    never meets a coincident-angle node, where a_delta = 0.  The quotient
    is taken before the power: |A_f|^p alone overflows long before |f|^p
    does.  Per block the integrand of every f is one row of a (functions
    x nodes) array; each f sums its own terms in its own sorted order, and
    each row sum is the 1-D sum of that row, so its norm does not depend
    on the other functions.
    """
    if not (math.isfinite(pexp) and pexp >= 1.0):
        raise DomainError(f"norm exponent must be a finite number >= 1, got {pexp}")
    if any(len(items[0][0]) != grid.n for items in coefficient_rows):
        raise DomainError(f"grid rank {grid.n} != K-type rank of some f")
    n, N = grid.n, grid.points_per_dim
    sigs = sorted({m for items in coefficient_rows for m, _ in items})
    dims = {m: weyl_dimension(m) for m in sigs}
    rows = [[(sigs.index(m), c / dims[m]) for m, c in items]
            for items in coefficient_rows]

    def integrand(alternants):
        base, *alts = alternants
        weight = np.abs(base) ** 2
        # the rows of several f form one (functions x nodes) array of at
        # most _BLOCK_BUDGET entries, and every step runs in place on it:
        # fresh temporaries per step cost more than the per-f loop they
        # replace
        per = max(1, _BLOCK_BUDGET // base.size)
        sums = []
        for part in (rows[i:i + per] for i in range(0, len(rows), per)):
            A = np.zeros((len(part), base.size), dtype=complex)
            for A_f, row in zip(A, part):
                for i, w in row:
                    A_f += w * alts[i]
            A /= base
            terms = np.abs(A)
            terms **= pexp
            terms *= weight
            sums.append(terms.sum(axis=1))
        return np.concatenate(sums)

    z = np.exp(1j * _torus_axis(N))
    totals = _grid_sum(integrand, _power_table(z, (0,) * n),
                       *(_power_table(z, m) for m in sigs))
    return [(float(t) / (math.factorial(n) * N ** n)) ** (1.0 / pexp)
            for t in totals]


def fourier_mode_check(p: SpectralParams, k: int, r: float, N: int) -> CheckReport:
    """Compare the k-th Fourier coefficient of the per-angle kernel factor

        g(th) = (1 - r e^{-i th})^(-(s+n+nu)/2) (1 - r e^{i th})^(-(s+n-nu)/2)

    computed by N-point trapezoidal quadrature of g(th) e^{i k th} against
    the closed form r^|k| ((s+n+eps(k)nu)/2)_|k| / (1)_|k| 2F1(...), to
    1e-9 relative.
    """
    r = validate_radius(r)
    if not isinstance(N, int) or N < 8:
        raise DomainError(f"need an integer N >= 8 quadrature points, got {N!r}")
    theta = _torus_axis(N)
    w = 1.0 - r * np.exp(-1j * theta)
    sigma = (p.s + p.n - p.nu) / 2.0
    g = np.exp(-2.0 * sigma * np.log(np.abs(w))) * w ** (-p.nu)
    quad = complex(np.mean(g * np.exp(1j * k * theta)))
    closed = phi_scalar_core(p, k, r)
    return make_report(quad, closed, 1e-9)
