"""Radial building blocks of the Poisson transform: scalar profiles
phi_{s,k}(r), their determinant aggregates Phi_{s,m}(r) indexed by
signatures, and the boundary-asymptotic ratio they satisfy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, HypothesisError, PoleError
from .special import (SpectralParams, _gauss_2f1_xs, _is_integer, c_function,
                      gauss_2f1)

MAX_SIGNATURE_PART = 50


def validate_signature(m, n: int | None = None) -> tuple[int, ...]:
    """Check that m is a weakly decreasing integer tuple (of rank n if given)."""
    m = tuple(m)
    bad = [v for v in m if not _is_integer(v)]
    if bad:
        raise DomainError(f"signature part {bad[0]!r} is not an integer")
    m = tuple(map(int, m))
    if n is not None and len(m) != n:
        raise DomainError(f"signature {m} has rank {len(m)}, expected {n}")
    if any(m[i] < m[i + 1] for i in range(len(m) - 1)):
        raise DomainError(f"signature parts must be weakly decreasing, got {m}")
    if any(abs(v) > MAX_SIGNATURE_PART for v in m):
        raise DomainError(
            f"signature parts limited to |m_i| <= {MAX_SIGNATURE_PART}, got {m}")
    return m


def validate_radius(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radial argument must satisfy 0 <= r < 1, got {r}")
    return r


def weyl_dimension(m) -> int:
    """Dimension of the unitary-group irreducible with signature m:
    product over i < j of (1 + (m_i - m_j)/(j - i))."""
    m = validate_signature(m)
    n = len(m)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= m[i] - m[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem or dim <= 0:
        raise DomainError(f"signature {m} does not index an irreducible")
    return dim


def _epsilon(k: int) -> int:
    # +1 for k >= 0, -1 for k < 0; the k = 0 value is convention independent
    # because 2F1 is symmetric in its first two parameters.
    return 1 if k >= 0 else -1


def _phi_scalar_cores(p: SpectralParams, k: int, radii) -> list:
    """:func:`phi_scalar_core` at each radius of radii (already validated):
    the radius-free parameters and Pochhammer ratio are formed once, and one
    2F1 dispatch serves every radius."""
    n, nu, s = p.n, p.nu, p.s
    ak = abs(int(k))
    e = _epsilon(k)
    a_plus = (s + n + e * nu) / 2.0
    a_minus = (s + n - e * nu) / 2.0
    ratio = 1.0 + 0.0j
    for i in range(ak):
        ratio *= (a_plus + i) / (1.0 + i)
    if len(radii) == 1:
        # the public gauss_2f1, so that the layer trace still counts a
        # single-point profile's 2F1 calls by branch
        r = radii[0]
        return [r ** ak * ratio * gauss_2f1(a_minus, a_plus + ak, 1.0 + ak, r * r)]
    hyp = _gauss_2f1_xs(a_minus, a_plus + ak, 1.0 + ak, [r * r for r in radii])
    return [r ** ak * ratio * f for r, f in zip(radii, hyp)]


def _radial_weight(p: SpectralParams, r: float) -> complex:
    """(1-r^2)^((s+n-nu)/2), which turns phi_scalar_core into the scalar
    profile phi_{s,k}(r) of phi_bigs; it does not depend on k."""
    n, nu, s = p.n, p.nu, p.s
    return cmath.exp((s + n - nu) / 2.0 * math.log1p(-r * r)) if r > 0 else 1.0


def phi_scalar_core(p: SpectralParams, k: int, r: float) -> complex:
    """r^|k| ((s+n+eps*nu)/2)_|k| / (1)_|k| 2F1((s+n-eps*nu)/2, (s+n+eps*nu)/2
    + |k|; 1+|k|; r^2), eps = _epsilon(k): the Fourier-mode profile of the
    kernel, phi_{s,k}(r) without its (1-r^2)^((s+n-nu)/2) factor.  Refuses
    a k that is not an integer."""
    if not _is_integer(k):
        raise DomainError(f"Fourier mode {k!r} is not an integer")
    return _phi_scalar_cores(p, k, (validate_radius(r),))[0]


def phi_bigs(p: SpectralParams, sigs, radii) -> list:
    """Radial profiles on the K-types with signatures m in sigs, one row
    per radius r of radii, one entry per signature:

        Phi_{s,m}(r) = det( phi_{s, m_i - i + j}(r) )_{i,j=1..n} / d_m

    normalized so that Phi_{s,0}(0) = 1 under probability Haar measure on
    the boundary (the determinant at m = 0, r = 0 is that of the identity).
    Each distinct scalar profile phi_{s,k} is evaluated once per call, for
    all radii together, and one np.linalg.det call takes every table: it
    runs the same LU on each matrix of the (radius, signature, n, n) stack
    as on that matrix alone.
    """
    sigs = [validate_signature(m, p.n) for m in sigs]
    radii = [validate_radius(r) for r in radii]
    n = p.n
    ks = {m[i] - i + j for m in sigs for i in range(n) for j in range(n)}
    weights = [_radial_weight(p, r) for r in radii]
    phis = {k: [w * core for w, core in zip(weights, _phi_scalar_cores(p, k, radii))]
            for k in ks}
    if n == 1:
        return [[phis[m[0]][t] for m in sigs] for t in range(len(radii))]
    dims = [weyl_dimension(m) for m in sigs]
    tables = np.array([[[[phis[m[i] - i + j][t] for j in range(n)] for i in range(n)]
                        for m in sigs] for t in range(len(radii))], dtype=complex)
    # an explicit shape, which np.array cannot infer when sigs or radii is
    # empty; det then returns an empty stack
    dets = np.linalg.det(tables.reshape(len(radii), len(sigs), n, n))
    return [[v / d for v, d in zip(row, dims)] for row in dets.tolist()]


def phi_big(p: SpectralParams, m, r: float) -> complex:
    """Phi_{s,m}(r) for one signature m at one radius (see :func:`phi_bigs`)."""
    return phi_bigs(p, (m,), (r,))[0][0]


def log_boundary_weight(p: SpectralParams, r: float) -> complex:
    """n(n-nu-s)/2 log(1-r^2), the logarithm of the boundary decay rate of
    Phi_{s,m}.  Its real part gives the rate of |Phi_{s,m}|."""
    return p.n * (p.n - p.nu - p.s) / 2.0 * math.log1p(-r * r)


def boundary_weight(p: SpectralParams, r: float) -> complex:
    """(1-r^2)^(n(n-nu-s)/2), the boundary decay rate of Phi_{s,m}."""
    return cmath.exp(log_boundary_weight(p, r))


def _require_asymptotic(p: SpectralParams, generic: bool = True) -> None:
    """Refuse s outside Re(s) > n - 1 or, if generic, on the excluded
    lattice: the hypotheses of the boundary asymptotics of Phi_{s,m}."""
    if not p.in_asymptotic_range:
        raise HypothesisError(f"s={p.s} violates Re(s) > n-1 at n={p.n} "
                              "(asymptotic range guard)")
    if generic and not p.in_generic_set:
        raise HypothesisError(
            f"s={p.s} lies on the excluded lattice n-2+/-nu-2k at n={p.n}, "
            f"nu={p.nu} (generic-set guard)")


def key_lemma_ratio(p: SpectralParams, m, r: float) -> complex:
    """Phi_{s,m}(r) / [c(s) (1-r^2)^(n(n-nu-s)/2)]; tends to 1 as r -> 1-.

    Requires s in the generic set and Re(s) > n - 1.
    """
    _require_asymptotic(p)
    return phi_big(p, m, r) / (c_function(p) * boundary_weight(p, r))


def gamma_constant(p: SpectralParams) -> complex:
    """Asymptotic constant of the hypergeometric-determinant ratio:

        gamma(s, nu) = (-1)^(n(n-1)/2) prod_{k=1}^{n-1} (n-k)!
            prod_{k=1}^{n-1} [((2-s-n-nu)/2 + k-1)^(n-k) ((2-s-n+nu)/2 + k-1)^(n-k)]
                           / [(-s-n+k+1)^(n-k) prod_{j=1}^{n-k} (-s+k-j)_2]

    The leading sign is pinned by the requirement that
    (Gamma(s+n-1) / [Gamma((s+n+nu)/2) Gamma((s+n-nu)/2)])^n * gamma(s, nu)
    equal the c-function; it was resolved numerically against that identity.
    """
    n, nu, s = p.n, p.nu, p.s
    out = complex((-1) ** (n * (n - 1) // 2))
    for k in range(1, n):
        out *= math.factorial(n - k)
    for k in range(1, n):
        num = ((2.0 - s - n - nu) / 2.0 + k - 1) ** (n - k)
        num *= ((2.0 - s - n + nu) / 2.0 + k - 1) ** (n - k)
        den = (-s - n + k + 1) ** (n - k)
        for j in range(1, n - k + 1):
            den *= (-s + k - j) * (-s + k - j + 1)
        if den == 0:
            raise PoleError(
                f"gamma constant denominator vanishes at n={n}, k={k}, s={s}")
        out *= num / den
    return out
