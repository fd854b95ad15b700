"""Numerical verification of the determinant identities behind the
boundary asymptotics: the column-shift determinant identity, the uniform
determinant asymptotics near r = 1, two Pochhammer product identities and
the closed-form factorization of the c-function constant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentError, DomainError, GuardError, PoleError
from .report import CheckReport, make_report
from .special import (SpectralParams, _gauss_2f1_array,
                      _near_nonpositive_integer,
                      _near_nonpositive_integer_array, _series_2f1_array,
                      c_function, gamma, gauss_2f1, pochhammer)
from .spherical import gamma_constant, validate_radius

GUARD_RADIUS = 1e-6
# pass gates of Lemma A's |lhs - rhs| / |lhs| and Lemma B's final |ratio - 1|
LEMMA_A_TOL, LEMMA_B_TOL = 1e-8, 5e-2

# The determinants below cancel to depth (1-r^2)^(n(n-1)) at small 1-r^2,
# so entries and determinants are evaluated in extended precision
# (native long-double) wherever the direct power series applies; the
# connection-formula region is Gamma-limited and stays in double.
_LD = np.clongdouble
_LD_SERIES_TOL = float(np.finfo(np.longdouble).eps) * 4.0


def _eval_2f1_ld(a: complex, b: complex, c: complex, x: float):
    """2F1 entry for the determinant checks: extended-precision direct
    series when x <= 1/2, double-precision connection formula otherwise."""
    if x > 0.5:
        return _LD(gauss_2f1(a, b, c, x))
    if _near_nonpositive_integer(c):
        raise PoleError(f"2F1 lower parameter c={c} is a non-positive integer")
    a, b, c, x = _LD(a), _LD(b), _LD(c), _LD(x)
    term = _LD(1.0)
    total = _LD(1.0)
    for k in range(2000):
        term = term * (a + k) * (b + k) * x / ((c + k) * (k + 1))
        total = total + term
        if abs(term) <= _LD_SERIES_TOL * abs(total) and k > 2:
            return total
    raise GuardError(f"series for 2F1({a},{b};{c};{x}) stalled")


def _eval_2f1_ld_array(a, b, c, xs) -> np.ndarray:
    """:func:`_eval_2f1_ld` over broadcast arrays of parameters at each x of
    xs; the result has a leading axis over xs.  In the series region every
    entry is bit-identical to the scalar one; above it the entries come from
    the array form of gauss_2f1, which sees the parameters in their own
    shapes.  Each region sums all its xs in one pass."""
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    out = np.empty((len(xs),) + shape, dtype=_LD)
    high = [t for t, x in enumerate(xs) if x > 0.5]
    low = [t for t, x in enumerate(xs) if x <= 0.5]
    if high:
        out[high] = _gauss_2f1_array(a, b, c, [xs[t] for t in high])
    if low:
        pole = _near_nonpositive_integer_array(c)
        if pole.any():
            raise PoleError(
                f"2F1 lower parameter c={c[pole][0]} is a non-positive integer")
        x = np.array([xs[t] for t in low], dtype=_LD).reshape((-1,) + (1,) * len(shape))
        sums, done = _series_2f1_array(a.astype(_LD), b.astype(_LD),
                                       c.astype(_LD), x, _LD_SERIES_TOL)
        if not done.all():
            t, *i = np.unravel_index(np.argmin(done), done.shape)
            a, b, c = (np.broadcast_to(v, shape)[tuple(i)] for v in (a, b, c))
            raise GuardError(f"series for 2F1({a},{b};{c};{xs[low[t]]}) stalled")
        out[low] = sums
    return out


def _det_ld(M: np.ndarray):
    """Determinant by partial-pivot elimination in extended precision."""
    M = M.astype(_LD, copy=True)
    n = M.shape[0]
    det = _LD(1.0)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(M[k:, k])))
        if M[piv, k] == 0:
            return _LD(0.0)
        if piv != k:
            M[[k, piv]] = M[[piv, k]]
            det = -det
        det = det * M[k, k]
        for i in range(k + 1, n):
            M[i, k:] = M[i, k:] - (M[i, k] / M[k, k]) * M[k, k:]
    return det


def _det_ld_batch(M: np.ndarray) -> np.ndarray:
    """:func:`_det_ld` over a stack of matrices, shape (batch, n, n), with
    the same operations in the same order, so each determinant is
    bit-identical to the scalar one.  The scalar loop stays for single
    matrices, where it is several times faster than this form."""
    M = M.astype(_LD, copy=True)
    batch, n = M.shape[:2]
    det = np.ones(batch, dtype=_LD)
    singular = np.zeros(batch, dtype=bool)
    for k in range(n):
        piv = k + np.abs(M[:, k:, k]).argmax(1)
        moved = np.flatnonzero(piv != k)
        M[moved, k], M[moved, piv[moved]] = M[moved, piv[moved]], M[moved, k]
        det[moved] = -det[moved]
        singular |= M[:, k, k] == 0
        pivot = np.where(singular, 1, M[:, k, k])
        det = det * pivot
        M[:, k + 1:, k:] -= ((M[:, k + 1:, k] / pivot[:, None])[:, :, None]
                             * M[:, k, None, k:])
    det[singular] = 0
    return det


@dataclass(frozen=True)
class AppendixParams:
    """Rank n, complex parameters alpha, beta and a complex n-tuple p for
    the determinant identities, all finite (DomainError otherwise).

    Identity guard:    alpha, alpha+beta not in {1-k : 1 <= k <= n-1}.
    Asymptotic guard:  beta not in {1-k : 1 <= k <= n-1} and
                       alpha+beta not in {1-k : 1 <= k <= 2(n-1)}.
    Both use an exclusion radius of 1e-6.
    """

    n: int
    alpha: complex
    beta: complex
    p: tuple

    def __post_init__(self):
        if self.n < 1:
            raise GuardError(f"rank must be >= 1, got {self.n}")
        if len(self.p) != self.n:
            raise GuardError(f"tuple p has length {len(self.p)}, expected {self.n}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "p", tuple(complex(v) for v in self.p))
        if not all(map(cmath.isfinite, (self.alpha, self.beta) + self.p)):
            raise DomainError(f"a parameter of {self} is not finite")


def _check_excluded(value: complex, points, what: str) -> None:
    for pt in points:
        if abs(value - pt) < GUARD_RADIUS:
            raise GuardError(
                f"{what}={value} within {GUARD_RADIUS} of excluded point {pt}")


def check_identity_guard(ap: AppendixParams) -> None:
    excl = [1.0 - k for k in range(1, ap.n)]
    _check_excluded(ap.alpha, excl, "alpha")
    _check_excluded(ap.alpha + ap.beta, excl, "alpha+beta")


def check_asymptotic_guard(ap: AppendixParams) -> None:
    _check_excluded(ap.beta, [1.0 - k for k in range(1, ap.n)], "beta")
    _check_excluded(ap.alpha + ap.beta,
                    [1.0 - k for k in range(1, 2 * ap.n - 1)], "alpha+beta")


def _hyp_det(entries) -> complex:
    return complex(_det_ld(np.array(entries, dtype=_LD)))


def _shifted_det(ap: AppendixParams, x: float) -> complex:
    """det( 2F1(alpha+n-j, beta+p_i+n; alpha+beta+n-j; x) )_{i,j=1..n}."""
    n, alpha, beta, p = ap.n, ap.alpha, ap.beta, ap.p
    return _hyp_det([[_eval_2f1_ld(alpha + n - (j + 1), beta + p[i] + n,
                                   alpha + beta + n - (j + 1), x)
                      for j in range(n)] for i in range(n)])


def lemma_a_sides(ap: AppendixParams, r: float):
    """Both sides of the column-shift determinant identity at x = 1 - r^2:

      lhs = det( 2F1(alpha, beta+p_i+j; alpha+beta; x) )_{i,j=1..n}
      rhs = (-1)^(n(n-1)/2) x^(n(n-1)/2)
            prod_{k=1}^{n-1} [(alpha+k-1)/(alpha+beta+k-1)]^(n-k)
            det( 2F1(alpha+n-j, beta+p_i+n; alpha+beta+n-j; x) )_{i,j}

    Returns (lhs, rhs).
    """
    check_identity_guard(ap)
    r = validate_radius(r)
    n, alpha, beta, p = ap.n, ap.alpha, ap.beta, ap.p
    x = 1.0 - r * r
    lhs = _hyp_det([[_eval_2f1_ld(alpha, beta + p[i] + (j + 1), alpha + beta, x)
                     for j in range(n)] for i in range(n)])
    return lhs, _lemma_a_prefactor(n, x, _ratio_powers(ap)) * _shifted_det(ap, x)


def _ratio_powers(ap: AppendixParams) -> list:
    """The radius-free factors [(alpha+k-1)/(alpha+beta+k-1)]^(n-k),
    k = 1..n-1, of the right side's prefactor."""
    n, alpha, beta = ap.n, ap.alpha, ap.beta
    return [((alpha + k - 1) / (alpha + beta + k - 1)) ** (n - k)
            for k in range(1, n)]


def _lemma_a_prefactor(n: int, x: float, powers) -> complex:
    """The factor in front of the right side's determinant at x, from the
    ratio powers of :func:`_ratio_powers`, multiplied in order."""
    q0 = n * (n - 1) // 2
    pref = complex((-1) ** q0) * x ** q0
    for power in powers:
        pref *= power
    return pref


def lemma_a_sides_batch(aps, radii):
    """:func:`lemma_a_sides` for a sequence of same-rank draws at each
    radius of radii, with both tables of all draws at all radii evaluated
    together as arrays.  Returns (lhs, rhs) as complex arrays of shape
    (len(radii), len(aps)).  Series-region sides (x <= 1/2) equal the
    per-draw ones bit for bit; above it the array connection formula moves
    them at rounding level.  An empty aps is refused with GuardError.
    """
    if not aps:
        raise GuardError("Lemma A batch needs at least one draw")
    n = aps[0].n
    for ap in aps:
        if ap.n != n:
            raise GuardError(f"batch mixes ranks {n} and {ap.n}")
        check_identity_guard(ap)
    xs = [1.0 - r * r for r in map(validate_radius, radii)]
    alpha = np.array([ap.alpha for ap in aps])[:, None, None]
    beta = np.array([ap.beta for ap in aps])[:, None, None]
    bp = beta + np.array([ap.p for ap in aps])[:, :, None]   # beta + p_i
    j = np.arange(1, n + 1)                                  # column index
    # axes: x, table (lhs, shifted), draw, row, column; the array forms pin
    # their operand order, so no entry's bits depend on the stack's size
    tables = _eval_2f1_ld_array(
        np.stack(np.broadcast_arrays(alpha, alpha + n - j)),
        np.stack(np.broadcast_arrays(bp + j, bp + n)),
        np.stack(np.broadcast_arrays(alpha + beta, alpha + beta + n - j)), xs)
    dets = _det_ld_batch(tables.reshape(-1, n, n)).reshape(len(xs), 2, len(aps))
    powers = [_ratio_powers(ap) for ap in aps]
    rhs = [[_lemma_a_prefactor(n, x, pw) * d
            for pw, d in zip(powers, shifted.astype(complex).tolist())]
           for x, shifted in zip(xs, dets[:, 1])]
    return (dets[:, 0].astype(complex),
            np.array(rhs, dtype=complex).reshape(len(xs), len(aps)))


def lemma_a_rel_error(lhs, rhs, aps, r):
    """Lemma A's |lhs - rhs| / |lhs| for the sides at r of the one draw in
    aps (complex sides) or of each draw of aps (arrays), in either form's
    bits; a zero or non-finite side is refused with GuardError."""
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs) & (lhs != 0))
    if bad.any():
        i = int(np.argmax(bad))
        raise GuardError(
            f"Lemma A sides lhs={np.ravel(lhs)[i]}, rhs={np.ravel(rhs)[i]} of "
            f"{aps[i]} at r={r} leave the relative error undefined")
    return abs(lhs - rhs) / abs(lhs)


def dp_factor(p) -> complex:
    """prod_{i<j} (p_i - p_j)/(j - i) for a pairwise-distinct complex tuple.
    On the integer tuple (m_i - i) it reproduces the Weyl dimension of m."""
    p = tuple(complex(v) for v in p)
    n = len(p)
    out = 1.0 + 0.0j
    for i in range(n):
        for j in range(i + 1, n):
            if abs(p[i] - p[j]) < 1e-8:
                raise CoincidentError(
                    f"entries {i} and {j} of p coincide within 1e-8")
            out *= (p[i] - p[j]) / (j - i)
    return out


def lemma_b_reference(ap: AppendixParams, r: float) -> complex:
    """Asymptotic reference value of the determinant ratio:

        prod_{k=1}^{n-1}(n-k)! * (1-r^2)^(n(n-1)/2)
            * prod_{k=1}^{n-1} (beta+k-1)^(n-k)
                / prod_{j=1}^{n-k} (alpha+beta+n+k-j-2)_2

    with sign +1 at every n.  The paper's candidate sign
    (-1)^((n^2+3n-8)/2) differs from it by (-1)^(n(n-1)/2), so it is wrong
    at n = 2, 3 mod 4, as exact low-order expansions and high-precision
    evaluation show.
    """
    n, alpha, beta = ap.n, ap.alpha, ap.beta
    x = 1.0 - r * r
    out = complex(x ** (n * (n - 1) // 2))
    for k in range(1, n):
        out *= math.factorial(n - k)
        num = (beta + k - 1) ** (n - k)
        den = 1.0 + 0.0j
        for j in range(1, n - k + 1):
            den *= pochhammer(alpha + beta + n + k - j - 2, 2)
        out *= num / den
    return out


def lemma_b_ratio(ap: AppendixParams, r: float) -> complex:
    """[det(2F1(alpha+n-j, beta+p_i+n; alpha+beta+n-j; 1-r^2)) / d_p]
    divided by the asymptotic reference; tends to 1 as r -> 1-."""
    check_asymptotic_guard(ap)
    r = validate_radius(r)
    return (_shifted_det(ap, 1.0 - r * r) / dp_factor(ap.p)
            / lemma_b_reference(ap, r))


def lemma_b_first_order(radii, devs) -> bool:
    """Whether one draw's |ratio - 1| at increasing radii falls at first order
    in 1 - r^2: each step within a factor 2 of the step of 1 - r^2."""
    xs = [1.0 - r * r for r in radii]
    return all(0.5 * x1 / x0 * d0 <= d1 <= 2.0 * x1 / x0 * d0
               for x0, x1, d0, d1 in zip(xs, xs[1:], devs, devs[1:]))


def lemma_b_passed(radii, devs) -> bool:
    """Lemma B's verdict on one draw: the last |ratio - 1| <= LEMMA_B_TOL,
    reached at first order (:func:`lemma_b_first_order`)."""
    return devs[-1] <= LEMMA_B_TOL and lemma_b_first_order(radii, devs)


def pochhammer_product_check(a: complex, n: int) -> CheckReport:
    """prod_{k=1}^{n-1} (a-k)^(n-k)  ==  prod_{k=1}^{n-1} (a-k)_k, to 1e-11
    relative."""
    a = complex(a)
    lhs = 1.0 + 0.0j
    rhs = 1.0 + 0.0j
    for k in range(1, n):
        lhs *= (a - k) ** (n - k)
        rhs *= pochhammer(a - k, k)
    return make_report(lhs, rhs, 1e-11)


def induction_identity_check(s: complex, n: int) -> CheckReport:
    """(s)_{n-1} prod_{k=1}^{n-1} (s-k)_{n-1} / [(s-k+1)_{n-k} (s-k)_{n-k}]
    equals 1 for every n >= 1, to 1e-10 relative."""
    s = complex(s)
    lhs = pochhammer(s, n - 1)
    for k in range(1, n):
        den1 = pochhammer(s - k + 1, n - k)
        den2 = pochhammer(s - k, n - k)
        if abs(den1) < GUARD_RADIUS or abs(den2) < GUARD_RADIUS:
            raise GuardError(
                f"denominator factor at k={k} within {GUARD_RADIUS} of zero; "
                f"move s={s} away from small integers")
        lhs *= pochhammer(s - k, n - 1) / (den1 * den2)
    return make_report(lhs, 1.0, 1e-10)


def e9_identity_check(p: SpectralParams) -> CheckReport:
    """Closed-form factorization of the c-function:

        (Gamma(s+n-1) / [Gamma((s+n+nu)/2) Gamma((s+n-nu)/2)])^n * gamma(s,nu)
            ==  c(s)

    with gamma(s, nu) from :func:`matball.spherical.gamma_constant`, to
    1e-9 relative."""
    n, nu, s = p.n, p.nu, p.s
    scalar = gamma(s + n - 1) / (gamma((s + n + nu) / 2.0) * gamma((s + n - nu) / 2.0))
    lhs = scalar ** n * gamma_constant(p)
    rhs = c_function(p)
    return make_report(lhs, rhs, 1e-9)
