"""Reference per-radius forms for the tests: the 2F1 dispatcher, the
long-double Lemma A tables and the Phi tables that evaluate one x at a
time, which the radius-batched forms of ``matball`` replace.

Every Gamma prefactor, digamma list and connection coefficient is formed
again for each x, on every entry of the broadcast parameters; the series
take the plain stop tests, term == 0 and |term| <= tol |total|, on every
entry in its own dtype, with no complex128 screen; the Lemma A
prefactor is formed whole for each draw and x; and ``weyl_dimension`` is
taken in exact fractions.  The tests compare the library's batched forms
with these bit for bit.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from matball.errors import (ConvergenceError, DegenerateConnection,
                            DomainError, GuardError, PoleError)
from matball.identities import (_LD, _LD_SERIES_TOL, _det_ld_batch,
                                check_identity_guard)
from matball.special import (_INT_TOL, _RING_TOL, _SERIES_MAX_TERMS,
                             _SERIES_TOL, SpectralParams, _gamma_array,
                             _near_nonpositive_integer,
                             _near_nonpositive_integer_array, _rgamma_array,
                             _series_2f1, _series_2f1_terminating, digamma,
                             gamma, reciprocal_gamma)
from matball.spherical import validate_radius, validate_signature


def _log_case_2f1(a: complex, b: complex, m: int, y: float) -> complex:
    """2F1(a, b; a + b - m; 1 - y) for integer m >= 0 and 0 < y <= 1/2,
    via the logarithmic expansions around the argument 1.

    With y = 1 - x:
        2F1(a,b;a+b-m;x) = G(m)G(a+b-m)/(G(a)G(b)) y^(-m)
                sum_{k<m} (a-m)_k (b-m)_k / (k! (1-m)_k) y^k
            - (-1)^m G(a+b-m)/(G(a-m)G(b-m))
                sum_{k>=0} (a)_k (b)_k / (k! (k+m)!) y^k
                  [ln y - psi(k+1) - psi(k+m+1) + psi(a+k) + psi(b+k)]
    """
    if m > _SERIES_MAX_TERMS:
        raise ConvergenceError(
            f"log-case 2F1 finite sum of m={float(m):g} terms exceeds "
            f"{_SERIES_MAX_TERMS}")
    ln_y = math.log(y)
    c = a + b - m
    finite = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(m):
        finite += term
        if k < m - 1:
            term *= (a - m + k) * (b - m + k) * y / ((k + 1.0) * (1.0 - m + k))
    out = 0.0 + 0.0j
    if m > 0:  # at m = 0 the finite sum is empty and G(m) has its pole
        out = (gamma(float(m)) * gamma(c) * reciprocal_gamma(a) * reciprocal_gamma(b)
               * y ** (-m) * finite)
    coef = (-1.0) ** m * gamma(c) * reciprocal_gamma(a - m) * reciprocal_gamma(b - m)
    if coef != 0.0:
        term = 1.0 / math.factorial(m)
        total = 0.0 + 0.0j
        psi = [digamma(j + 1.0) for j in range(m)]  # psi[j] = digamma(j + 1)
        for k in range(_SERIES_MAX_TERMS):
            psi.append(digamma(k + m + 1.0))
            piece = term * (ln_y - psi[k] - psi[k + m]
                            + digamma(a + k) + digamma(b + k))
            total += piece
            term *= (a + k) * (b + k) * y / ((k + 1.0) * (k + m + 1.0))
            if abs(piece) <= _SERIES_TOL * abs(total) and k > 2:
                break
        else:
            raise ConvergenceError(
                f"log-case 2F1 series stalled: a={a}, b={b}, m={m}, y={y}")
        out -= coef * total
    return out


def gauss_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; x) for real x in [0, 1).

    Direct series for x <= 1/2.  For x > 1/2 the two-term connection
    formula is used, with both sub-series at argument 1 - x <= 1/2:

        2F1(a,b;c;x) = G(c)G(c-a-b)/(G(c-a)G(c-b)) 2F1(a,b;a+b-c+1;1-x)
            + G(c)G(a+b-c)/(G(a)G(b)) (1-x)^(c-a-b) 2F1(c-a,c-b;c-a-b+1;1-x)

    When c - a - b is an exact integer (within 1e-12) the two-term formula
    degenerates and the exact logarithmic expansion is used instead; in the
    ill-conditioned ring around an integer (within 1e-9 but not 1e-12)
    DegenerateConnection is raised.  Terminating cases (a or b a
    non-positive integer) are summed exactly as polynomials for any x.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"2F1 argument must satisfy 0 <= x < 1, got {x}")
    if _near_nonpositive_integer(c):
        raise PoleError(f"2F1 lower parameter c={c} is a non-positive integer")
    a, b, c = complex(a), complex(b), complex(c)

    # a or b within 1e-12 of a non-positive integer -k: a polynomial of degree k
    orders = [-round(v.real) for v in (a, b) if _near_nonpositive_integer(v)]
    if orders:
        return _series_2f1_terminating(a, b, c, x, min(orders))

    if x <= 0.5:
        return _series_2f1(a, b, c, x)

    d = c - a - b
    y = 1.0 - x
    if abs(d.imag) <= _INT_TOL and abs(d.real - round(d.real)) <= _INT_TOL:
        md = round(d.real)
        if md > 0:
            # Euler transform flips c-a-b to its negative; the prefactor is
            # an exact integer power of y.
            return y ** md * _log_case_2f1(c - a, c - b, md, y)
        return _log_case_2f1(a, b, -md, y)
    if abs(d.imag) < _RING_TOL and abs(d.real - round(d.real)) < _RING_TOL:
        raise DegenerateConnection(
            f"c-a-b={d} is within 1e-9 of an integer; the connection formula "
            "is ill-conditioned there (logarithmic case)")
    coef1 = gamma(c) * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
    coef2 = gamma(c) * gamma(-d) * reciprocal_gamma(a) * reciprocal_gamma(b)
    term1 = coef1 * _series_2f1(a, b, a + b - c + 1.0, y) if coef1 != 0.0 else 0.0
    term2 = (coef2 * cmath.exp(d * math.log(y)) *
             _series_2f1(c - a, c - b, d + 1.0, y)) if coef2 != 0.0 else 0.0
    return term1 + term2


def _series_2f1_array(a, b, c, x, tol):
    """Power series of 2F1 over broadcast arrays of complex or clongdouble
    parameters a, b, c and of real or same-dtype arguments x.  Each entry
    stops at the term where the scalar loops stop: a zero term, or from
    k = 3 on a term of at most tol times the sum, both tested on the term
    itself in its own dtype.  Returns (sums, done); done is False where
    _SERIES_MAX_TERMS terms did not suffice."""
    a, b, c, x = np.broadcast_arrays(a, b, c, x)
    sums = np.ones(a.shape, dtype=a.dtype)
    live = np.arange(a.size)
    a, b, c, x = a.ravel(), b.ravel(), c.ravel(), x.ravel()
    term = np.ones_like(a)
    total = np.ones_like(a)
    for k in range(_SERIES_MAX_TERMS):
        if not live.size:
            break
        # in place, so that each product keeps its operand order on a
        # stack of any size
        term *= a + k
        term *= b + k
        term *= x
        term /= (c + k) * (k + 1)
        total = total + term
        stop = term == 0
        if k > 2:
            stop |= np.abs(term) <= tol * np.abs(total)
        if stop.any():
            sums.flat[live[stop]] = total[stop]
            keep = ~stop
            live, a, b, c, x, term, total = (
                v[keep] for v in (live, a, b, c, x, term, total))
    done = np.ones(sums.shape, dtype=bool)
    done.flat[live] = False
    return sums, done


def _connection_2f1_array(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          x: float):
    """The two-term connection formula of :func:`gauss_2f1` over arrays at
    one x > 1/2, for entries off its special branches.  Returns (values,
    done) as :func:`_series_2f1_array` does."""
    d = c - a - b
    y = 1.0 - x
    gc = _gamma_array(c)
    coef1 = gc * _gamma_array(d) * _rgamma_array(c - a) * _rgamma_array(c - b)
    coef2 = gc * _gamma_array(-d) * _rgamma_array(a) * _rgamma_array(b)
    s1, done1 = _series_2f1_array(a, b, a + b - c + 1.0, y, _SERIES_TOL)
    s2, done2 = _series_2f1_array(c - a, c - b, d + 1.0, y, _SERIES_TOL)
    return coef1 * s1 + coef2 * np.exp(d * math.log(y)) * s2, done1 & done2


def _gauss_2f1_array(a, b, c, x: float) -> np.ndarray:
    """:func:`gauss_2f1` over broadcast arrays of parameters at one x.

    Entries on the series branch (x <= 1/2) or on the two-term connection
    branch are summed together as arrays.  Every other entry (terminating,
    logarithmic case, the ill-conditioned ring, a pole of c, an x outside
    [0, 1), a series past its term limit, a non-finite array value) goes
    through gauss_2f1 one by one, so it returns or raises exactly what the
    scalar call does.
    """
    a, b, c = (np.asarray(v, dtype=complex) for v in np.broadcast_arrays(a, b, c))
    scalar = (_near_nonpositive_integer_array(a)
              | _near_nonpositive_integer_array(b)
              | _near_nonpositive_integer_array(c) | (not 0.0 <= x < 1.0))
    if x > 0.5:
        d = c - a - b
        scalar |= ((np.abs(d.imag) < _RING_TOL)
                   & (np.abs(d.real - np.round(d.real)) < _RING_TOL))
    out = np.empty(a.shape, dtype=complex)
    fast = ~scalar
    if fast.any():
        # an entry that overflows here is redone, and refused, by the scalar
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if x > 0.5:
                vals, done = _connection_2f1_array(a[fast], b[fast], c[fast], x)
            else:
                vals, done = _series_2f1_array(a[fast], b[fast], c[fast], x,
                                               _SERIES_TOL)
        out[fast] = vals
        scalar[fast] = ~(done & np.isfinite(vals))
    for i in zip(*np.nonzero(scalar)):
        out[i] = gauss_2f1(a[i], b[i], c[i], x)
    return out


def _eval_2f1_ld_array(a, b, c, x: float) -> np.ndarray:
    """:func:`_eval_2f1_ld` over broadcast arrays of parameters at one x.
    In the series region every entry is bit-identical to the scalar one;
    above it the entries come from the array form of gauss_2f1."""
    if x > 0.5:
        return _gauss_2f1_array(a, b, c, x).astype(_LD)
    a, b, c = (np.asarray(v, dtype=complex) for v in np.broadcast_arrays(a, b, c))
    pole = _near_nonpositive_integer_array(c)
    if pole.any():
        raise PoleError(
            f"2F1 lower parameter c={c[pole][0]} is a non-positive integer")
    sums, done = _series_2f1_array(a.astype(_LD), b.astype(_LD), c.astype(_LD),
                                   _LD(x), _LD_SERIES_TOL)
    if not done.all():
        i = np.argmin(done)
        raise GuardError(f"series for 2F1({a.flat[i]},{b.flat[i]};{c.flat[i]};"
                         f"{x}) stalled")
    return sums


def _lemma_a_prefactor(ap, x: float) -> complex:
    """The factor in front of the right side's determinant."""
    n, alpha, beta = ap.n, ap.alpha, ap.beta
    q0 = n * (n - 1) // 2
    pref = complex((-1) ** q0) * x ** q0
    for k in range(1, n):
        pref *= ((alpha + k - 1) / (alpha + beta + k - 1)) ** (n - k)
    return pref


def lemma_a_sides_batch(aps, r: float):
    """:func:`lemma_a_sides` for a sequence of same-rank draws at one
    radius, with the tables of all draws evaluated together as arrays.
    Returns (lhs, rhs) as complex arrays, one entry per draw.  Series-region
    sides (x <= 1/2) equal the per-draw ones bit for bit; above it the
    array connection formula moves them at rounding level.
    """
    n = aps[0].n
    for ap in aps:
        if ap.n != n:
            raise GuardError(f"batch mixes ranks {n} and {ap.n}")
        check_identity_guard(ap)
    r = validate_radius(r)
    x = 1.0 - r * r
    alpha = np.array([ap.alpha for ap in aps])[:, None, None]
    beta = np.array([ap.beta for ap in aps])[:, None, None]
    bp = beta + np.array([ap.p for ap in aps])[:, :, None]   # beta + p_i
    j = np.arange(1, n + 1)                                  # column index
    lhs = _det_ld_batch(_eval_2f1_ld_array(alpha, bp + j, alpha + beta, x))
    shifted = _det_ld_batch(_eval_2f1_ld_array(alpha + n - j, bp + n,
                                               alpha + beta + n - j, x))
    rhs = [_lemma_a_prefactor(ap, x) * d
           for ap, d in zip(aps, shifted.astype(complex).tolist())]
    return lhs.astype(complex), np.array(rhs)


def weyl_dimension(m) -> int:
    """Dimension of the unitary-group irreducible with signature m:
    product over i < j of (1 + (m_i - m_j)/(j - i))."""
    m = validate_signature(m)
    n = len(m)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(m[i] - m[j] + j - i, j - i)
    if out.denominator != 1 or out <= 0:
        raise DomainError(f"signature {m} does not index an irreducible")
    return int(out)


def phi_scalar_core(p: SpectralParams, k: int, r: float) -> complex:
    """r^|k| ((s+n+eps*nu)/2)_|k| / (1)_|k| * 2F1(...) -- the Fourier-mode
    profile of the kernel without the (1-r^2)^((s+n-nu)/2) factor, with
    eps = +1 for k >= 0 and -1 for k < 0."""
    r = validate_radius(r)
    n, nu, s = p.n, p.nu, p.s
    ak = abs(int(k))
    e = 1 if k >= 0 else -1
    a_plus = (s + n + e * nu) / 2.0
    a_minus = (s + n - e * nu) / 2.0
    ratio = 1.0 + 0.0j
    for i in range(ak):
        ratio *= (a_plus + i) / (1.0 + i)
    return r ** ak * ratio * gauss_2f1(a_minus, a_plus + ak, 1.0 + ak, r * r)


def phi_scalar(p: SpectralParams, k: int, r: float) -> complex:
    """Scalar radial profile

        phi_{s,k}(r) = r^|k| (1-r^2)^((s+n-nu)/2)
                       ((s+n+eps(k)nu)/2)_|k| / (1)_|k|
                       2F1((s+n-eps(k)nu)/2, (s+n+eps(k)nu)/2 + |k|; 1+|k|; r^2)

    with eps(k) = +1 for k >= 0 and -1 for k < 0, s = i*lambda.
    """
    r = validate_radius(r)
    n, nu, s = p.n, p.nu, p.s
    weight = cmath.exp((s + n - nu) / 2.0 * math.log1p(-r * r)) if r > 0 else 1.0
    return weight * phi_scalar_core(p, k, r)


def phi_bigs(p: SpectralParams, sigs, r: float) -> list:
    """Radial profiles on the K-types with signatures m in sigs:

        Phi_{s,m}(r) = det( phi_{s, m_i - i + j}(r) )_{i,j=1..n} / d_m

    normalized so that Phi_{s,0}(0) = 1 under probability Haar measure on
    the boundary (the determinant at m = 0, r = 0 is that of the identity).
    Each distinct scalar profile phi_{s,k}(r) is evaluated once per call.
    """
    sigs = [validate_signature(m, p.n) for m in sigs]
    r = validate_radius(r)
    n = p.n
    ks = {m[i] - i + j for m in sigs for i in range(n) for j in range(n)}
    phi = {k: phi_scalar(p, k, r) for k in ks}
    if n == 1:
        return [phi[m[0]] for m in sigs]
    return [complex(np.linalg.det(np.array(
        [[phi[m[i] - i + j] for j in range(n)] for i in range(n)], complex)))
        / weyl_dimension(m) for m in sigs]
