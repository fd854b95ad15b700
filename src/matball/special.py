"""Complex special functions: Gamma, Pochhammer, Gauss 2F1 on [0, 1),
the Gindikin Gamma function and the spectral c-function.

Every operation is a pure function of its arguments.  The spectral variable
is always s = i*lambda; no function in this package consumes lambda itself.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateConnection, DomainError, PoleError

_INT_TOL = 1e-12
# c - a - b this close to an integer (but not within _INT_TOL) leaves the
# two-term connection formula ill-conditioned
_RING_TOL = 1e-9
# Lanczos coefficients, g = 7, 9 terms.  Relative error below 2e-13 on
# |z| <= 50 (checked against a 50-digit reference).
_LANCZOS_G = 7.5
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_L0, _L1, _L2, _L3, _L4, _L5, _L6, _L7, _L8 = _LANCZOS_COEFFS
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 2000


def _is_integer(v) -> bool:
    """The integer rule of a signature part, a Fourier mode and an order:
    an Integral or an integral float (a plain int skips the slower ABC test)."""
    return type(v) is int or isinstance(v, numbers.Integral) or (
        isinstance(v, float) and v.is_integer())


def _near_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")
    if abs(z.imag) > _INT_TOL:
        return False
    k = round(z.real)
    return k <= 0 and abs(z.real - k) <= _INT_TOL


# gamma and digamma sit behind bounded LRU memos: one library call repeats
# many of their arguments (the entries k and -k of a Phi table share
# Gamma(1 + |k|), and every k >= 0 shares Gamma((s + n - nu)/2)).  The
# key is the exact bits of the argument, signed zeros included: complex
# equality merges 2+0j and 2-0j, so a complex key could serve one of them
# the value computed at the other.  lru_cache stores no exception, so a
# pole raises PoleError on every call.
_MEMO_SIZE = 512
_BITS = struct.Struct("2d")


def gamma(z: complex) -> complex:
    """Gamma function for complex argument (Lanczos sum plus reflection).

    Raises PoleError within 1e-12 of a pole, DomainError at a non-finite z.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"Gamma argument {z} is not finite")
    return _gamma_memo(_BITS.pack(z.real, z.imag))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _gamma_memo(bits: bytes) -> complex:
    z = complex(*_BITS.unpack(bits))
    if z.real < 0.5:  # where every pole lies
        if _near_nonpositive_integer(z):
            raise PoleError(f"Gamma pole at z={z}")
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z), read from the
        # memo, so that a call of gamma is one call whatever the memo holds
        w = 1.0 - z
        return math.pi / (cmath.sin(math.pi * z)
                          * _gamma_memo(_BITS.pack(w.real, w.imag)))
    w = z - 1.0
    # the Lanczos sum, added left to right from complex(_L0)
    x = (complex(_L0) + _L1 / (w + 1) + _L2 / (w + 2) + _L3 / (w + 3)
         + _L4 / (w + 4) + _L5 / (w + 5) + _L6 / (w + 6) + _L7 / (w + 7)
         + _L8 / (w + 8))
    t = w + _LANCZOS_G
    return _SQRT_2PI * t ** (w + 0.5) * cmath.exp(-t) * x


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); exactly zero at the poles of Gamma."""
    if _near_nonpositive_integer(z):
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


# Array forms of the scalar functions above and of the 2F1 branches below.
# They pay only across many tables at once: over a single n x n table
# (n <= 4) they are slower than the scalar loops, which stay the path for
# single evaluations.

def _near_nonpositive_integer_array(z: np.ndarray) -> np.ndarray:
    k = np.round(z.real)
    return ((np.abs(z.imag) <= _INT_TOL) & (k <= 0)
            & (np.abs(z.real - k) <= _INT_TOL))


def _gamma_array(z) -> np.ndarray:
    """:func:`gamma` over an array, with the reflection taken through a
    mask.  Raises PoleError and DomainError where :func:`gamma` does."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError(f"Gamma argument {z[~np.isfinite(z)][0]} is not finite")
    pole = _near_nonpositive_integer_array(z)
    if pole.any():
        raise PoleError(f"Gamma pole at z={z[pole][0]}")
    refl = z.real < 0.5
    w = np.where(refl, 1.0 - z, z) - 1.0
    x = np.full(z.shape, complex(_LANCZOS_COEFFS[0]))
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        x = x + c / (w + i)
    t = w + _LANCZOS_G
    out = _SQRT_2PI * t ** (w + 0.5) * np.exp(-t) * x
    out[refl] = math.pi / (np.sin(math.pi * z[refl]) * out[refl])
    return out


def _rgamma_array(z) -> np.ndarray:
    """:func:`reciprocal_gamma` over an array: exactly zero at the poles."""
    z = np.asarray(z, dtype=complex)
    pole = _near_nonpositive_integer_array(z)
    out = np.zeros(z.shape, dtype=complex)
    out[~pole] = 1.0 / _gamma_array(z[~pole])
    return out


# Bernoulli numbers B_2 .. B_14 for the digamma asymptotic tail.
_DIGAMMA_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def digamma(z: complex) -> complex:
    """Digamma function psi(z) = Gamma'(z)/Gamma(z) for complex z.

    Recurrence pushes the argument to Re(z) >= 10, then the asymptotic
    series ln z - 1/(2z) - sum B_2k / (2k z^2k) is applied.
    """
    z = complex(z)
    return _digamma_memo(_BITS.pack(z.real, z.imag))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _digamma_memo(bits: bytes) -> complex:
    z = complex(*_BITS.unpack(bits))
    if _near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z={z}")
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    out = cmath.log(z) - 0.5 / z
    z2 = 1.0 / (z * z)
    zp = z2
    for i, b in enumerate(_DIGAMMA_BERNOULLI, start=1):
        out -= b / (2.0 * i) * zp
        zp *= z2
    return out + acc


def pochhammer(a: complex, k: int) -> complex:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.  Refuses a
    non-finite a and an order k that is not a non-negative integer."""
    if not _is_integer(k) or k < 0:
        raise DomainError(f"pochhammer order must be an integer >= 0, got {k!r}")
    out = 1.0 + 0.0j
    a = complex(a)
    if not cmath.isfinite(a):
        raise DomainError(f"pochhammer argument {a} is not finite")
    for i in range(int(k)):
        out *= a + i
    return out


def _series_2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """Power series sum of 2F1; relies on geometric decay (x <= 1/2) or on
    a terminating parameter."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(_SERIES_MAX_TERMS):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        total += term
        if term == 0.0:
            return total
        if abs(term) <= _SERIES_TOL * abs(total) and k > 2:
            return total
    raise ConvergenceError(
        f"2F1 series did not converge: a={a}, b={b}, c={c}, x={x}")


def _series_2f1_terminating(a: complex, b: complex, c: complex, x: float,
                            order: int) -> complex:
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(order):
        term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
        total += term
    return total


def _log_case_2f1(a: complex, b: complex, m: int, ys) -> list:
    """2F1(a, b; a + b - m; 1 - y) for integer m >= 0 at each y of ys, all
    in (0, 1/2], via the logarithmic expansions around the argument 1.

    With y = 1 - x:
        2F1(a,b;a+b-m;x) = G(m)G(a+b-m)/(G(a)G(b)) y^(-m)
                sum_{k<m} (a-m)_k (b-m)_k / (k! (1-m)_k) y^k
            - (-1)^m G(a+b-m)/(G(a-m)G(b-m))
                sum_{k>=0} (a)_k (b)_k / (k! (k+m)!) y^k
                  [ln y - psi(k+1) - psi(k+m+1) + psi(a+k) + psi(b+k)]

    The Gamma prefactors and the digamma values do not depend on y, so
    they are evaluated once; the digamma lists grow to the longest series.
    """
    if m > _SERIES_MAX_TERMS:
        raise ConvergenceError(
            f"log-case 2F1 finite sum of m={float(m):g} terms exceeds "
            f"{_SERIES_MAX_TERMS}")
    gc = gamma(a + b - m)
    out = []
    if m > 0:  # at m = 0 the finite sum is empty and G(m) has its pole
        pre = gamma(float(m)) * gc * reciprocal_gamma(a) * reciprocal_gamma(b)
    for y in ys:
        finite = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for k in range(m):
            finite += term
            if k < m - 1:
                term *= (a - m + k) * (b - m + k) * y / ((k + 1.0) * (1.0 - m + k))
        out.append(pre * y ** (-m) * finite if m > 0 else 0.0 + 0.0j)
    coef = (-1.0) ** m * gc * reciprocal_gamma(a - m) * reciprocal_gamma(b - m)
    if coef == 0.0:
        return out
    psi = [digamma(j + 1.0) for j in range(m)]  # psi[j] = digamma(j + 1)
    psi_a, psi_b = [], []                       # digamma(a + k), digamma(b + k)
    for i, y in enumerate(ys):
        ln_y = math.log(y)
        term = 1.0 / math.factorial(m)
        total = 0.0 + 0.0j
        for k in range(_SERIES_MAX_TERMS):
            if k == len(psi_a):
                psi.append(digamma(k + m + 1.0))
                psi_a.append(digamma(a + k))
                psi_b.append(digamma(b + k))
            piece = term * (ln_y - psi[k] - psi[k + m] + psi_a[k] + psi_b[k])
            total += piece
            term *= (a + k) * (b + k) * y / ((k + 1.0) * (k + m + 1.0))
            if abs(piece) <= _SERIES_TOL * abs(total) and k > 2:
                break
        else:
            raise ConvergenceError(
                f"log-case 2F1 series stalled: a={a}, b={b}, m={m}, y={y}")
        out[i] -= coef * total
    return out


def _gauss_2f1_xs(a: complex, b: complex, c: complex, xs) -> list:
    """:func:`gauss_2f1` at each x of xs, one value per x.  The branch
    decisions, the connection coefficients and the log-case prefactors do
    not depend on x and are made once; each value is bit-identical to its
    own one-x call."""
    for x in xs:
        if not 0.0 <= x < 1.0:
            raise DomainError(f"2F1 argument must satisfy 0 <= x < 1, got {x}")
    if _near_nonpositive_integer(c):
        raise PoleError(f"2F1 lower parameter c={c} is a non-positive integer")
    a, b, c = complex(a), complex(b), complex(c)

    # a or b within 1e-12 of a non-positive integer -k: a polynomial of degree k
    orders = [-round(v.real) for v in (a, b) if _near_nonpositive_integer(v)]
    if orders:
        return [_series_2f1_terminating(a, b, c, x, min(orders)) for x in xs]
    ys = [1.0 - x for x in xs if x > 0.5]
    upper = iter(_connection_2f1(a, b, c, ys) if ys else ())
    return [_series_2f1(a, b, c, x) if x <= 0.5 else next(upper) for x in xs]


def _connection_2f1(a: complex, b: complex, c: complex, ys) -> list:
    """2F1(a, b; c; 1 - y) at each y of ys in (0, 1/2): the logarithmic
    expansion when c - a - b is an integer, else the two-term connection
    formula (see :func:`gauss_2f1`)."""
    d = c - a - b
    if abs(d.imag) <= _INT_TOL and abs(d.real - round(d.real)) <= _INT_TOL:
        md = round(d.real)
        if md > 0:
            # Euler transform flips c-a-b to its negative; the prefactor is
            # an exact integer power of y.
            return [y ** md * v
                    for y, v in zip(ys, _log_case_2f1(c - a, c - b, md, ys))]
        return _log_case_2f1(a, b, -md, ys)
    if abs(d.imag) < _RING_TOL and abs(d.real - round(d.real)) < _RING_TOL:
        raise DegenerateConnection(
            f"c-a-b={d} is within 1e-9 of an integer; the connection formula "
            "is ill-conditioned there (logarithmic case)")
    gc = gamma(c)
    coef1 = gc * gamma(d) * reciprocal_gamma(c - a) * reciprocal_gamma(c - b)
    coef2 = gc * gamma(-d) * reciprocal_gamma(a) * reciprocal_gamma(b)
    out = []
    for y in ys:
        term1 = coef1 * _series_2f1(a, b, a + b - c + 1.0, y) if coef1 != 0.0 else 0.0
        term2 = (coef2 * cmath.exp(d * math.log(y)) *
                 _series_2f1(c - a, c - b, d + 1.0, y)) if coef2 != 0.0 else 0.0
        out.append(term1 + term2)
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
    return _gauss_2f1_xs(a, b, c, (x,))[0]


def _below_tol(term, total, tol, t=None):
    """The series stop test |term| <= tol |total|, entry by entry; t is
    |term| where the caller has taken it already."""
    return (np.abs(term) if t is None else t) <= tol * np.abs(total)


# The relative band around tol inside which a long-double stop is decided
# exactly: the complex128 magnitudes put the ratio within ~1e-15 of its
# exact value, and long double rounds within ~1e-19
_SCREEN_BAND = 1e-12
_TINY = np.finfo(float).tiny


def _small_terms(term, total, tol, settled, t):
    """:func:`_below_tol` for the long-double entries not marked in
    ``settled`` (those stopped by a zero term, whose result is not read),
    given t = |term| in complex128.

    An entry whose ratio |term| / |total| lies more than _SCREEN_BAND
    (relative) from tol is decided from complex128 magnitudes, which give
    the same answer and skip long double's slow hypot.  The exact test runs
    on the rest: entries inside the band, and entries whose cast leaves
    double's normal range (non-finite, zero or subnormal), since long
    double reaches beyond it.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = np.abs(total.astype(complex))
        ratio = t / s
    small = ratio <= tol * (1.0 - _SCREEN_BAND)
    large = ratio >= tol * (1.0 + _SCREEN_BAND)
    normal = (np.minimum(t, s) >= _TINY) & (np.maximum(t, s) < np.inf)
    exact = ~(settled | (normal & (small | large)))
    if exact.any():
        small[exact] = _below_tol(term[exact], total[exact], tol)
    return small


def _stops(term, total, tol, k):
    """The entries whose series stops at this term: a zero term, or from
    k = 3 on |term| <= tol |total|.  One magnitude serves both tests:
    |term| is 0 exactly when term is, also for NaN, inf and subnormal
    parts.  A long-double term is measured by its complex128 cast, and
    compared with 0 in long double only where the cast is 0, since a
    nonzero long double can cast to 0."""
    if term.dtype != np.clongdouble:
        t = np.abs(term)
        stop = t == 0
        if k > 2:
            stop |= _below_tol(term, total, tol, t)
        return stop
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = np.abs(term.astype(complex))
    stop = t == 0
    zero = np.flatnonzero(stop)
    if zero.size:
        stop[zero] = term[zero] == 0
    if k > 2:
        stop |= _small_terms(term, total, tol, stop, t)
    return stop


def _series_2f1_array(a, b, c, x, tol):
    """Power series of 2F1 over broadcast arrays of complex or clongdouble
    parameters a, b, c and of real or same-dtype arguments x.  Each entry
    stops at the term where the scalar loops stop: a zero term, or from
    k = 3 on a term of at most tol times the sum.  Returns (sums, done);
    done is False where _SERIES_MAX_TERMS terms did not suffice."""
    a, b, c, x = np.broadcast_arrays(a, b, c, x)
    sums = np.ones(a.shape, dtype=a.dtype)
    live = np.arange(a.size)
    # x is cast once to the terms' dtype, as each product would cast it
    a, b, c, x = a.ravel(), b.ravel(), c.ravel(), x.astype(a.dtype).ravel()
    term = np.ones_like(a)
    total = np.ones_like(a)
    stopped = np.zeros(a.size, dtype=bool)
    for k in range(_SERIES_MAX_TERMS):
        if not live.size:
            break
        # term (a+k) (b+k) x / ((c+k)(k+1)), each product in place so that
        # it keeps its operand order on a stack of any size (see below)
        term *= a + k
        term *= b + k
        term *= x
        term /= (c + k) * (k + 1)
        total += term
        new = np.flatnonzero(_stops(term, total, tol, k) & ~stopped)
        if new.size:
            # an entry's sum is taken at its own stop term; its zeroed term
            # then rides along until a quarter of the arrays has stopped and
            # they are compacted, rather than re-indexed at every stop
            sums.flat[live[new]] = total[new]
            term[new] = 0
            stopped[new] = True
            if 4 * np.count_nonzero(stopped) >= live.size:
                keep = np.flatnonzero(~stopped)
                live, a, b, c, x, term, total, stopped = (
                    v.take(keep) for v in (live, a, b, c, x, term, total, stopped))
    done = np.ones(sums.shape, dtype=bool)
    done.flat[live[~stopped]] = False
    return sums, done


# The array forms stack parameters and arguments of any size.  numpy
# evaluates `u * v` as `v *= u` when v is a temporary of at least 256 KiB
# (16,384 complex128 entries) and u is not, and its SIMD complex product is
# not bitwise commutative.  So every complex product whose right operand is
# a temporary pins its order, by an in-place update or a direct np.multiply
# call, and an entry gets the same bits alone and on any stack.  Products
# with a real scalar commute bit for bit and need no pin.

def _connection_2f1_array(a: np.ndarray, b: np.ndarray, c: np.ndarray, ys):
    """The two-term connection formula of :func:`gauss_2f1` over
    broadcastable arrays of parameters off its special branches, at each
    y = 1 - x of ys (y < 1/2).  Each Gamma factor is formed once for all ys,
    over the shape of its own argument before it is broadcast, so a
    parameter that is constant along an axis is evaluated once along it;
    both sub-series at every y are summed in one :func:`_series_2f1_array`
    call.  Returns (values, done) of shape (len(ys), size of the broadcast
    shape), entries in its C order."""
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)

    def full(v):
        return np.broadcast_to(v, shape).ravel()

    ca = c - a
    d = full(ca - b)
    gc = full(_gamma_array(c))
    coef1 = (np.multiply(gc, _gamma_array(d)) * full(_rgamma_array(ca))
             * full(_rgamma_array(c - b)))
    coef2 = (np.multiply(gc, _gamma_array(-d)) * full(_rgamma_array(a))
             * full(_rgamma_array(b)))
    a, b, c = full(a), full(b), full(c)
    # axes: sub-series, y, entry
    (s1, s2), done = _series_2f1_array(
        np.stack([a, full(ca)])[:, None], np.stack([b, c - b])[:, None],
        np.stack([a + b - c + 1.0, d + 1.0])[:, None],
        np.array(ys)[:, None], _SERIES_TOL)
    log_y = np.array([math.log(y) for y in ys])[:, None]
    return coef1 * s1 + np.multiply(coef2, np.exp(d * log_y)) * s2, done.all(0)


def _gauss_2f1_array(a, b, c, xs) -> np.ndarray:
    """:func:`gauss_2f1` over broadcast arrays of parameters at each x of
    xs; the result has a leading axis over xs.

    Entries on the two-term connection branch (1/2 < x < 1) are summed
    together as arrays, in one series pass for all xs.  Every other entry
    (an x outside (1/2, 1), terminating, logarithmic case, the
    ill-conditioned ring, a pole of c, a series past its term limit, a
    non-finite array value) goes through gauss_2f1 one by one, so it
    returns or raises exactly what the scalar call does.  When every entry
    takes the connection branch, its Gamma factors see the parameters in
    their own shapes (see :func:`_connection_2f1_array`).
    """
    args = [np.asarray(v, dtype=complex) for v in (a, b, c)]
    shape = np.broadcast_shapes(*(v.shape for v in args))
    a, b, c = (np.broadcast_to(v, shape).ravel() for v in args)
    d = c - a - b
    fast = ~(_near_nonpositive_integer_array(a)
             | _near_nonpositive_integer_array(b)
             | _near_nonpositive_integer_array(c)
             | ((np.abs(d.imag) < _RING_TOL)
                & (np.abs(d.real - np.round(d.real)) < _RING_TOL)))
    rows = [t for t, x in enumerate(xs) if 0.5 < x < 1.0]
    out = np.empty((len(xs), a.size), dtype=complex)
    scalar = np.ones(out.shape, dtype=bool)
    if rows and fast.any():
        # an entry that overflows here is redone, and refused, by the scalar
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals, done = _connection_2f1_array(
                *(args if fast.all() else (a[fast], b[fast], c[fast])),
                [1.0 - xs[t] for t in rows])
        block = np.ix_(rows, fast)
        out[block] = vals
        scalar[block] = ~(done & np.isfinite(vals))
    for t, i in zip(*np.nonzero(scalar)):
        out[t, i] = gauss_2f1(a[i], b[i], c[i], xs[t])
    return out.reshape((len(xs),) + shape)


def gindikin_gamma(s: complex, n: int) -> complex:
    """Gindikin Gamma function: product of Gamma(s - (j-1)) for j = 1..n.
    Refuses a rank n that is not an integer >= 1, and a non-finite s."""
    if not _is_integer(n) or n < 1:
        raise DomainError(f"rank must be an integer >= 1, got {n!r}")
    out = 1.0 + 0.0j
    for j in range(1, int(n) + 1):
        arg = complex(s) - (j - 1)
        if _near_nonpositive_integer(arg):
            raise PoleError(
                f"Gindikin Gamma pole: factor j={j} has Gamma argument {arg}")
        out *= gamma(arg)
    return out


@dataclass(frozen=True)
class SpectralParams:
    """Rank n, integer weight nu and the spectral variable s = i*lambda.

    The generic set excludes s within 1e-12 of the real lattice
    n - 2 +/- nu - 2k, k = 0, 1, 2, ...; the asymptotic range is
    Re(s) > n - 1.
    """

    n: int
    nu: int
    s: complex

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"rank must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.nu, int):
            raise DomainError(f"weight nu must be an integer, got {self.nu!r}")
        s = complex(self.s)
        if not cmath.isfinite(s):
            raise DomainError(f"spectral variable s must be finite, got {s}")
        object.__setattr__(self, "s", s)

    @property
    def in_generic_set(self) -> bool:
        return not any(_near_nonpositive_integer(complex(
            (self.s.real - (self.n - 2) - sign * self.nu) / 2.0, self.s.imag))
            for sign in (1, -1))

    @property
    def in_asymptotic_range(self) -> bool:
        return self.s.real > self.n - 1


def c_function(p: SpectralParams) -> complex:
    """Spectral c-function

        c(s) = GindikinGamma(n) GindikinGamma(s)
               / [GindikinGamma((s+n+nu)/2) GindikinGamma((s+n-nu)/2)]

    evaluated at s = i*lambda.  Where a denominator factor has its pole
    and the numerator is finite (s on the excluded lattice) c(s) is exactly
    zero; a numerator pole raises PoleError.
    """
    n, nu, s = p.n, p.nu, p.s
    num = gindikin_gamma(complex(n), n) * gindikin_gamma(s, n)
    try:
        den = gindikin_gamma((s + n + nu) / 2.0, n) * gindikin_gamma((s + n - nu) / 2.0, n)
    except PoleError:
        return 0j
    return num / den
