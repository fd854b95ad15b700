"""60-digit references for the tests, evaluated with mpmath from the
defining formulas: the spherical function Phi_{s,m}(r) and the Harish-Chandra
c-function c(s).  Each function sets its own working precision and returns
an mpmath number at 60 digits.
"""

import mpmath as mp

DIGITS = 60


def _mpc(z):
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _phi_scalar(n, nu, s, k, r):
    """phi_{s,k}(r) = r^|k| (1-r^2)^((s+n-nu)/2) (a+)_|k| / |k|!
    2F1(a-, a+ + |k|; 1 + |k|; r^2), a+- = (s+n+-eps nu)/2, eps = +1 for
    k >= 0 and -1 for k < 0."""
    ak, e = abs(k), (1 if k >= 0 else -1)
    a_plus, a_minus = (s + n + e * nu) / 2, (s + n - e * nu) / 2
    return (r ** ak * (1 - r * r) ** ((s + n - nu) / 2)
            * mp.rf(a_plus, ak) / mp.factorial(ak)
            * mp.hyp2f1(a_minus, a_plus + ak, 1 + ak, r * r))


def mp_phi_big(n, nu, s, m, r):
    """Phi_{s,m}(r) = det(phi_{s, m_i - i + j}(r))_{i,j} / d_m, with d_m
    the Weyl dimension of the signature m."""
    with mp.workdps(DIGITS):
        s, r = _mpc(s), mp.mpf(r)
        table = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                table[i, j] = _phi_scalar(n, nu, s, m[i] - i + j, r)
        dim = mp.mpf(1)
        for i in range(n):
            for j in range(i + 1, n):
                dim *= mp.mpf(m[i] - m[j] + j - i) / (j - i)
        return mp.det(table) / dim


def mp_c_function(n, nu, s):
    """c(s) = prod_{j<n} Gamma(n-j) Gamma(s-j) / [Gamma((s+n+nu)/2 - j)
    Gamma((s+n-nu)/2 - j)], in reciprocal-Gamma form, so that a pole of a
    denominator Gamma gives c(s) = 0."""
    with mp.workdps(DIGITS):
        s = _mpc(s)

        def gg(z, f):
            out = mp.mpf(1)
            for j in range(n):
                out *= f(z - j)
            return out

        return (gg(n, mp.gamma) * gg(s, mp.gamma)
                * gg((s + n + nu) / 2, mp.rgamma)
                * gg((s + n - nu) / 2, mp.rgamma))
