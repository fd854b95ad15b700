"""Tests for the complex special functions.

Reference values marked "frozen" were computed beforehand with a 40-digit
arbitrary-precision evaluation (mpmath); wide sweeps recompute references
with mpmath at test time.
"""

import cmath
import math
import struct
import warnings

import mpmath as mp
import numpy as np
import pytest

from matball import identities, special, spherical
from matball.errors import (ConvergenceError, DegenerateConnection, DomainError,
                            PoleError)
from matball.special import (SpectralParams, _gamma_array, _gauss_2f1_array,
                             _rgamma_array, c_function, digamma, gamma,
                             gauss_2f1, gindikin_gamma, pochhammer,
                             reciprocal_gamma)
from matball.verify import draw_appendix_params
from mp_reference import mp_c_function

mp.mp.dps = 30


def rel(a, b):
    return abs(a - b) / abs(b)


class TestGamma:
    def test_known_values(self):
        assert rel(gamma(1.0), 1.0) < 1e-14
        assert rel(gamma(0.5), math.sqrt(math.pi)) < 1e-14
        # frozen 40-digit reference
        assert rel(gamma(2 + 3j),
                   -0.082395272665611883674 + 0.091774287435259314596j) < 1e-13

    def test_accuracy_sweep_against_mpmath(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(800):
            z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
            if abs(z) > 50:
                continue
            if abs(z.imag) < 1e-3 and z.real < 0.5 \
                    and abs(z.real - round(z.real)) < 1e-3:
                continue
            ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            worst = max(worst, rel(gamma(z), ref))
        assert worst <= 1e-12

    def test_functional_equation(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) > 20 or abs(z.imag) < 1e-6:
                continue
            assert rel(gamma(z + 1), z * gamma(z)) <= 1e-10

    def test_poles(self):
        for z in (0.0, -1.0, -7.0, -3 + 1e-13j):
            with pytest.raises(PoleError):
                gamma(z)
        assert reciprocal_gamma(-4.0) == 0.0

    @pytest.mark.parametrize("call", [
        lambda: gamma(math.nan),
        lambda: digamma(math.nan),
        lambda: reciprocal_gamma(math.nan),
        lambda: gauss_2f1(math.nan, 1, 2, 0.3),
        lambda: identities.lemma_a_sides(identities.AppendixParams(
            2, math.nan, 0.5, (0.1, 0.7)), 0.5),
        lambda: gamma(math.inf),
        lambda: gauss_2f1(1, 1, math.inf, 0.3),
        lambda: gamma(complex(1.0, math.nan)),
        lambda: _gamma_array([math.nan, 1 + 1j]),
        lambda: _gamma_array([complex(1.0, math.nan), math.inf]),
        lambda: _rgamma_array([2.5, math.nan]),
        lambda: identities.lemma_a_sides_batch([identities.AppendixParams(
            2, math.nan, 0.5, (0.1, 0.7))], (0.9,)),
        lambda: identities.lemma_a_sides_batch([identities.AppendixParams(
            2, math.nan, 0.5, (0.1, 0.7))], (0.3,)),
        lambda: identities.lemma_a_sides(identities.AppendixParams(
            2, 0.4 + 0.5j, 0.3 - 0.6j, (0.2, math.inf)), 0.9),
        lambda: identities.lemma_b_ratio(identities.AppendixParams(
            2, 0.4 + 0.5j, 0.3 - 0.6j, (0.2, math.nan)), 0.99),
    ], ids=["gamma-nan", "digamma-nan", "rgamma-nan", "2f1-a-nan",
            "lemma-a-alpha-nan", "gamma-inf", "2f1-c-inf", "gamma-1+nanj",
            "gamma-array-nan", "gamma-array-1+nanj-inf", "rgamma-array-nan",
            "lemma-a-batch-alpha-nan-r0.9", "lemma-a-batch-alpha-nan-r0.3",
            "lemma-a-p-inf-r0.9", "lemma-b-p-nan"])
    def test_non_finite_arguments_are_refused(self, call):
        # a MatballError, which the CLI maps to an exit code, rather than
        # an error from round(), a stalled series or a silent nan; and
        # refused before any numpy RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                call()

    def test_digamma_against_mpmath(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z.imag) < 1e-3 and z.real < 0.5 \
                    and abs(z.real - round(z.real)) < 1e-3:
                continue
            ref = complex(mp.digamma(mp.mpc(z.real, z.imag)))
            assert abs(digamma(z) - ref) / max(abs(ref), 1.0) < 1e-13


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(5 + 2j, 0) == 1
        assert pochhammer(2, 3) == 24
        assert pochhammer(1j, 2) == -1 + 1j

    def test_against_gamma_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = complex(rng.uniform(0.5, 6), rng.uniform(-3, 3))
            k = int(rng.integers(0, 12))
            ref = gamma(a + k) / gamma(a)
            assert rel(pochhammer(a, k), ref) <= 1e-10

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)

    def test_non_integer_order_and_non_finite_argument_refused(self):
        # order 2.5 raised a bare TypeError, and a NaN argument gave nan+nanj
        for a, k in ((1.0, 2.5), (math.nan, 2), (complex(1, math.inf), 0)):
            with pytest.raises(DomainError):
                pochhammer(a, k)
        assert pochhammer(2, 3.0) == pochhammer(2, 3)


class TestGauss2F1:
    def test_trivial(self):
        assert gauss_2f1(0.7, -1.3j, 2.2, 0.0) == 1.0
        # 2F1(1,1;2;x) = -log(1-x)/x; frozen 40-digit value at x = 1/2
        assert rel(gauss_2f1(1, 1, 2, 0.5), 1.3862943611198906188) < 1e-13

    def test_derived_frozen_value(self):
        # frozen 40-digit reference for a connection-formula evaluation
        got = gauss_2f1(0.3 + 0.7j, 1.2 - 0.4j, 2.5, 0.9)
        assert rel(got, 1.3038390717565551197 + 0.60868348082171862986j) < 1e-10

    def test_parameter_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
            c = complex(rng.uniform(0.5, 3), rng.uniform(0.2, 2))
            for x in (0.2, 0.7):
                v1 = gauss_2f1(a, b, c, x)
                v2 = gauss_2f1(b, a, c, x)
                assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)

    def test_connection_matches_long_direct_series(self):
        # direct series with an extended iteration budget as the oracle
        def direct(a, b, c, x, terms=120_000):
            term = mp.mpc(1)
            total = mp.mpc(1)
            for k in range(terms):
                term *= (a + k) * (b + k) * x / ((c + k) * (k + 1))
                total += term
                if abs(term) < 1e-25 * abs(total):
                    break
            return complex(total)

        rng = np.random.default_rng(17)
        for _ in range(25):
            a = complex(rng.uniform(-1.5, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(-1.5, 2), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.6, 3), rng.uniform(0.3, 1.5))
            x = rng.uniform(0.55, 0.9)
            assert rel(gauss_2f1(a, b, c, x), direct(a, b, c, x)) <= 1e-8

    def test_terminating_polynomial(self):
        # a = -3 terminates; valid at any x including x > 1/2
        for x in (0.25, 0.85):
            got = gauss_2f1(-3.0, 1.5 + 0.5j, 2.25, x)
            ref = complex(mp.hyp2f1(-3, mp.mpc(1.5, 0.5), 2.25, x))
            assert rel(got, ref) < 1e-13

    def test_log_case_integer_difference(self):
        a, b = 1.25 + 0.5j, 0.75 - 0.25j
        # frozen 40-digit references
        got = gauss_2f1(a, b, a + b - 3, 0.75)
        assert rel(got, -8.0326752120416920155 + 295.4579603525299264j) < 1e-11
        got0 = gauss_2f1(a, b, a + b, 0.9)
        assert rel(got0, 2.6723510223479277266 - 0.11590465381635070068j) < 1e-11

    def test_log_case_sweep(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            a = complex(rng.uniform(-2, 3), rng.uniform(-1.5, 1.5))
            b = complex(rng.uniform(-2, 3), rng.uniform(-1.5, 1.5))
            d = int(rng.integers(-4, 4))
            c = a + b + d
            x = rng.uniform(0.55, 0.9995)
            ref = complex(mp.hyp2f1(a, b, c, x))
            if abs(ref) == 0:
                continue
            assert rel(gauss_2f1(a, b, c, x), ref) <= 1e-8

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_log_case_evaluates_each_integer_digamma_once(self, monkeypatch, m):
        # psi(k + 1) and psi(k + m + 1) read one list of psi(1), psi(2), ...;
        # the complex arguments a + k and b + k keep a call each per term
        args = []
        inner = special.digamma

        def counting(z):
            args.append(z)
            return inner(z)

        monkeypatch.setattr(special, "digamma", counting)
        special._log_case_2f1(1.25 + 0.5j, 0.75 - 0.25j, m, (0.25,))
        ints = [z for z in args if isinstance(z, float)]
        terms = (len(args) - len(ints)) // 2
        assert ints == [float(j) for j in range(1, terms + m + 1)]

    def test_log_case_refuses_huge_integer_difference(self):
        # every float above 2^53 is an integer, so c - a - b = +-1e300 takes
        # the log case; its finite sum would need 1e300 terms
        with pytest.raises(ConvergenceError):
            gauss_2f1(1.0, 1.0, 2.0 + 1e300, 0.9)
        with pytest.raises(ConvergenceError):
            gauss_2f1(1e300, 1.0, 1.0, 0.9)

    def test_degenerate_ring_raises(self):
        # within 1e-9 of an integer but not an exact integer
        with pytest.raises(DegenerateConnection):
            gauss_2f1(0.5, 0.7, 0.5 + 0.7 - 2.0 + 3e-10, 0.8)

    def test_c_pole_raises(self):
        with pytest.raises(PoleError):
            gauss_2f1(0.5, 0.7, -2.0, 0.3)

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, 2, 1.0)
        with pytest.raises(DomainError):
            gauss_2f1(1, 1, 2, -0.1)


class TestArrayForms:
    """The array Gamma and 2F1 against 60-digit mpmath and against the
    scalar functions they mirror."""

    @staticmethod
    def _gamma_args(rng, size, radius):
        z = rng.uniform(-radius, radius, size) + 1j * rng.uniform(-radius, radius, size)
        near_pole = ((np.abs(z.imag) < 1e-3) & (z.real < 0.5)
                     & (np.abs(z.real - np.round(z.real)) < 1e-3))
        return z[(np.abs(z) <= radius) & ~near_pole]

    def test_gamma_against_mpmath_and_scalar(self):
        z = self._gamma_args(np.random.default_rng(13), 600, 50.0)
        assert (z.real < 0.5).sum() > 200          # the reflection half-plane
        got = _gamma_array(z)
        with mp.workdps(60):
            ref = np.array([complex(mp.gamma(mp.mpc(v.real, v.imag))) for v in z])
        # the scalar gamma's own stated accuracy on |z| <= 50
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
        # same operations as the scalar, rounded differently by numpy's
        # complex kernels; the power t**(w+1/2) amplifies each rounding by
        # |(w+1/2) log t| <= ~250 on |z| <= 50
        scalar = np.array([gamma(v) for v in z])
        assert np.max(np.abs(got - scalar) / np.abs(scalar)) <= 1e-13

    def test_poles_and_reciprocal(self):
        z = np.array([1.5 + 0.5j, -3.0, 0.3 - 2j, -7 + 1e-13j, 0.0])
        pole = np.array([False, True, False, True, True])
        with pytest.raises(PoleError):
            _gamma_array(z)
        with pytest.raises(PoleError):
            _gamma_array(np.array([2.0, -1e-13]))
        rg = _rgamma_array(z)
        assert np.all(rg[pole] == 0.0)
        ref = np.array([reciprocal_gamma(v) for v in z[~pole]])
        assert np.max(np.abs(rg[~pole] - ref) / np.abs(ref)) <= 1e-14

    @pytest.mark.parametrize("x", [0.19, 0.5, 0.64, 0.91, 0.9999])
    def test_tables_match_scalar_gauss_2f1(self, x):
        # the Lemma A table entries of the seed-42 draws, as criterion 5
        # builds them
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            aps = [draw_appendix_params(rng, n) for _ in range(25)]
            alpha = np.array([ap.alpha for ap in aps])[:, None, None]
            beta = np.array([ap.beta for ap in aps])[:, None, None]
            bp = beta + np.array([ap.p for ap in aps])[:, :, None]
            j = np.arange(1, n + 1)
            for a, b, c in ((alpha, bp + j, alpha + beta),
                            (alpha + n - j, bp + n, alpha + beta + n - j)):
                got = _gauss_2f1_array(a, b, c, (x,))[0]
                a, b, c = np.broadcast_arrays(a, b, c)
                ref = np.array([gauss_2f1(*abc, x) for abc in
                                zip(a.ravel(), b.ravel(), c.ravel())])
                err = np.abs(got.ravel() - ref) / np.abs(ref)
                assert np.max(err) <= 1e-11, (n, x, np.max(err))

    @pytest.mark.parametrize("x", [0.0, 0.19, 0.5])
    def test_series_region_is_the_scalar_call(self, x):
        # only 1/2 < x < 1 is summed as arrays; at x <= 1/2 every entry is
        # gauss_2f1's own value, beside a connection-region row
        rng = np.random.default_rng(7)
        a, b, c = (rng.uniform(-2, 3, 30) + 1j * rng.uniform(-1, 1, 30)
                   for _ in range(3))
        got = _gauss_2f1_array(a, b, c, (x, 0.8))[0]
        ref = np.array([gauss_2f1(*abc, x) for abc in zip(a, b, c)])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_special_branches_return_the_scalar_value(self):
        # a terminating entry (1) and a log-case entry (2) take gauss_2f1
        # itself, beside ordinary entries (0) and one whose first connection
        # coefficient is an exact zero, 1/Gamma(c - a) at c - a = -2 (3)
        a = np.array([0.3 + 0.2j, -3.0, 1.25 + 0.5j, 2.0 + 1.0j])
        b = np.array([1.1 - 0.4j, 1.5 + 0.5j, 0.75 - 0.25j, 0.5])
        c = np.array([2.5, 2.25, a[2] + b[2] - 3, a[3] - 2.0])
        for x in (0.3, 0.8):
            got = _gauss_2f1_array(a, b, c, (x,))[0]
            ref = [gauss_2f1(*abc, x) for abc in zip(a, b, c)]
            assert got[1] == ref[1] and got[2] == ref[2]
            for i in (0, 3):
                assert abs(got[i] - ref[i]) <= 1e-13 * abs(ref[i])

    @pytest.mark.parametrize("a, b, c, x, error", [
        (0.5, 0.7, 0.5 + 0.7 - 2.0 + 3e-10, 0.8, DegenerateConnection),
        (0.5, 0.7, -2.0, 0.3, PoleError),
        (0.5, 0.7, -2.0, 0.8, PoleError),
        (1.0, 1.0, 2.0 + 1e300, 0.9, ConvergenceError),
        (0.5, 0.7, 200.3 + 0.1j, 0.8, OverflowError),
        (1, 1, 2, 1.0, DomainError),
        (1, 1, 2, -0.1, DomainError),
    ])
    def test_refusals_are_the_scalar_ones(self, a, b, c, x, error):
        ok = (0.3 + 0.2j, 1.1 - 0.4j, 2.5)
        with pytest.raises(error):
            _gauss_2f1_array(np.array([ok[0], a]), np.array([ok[1], b]),
                             np.array([ok[2], c]), (x,))


class TestEulerTransform:
    """2F1(a,b;c;x) == (1-x)^(c-a-b) 2F1(c-a,c-b;c;x) to 1e-10 relative."""

    @staticmethod
    def sides(a, b, c, x):
        rhs = gauss_2f1(c - a, c - b, c, x)
        if x > 0.0:
            d = complex(c) - complex(a) - complex(b)
            rhs *= cmath.exp(d * math.log(1.0 - x))
        return gauss_2f1(a, b, c, x), rhs

    def test_examples(self):
        lhs, rhs = self.sides(1, 1, 2, 0.5)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        assert self.sides(0.3 + 1j, -0.7, 1.9, 0.0) == (1.0, 1.0)

    def test_random_draws(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
            c = complex(rng.uniform(0.5, 3), rng.uniform(0.2, 1.5))
            lhs, rhs = self.sides(a, b, c, 0.3)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestGindikinGamma:
    def test_reductions(self):
        assert rel(gindikin_gamma(2.5 + 1j, 1), gamma(2.5 + 1j)) < 1e-15
        assert rel(gindikin_gamma(3.0, 2), 2.0) < 1e-14
        # frozen 40-digit reference
        assert rel(gindikin_gamma(2.5 + 1j, 3),
                   0.31731215609915730315 - 0.019928954484349815007j) < 1e-12

    def test_pole_names_factor(self):
        with pytest.raises(PoleError, match="j=3"):
            gindikin_gamma(2.0, 3)

    def test_non_integer_rank_and_non_finite_argument_refused(self):
        # rank 2.5 raised a bare TypeError
        for s, n in ((3.0, 2.5), (math.nan, 2), (complex(math.inf, 0), 1)):
            with pytest.raises(DomainError):
                gindikin_gamma(s, n)
        assert gindikin_gamma(3.0, 2.0) == gindikin_gamma(3.0, 2)


class TestSpectralParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpectralParams(0, 0, 1.0)
        with pytest.raises(DomainError):
            SpectralParams(2, 0.5, 1.0)

    def test_non_integer_rank_is_refused(self):
        # n = 2.0 was accepted and failed later with an unnamed TypeError
        for n in (2.0, 1.5):
            with pytest.raises(DomainError, match="integer"):
                SpectralParams(n, 0, 3.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, complex(3.0, math.nan),
                                   complex(-math.inf, 1.0)])
    def test_non_finite_s_rejected(self, s):
        with pytest.raises(DomainError, match="finite"):
            SpectralParams(2, 0, s)

    def test_generic_set(self):
        # excluded lattice n-2 +/- nu - 2k
        assert not SpectralParams(2, 1, 1.0).in_generic_set   # n-2+nu
        assert not SpectralParams(2, 1, -1.0).in_generic_set  # n-2-nu
        assert not SpectralParams(2, 1, -3.0).in_generic_set  # shifted by -2
        assert SpectralParams(2, 1, 2.0).in_generic_set
        assert SpectralParams(2, 1, 1.0 + 1e-6j).in_generic_set

    def test_asymptotic_range(self):
        assert SpectralParams(2, 0, 1.5).in_asymptotic_range
        assert not SpectralParams(2, 0, 1.0).in_asymptotic_range
        assert not SpectralParams(2, 0, 1.0 + 5j).in_asymptotic_range


class TestCFunction:
    def test_disk_trivial(self):
        assert rel(c_function(SpectralParams(1, 0, 1.0)), 1.0) < 1e-14

    def test_disk_reduction(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            s = complex(rng.uniform(0.3, 4), rng.uniform(-2, 2))
            got = c_function(SpectralParams(1, 0, s))
            ref = gamma(s) / gamma((s + 1) / 2.0) ** 2
            assert rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("n, nu, s0", [(1, 2, 1.0), (2, 2, 2.0), (1, 3, 2.0),
                                           (2, 3, 3.0), (1, -2, 1.0)])
    def test_exactly_zero_on_the_excluded_lattice(self, n, nu, s0):
        # a denominator Gindikin Gamma has its pole at s0 inside Re s > n - 1
        # while the numerator is finite, so c(s0) = 0 (60-digit reference in
        # reciprocal-Gamma form); key_lemma_ratio still refuses s0, where it
        # would divide by c(s0)
        p = SpectralParams(n, nu, s0)
        assert not p.in_generic_set and p.in_asymptotic_range
        assert mp_c_function(n, nu, s0) == 0
        got = c_function(p)
        assert type(got) is complex and _bits(got) == _bits(0j)
        with pytest.raises(DomainError):
            spherical.key_lemma_ratio(p, (0,) * n, 0.99)
        # next to s0, c(s) vanishes linearly and the usual expression holds
        for eps in (1e-3, -1e-3, 1e-3j):
            s = s0 + eps
            ref = complex(mp_c_function(n, nu, s))
            assert rel(c_function(SpectralParams(n, nu, s)), ref) <= 1e-11

    def test_numerator_pole_still_raises(self):
        # s = 0 at n = 1, nu = 2: Gamma(s) has its pole, 1/Gamma(2) is not 0
        with pytest.raises(PoleError):
            c_function(SpectralParams(1, 2, 0.0))


def _bits(z):
    return struct.pack("2d", z.real, z.imag)


def _gamma_body(z):
    """The unmemoized Lanczos body of special.gamma."""
    z = complex(z)
    if special._near_nonpositive_integer(z):
        raise PoleError(f"Gamma pole at z={z}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _gamma_body(1.0 - z))
    w = z - 1.0
    x = complex(special._LANCZOS_COEFFS[0])
    for i, c in enumerate(special._LANCZOS_COEFFS[1:], start=1):
        x += c / (w + i)
    t = w + special._LANCZOS_G
    return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * x


def _digamma_body(z):
    """The unmemoized recurrence and asymptotic body of special.digamma."""
    z = complex(z)
    if special._near_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z={z}")
    acc = 0.0 + 0.0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    out = cmath.log(z) - 0.5 / z
    z2 = 1.0 / (z * z)
    zp = z2
    for i, b in enumerate(special._DIGAMMA_BERNOULLI, start=1):
        out -= b / (2.0 * i) * zp
        zp *= z2
    return out + acc


def _outcome_bits(f, z):
    try:
        return _bits(f(z))
    except PoleError as exc:
        return type(exc)


class TestMemo:
    MEMOS = {"gamma": (special._gamma_memo, _gamma_body),
             "digamma": (special._digamma_memo, _digamma_body)}

    @staticmethod
    def _pointwise_args(monkeypatch):
        """Every gamma and digamma argument of a seeded scalar mix like the
        pointwise benchmark's: 2F1 on each branch, Phi tables at ranks 1 to
        3, the c-function and the Lemma A and B tables."""
        args = {"gamma": [], "digamma": []}
        for name, store in args.items():
            inner = getattr(special, name)
            spy = (lambda z, inner=inner, store=store:
                   store.append(complex(z)) or inner(z))
            for mod in (special, identities):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy)
        rng = np.random.default_rng(2718)

        def cplx(lo, hi, im):
            return complex(rng.uniform(lo, hi), rng.uniform(-im, im))

        for _ in range(6):
            a, b, c = cplx(-3, 5, 2), cplx(-3, 5, 2), cplx(0.5, 6, 2)
            gauss_2f1(a, b, c, rng.uniform(0.0, 0.5))
            gauss_2f1(a, b, c, rng.uniform(0.55, 0.999))
            gauss_2f1(a, b, a + b + int(rng.integers(-3, 4)), 0.9)
            gauss_2f1(-float(rng.integers(1, 9)), b, c, 0.7)
        for n in (1, 2, 3):
            for r in (0.4, 0.8, 0.99):
                nu = int(rng.integers(-2, 3))
                s = (n + 0.5 * int(rng.integers(1, 5)) if rng.random() < 0.5
                     else cplx(n - 0.8, n + 2.5, 1.5))
                p = SpectralParams(n, nu, s)
                m = sorted(rng.integers(-3, 4, n), reverse=True)
                spherical.phi_big(p, m, r)
                c_function(p)
        for n in (2, 3):
            ap = draw_appendix_params(rng, n)
            for r in (0.3, 0.6, 0.9):
                identities.lemma_a_sides(ap, r)
            identities.lemma_b_ratio(draw_appendix_params(rng, n), 1.0 - 1e-5)
        monkeypatch.undo()
        return args

    def test_cold_and_warm_bits_equal_the_body(self, monkeypatch):
        args = self._pointwise_args(monkeypatch)
        rng = np.random.default_rng(5)
        for name, (memo, body) in self.MEMOS.items():
            public = getattr(special, name)
            zs = list(dict.fromkeys(args[name]))
            # the same points with the other zero sign, and a pole
            zs += [complex(z.real, -z.imag) for z in zs if z.imag == 0.0]
            zs += [-2.0 + 0j]
            assert len(zs) > 100
            want = {_bits(z): _outcome_bits(body, z) for z in zs}
            memo.cache_clear()
            for sweep in ("cold", "warm"):
                order = rng.permutation(len(zs))
                got = {_bits(zs[i]): _outcome_bits(public, zs[i]) for i in order}
                assert got == want, sweep
            assert memo.cache_info().hits > len(zs) // 4

    @pytest.mark.parametrize("name", ["gamma", "digamma"])
    def test_signed_zeros_are_separate_keys(self, name):
        memo, body = self.MEMOS[name]
        public = getattr(special, name)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            memo.cache_clear()
            for im in (first, second, first):
                z = complex(2, im)
                assert _bits(public(z)) == _bits(body(z))
            assert memo.cache_info().currsize == 2

    @pytest.mark.parametrize("name", ["gamma", "digamma"])
    def test_poles_raise_on_every_call(self, name):
        memo, _ = self.MEMOS[name]
        public = getattr(special, name)
        memo.cache_clear()
        for _ in range(3):
            for z in (0.0, -3.0, -3.0 + 1e-13j):
                with pytest.raises(PoleError):
                    public(z)
        assert memo.cache_info().currsize == 0

    def test_gamma_bits_equal_the_loop_form_over_a_sweep(self):
        # the written-out Lanczos sum, with the pole test only where
        # Re z < 1/2, against the loop-form body: the reflection half-plane,
        # both signs of a zero imaginary part, points 1e-13 (a pole) and
        # 1e-11 (not one) off the poles, and non-finite parts, which give or
        # raise the same
        rng = np.random.default_rng(31)
        zs = [complex(x, y) for x, y in zip(rng.uniform(-30, 30, 600),
                                            rng.uniform(-8, 8, 600))]
        zs += [complex(x, sign * 0.0) for x in rng.uniform(-30, 30, 200)
               for sign in (1, -1)]
        zs += [complex(-k + d, im) for k in range(12)
               for d in (0.0, 1e-13, -1e-13, 1e-11, -1e-11)
               for im in (0.0, -0.0, 1e-13, -1e-13)]
        zs += [complex(x, im) for x in (0.5, math.nextafter(0.5, 0), 1.0, 2.0)
               for im in (0.0, -0.0)]
        zs += [complex(x, im) for x in (math.inf, -math.inf, math.nan)
               for im in (0.0, -0.0, 1.0)]
        zs += [complex(1.0, math.nan), complex(-2.0, math.inf)]

        def outcome(f, z):
            try:
                return _bits(f(z))
            except Exception as exc:     # noqa: BLE001 - the type is compared
                return type(exc)

        special._gamma_memo.cache_clear()
        got = [outcome(gamma, z) for z in zs]
        assert got == [outcome(_gamma_body, z) for z in zs]
        assert {PoleError, DomainError} <= set(got)

    def test_size_is_the_module_constant(self):
        for memo, _ in self.MEMOS.values():
            assert memo.cache_info().maxsize == special._MEMO_SIZE
