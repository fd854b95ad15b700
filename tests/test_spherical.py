"""Tests for the radial profiles, their determinant aggregates and the
boundary-asymptotic ratio."""

import math
import struct

import numpy as np
import pytest

import radius_reference
from matball import spherical
from matball.errors import DomainError
from matball.special import (SpectralParams, c_function, gauss_2f1,
                             pochhammer)
from matball.spherical import (boundary_weight, gamma_constant,
                               key_lemma_ratio, phi_big, phi_bigs,
                               phi_scalar_core, weyl_dimension)
from matball.verify import signatures_up_to
from mp_reference import mp_phi_big
from radius_reference import phi_scalar


def rel(a, b):
    return abs(a - b) / abs(b)


class TestWeylDimension:
    def test_examples(self):
        assert weyl_dimension((0, 0, 0)) == 1
        assert weyl_dimension((1, 0)) == 2
        assert weyl_dimension((2, 1, 0)) == 8

    def test_rejects_increasing(self):
        with pytest.raises(DomainError):
            weyl_dimension((0, 1))

    def test_matches_exact_fractions(self):
        sigs = [m for n in (1, 2, 3, 4) for m in signatures_up_to(n, 3)]
        sigs += [(50, 0, -50), (50, 49, -3, -50), (7, 7, 7), (50, 25, 0, -25, -50)]
        for m in sigs:
            got = weyl_dimension(m)
            assert type(got) is int
            assert got == radius_reference.weyl_dimension(m)

    def test_rejects_huge_parts(self):
        with pytest.raises(DomainError):
            weyl_dimension((51, 0))


class TestPhiScalar:
    # the library's scalar profile phi_{s,k}(r) is phi_bigs at rank 1, and
    # _radial_weight times phi_scalar_core at any rank
    def test_at_origin(self):
        for n in (1, 2):
            p = SpectralParams(n, 1, 2.5)
            assert phi_scalar_core(p, 0, 0.0) == 1.0
            for k in (1, -1, 3):
                assert phi_scalar_core(p, k, 0.0) == 0.0
        p = SpectralParams(1, 1, 2.5)
        assert phi_bigs(p, [(0,), (1,), (-1,), (3,)], (0.0,)) == [[1, 0, 0, 0]]

    def test_disk_case(self):
        # n=1, nu=0, s=1: the profile collapses to r^|k|
        p = SpectralParams(1, 0, 1.0)
        ks = (-3, -1, 0, 1, 2, 5)
        radii = (0.2, 0.5, 0.9)
        for r, row in zip(radii, phi_bigs(p, [(k,) for k in ks], radii)):
            for k, got in zip(ks, row):
                assert rel(got, r ** abs(k)) < 1e-13

    def test_zero_mode_sign_convention_free(self):
        # at k = 0 the two sign conventions give the same value because the
        # hypergeometric factor is symmetric in its first two parameters
        p = SpectralParams(2, 3, 2.7 + 0.4j)
        n, nu, s = p.n, p.nu, p.s
        for r in (0.3, 0.8):
            plus = phi_scalar_core(p, 0, r)
            minus = gauss_2f1((s + n + nu) / 2.0, (s + n - nu) / 2.0, 1.0, r * r)
            assert abs(plus - minus) < 1e-12 * abs(plus)

    @pytest.mark.parametrize("n, nu, s", [(1, 1, 2.5), (2, 3, 2.7 + 0.4j),
                                          (3, -2, 3.5 - 1j)])
    def test_negative_mode_is_negated_weight(self, n, nu, s):
        # k < 0 reads (b, a) where k > 0 reads (a, b), and nu -> -nu swaps
        # a and b: the two give the same bits, on both 2F1 branches
        for k in (1, 2, 5):
            for r in (0.3, 0.8):
                got = phi_scalar_core(SpectralParams(n, nu, s), -k, r)
                want = phi_scalar_core(SpectralParams(n, -nu, s), k, r)
                assert struct.pack("2d", got.real, got.imag) == struct.pack(
                    "2d", want.real, want.imag)

    def test_non_integer_mode_is_refused(self):
        # k = 1.5 returned the k = 1 value 0.938..., so fourier_mode_check
        # compared a mode-1.5 quadrature against it; 1.0 is mode 1
        p = SpectralParams(1, 0, 1.5)
        for k in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="not an integer"):
                phi_scalar_core(p, k, 0.5)
        assert phi_scalar_core(p, 1.0, 0.5) == phi_scalar_core(p, 1, 0.5)

    def test_core_strips_weight(self):
        p = SpectralParams(1, 1, 3.0)
        r = 0.6
        w = (1 - r * r) ** ((p.s + p.n - p.nu) / 2.0)
        got = phi_bigs(p, [(2,)], (r,))[0][0]
        assert rel(got, w * phi_scalar_core(p, 2, r)) < 1e-14


class TestPhiBig:
    def test_anchor(self):
        for n in (1, 2, 3):
            p = SpectralParams(n, 1, n + 0.5)
            assert phi_big(p, (0,) * n, 0.0) == 1.0

    def test_vanishes_at_origin_for_nonzero_types(self):
        for n in (2, 3):
            p = SpectralParams(n, 2, n + 1.5)
            for m in [(1,) + (0,) * (n - 1), (2, 1) + (0,) * (n - 2)]:
                assert abs(phi_big(p, m, 0.0)) <= 1e-10

    def test_rank_one_reduction(self):
        p = SpectralParams(1, 2, 1.7)
        for k in (-2, 0, 3):
            assert phi_big(p, (k,), 0.55) == phi_scalar(p, k, 0.55)

    def test_derived_value(self):
        # frozen 40-digit reference from the high-precision determinant
        p = SpectralParams(2, 1, 2.5)
        assert rel(phi_big(p, (1, 0), 0.5), 0.99366619481922683261) < 1e-12

    def test_transposed_index_convention(self):
        # det((phi_{m_i - i + j})) equals the determinant built with the
        # transposed shift convention k = m_j - j + i
        p = SpectralParams(3, 1, 3.5)
        m = (2, 1, -1)
        r = 0.45
        n = 3
        entries = np.array([[phi_scalar(p, m[j] - (j + 1) + (i + 1), r)
                             for j in range(n)] for i in range(n)])
        transposed = complex(np.linalg.det(entries)) / weyl_dimension(m)
        assert rel(phi_big(p, m, r), transposed) < 1e-12

    @pytest.mark.parametrize("n, r", [(1, 0.5), (1, 0.9), (1, 0.99),
                                      (2, 0.5), (2, 0.9), (2, 0.99),
                                      (3, 0.5), (3, 0.9)])
    def test_sixty_digit_reference(self, n, r):
        # every third signature with parts in [-2, 2] ([-1, 1] at rank 3);
        # rank 3 at r >= 0.99 loses digits to cancellation and is not pinned
        sigs = list(signatures_up_to(n, 1 if n == 3 else 2))[::3]
        for nu in (-1, 0, 1):
            for s in (n - 0.5, n + 0.5, n + 2.5, complex(n + 1, 1)):
                p = SpectralParams(n, nu, s)
                for m in sigs:
                    ref = complex(mp_phi_big(n, nu, s, m, r))
                    assert rel(phi_big(p, m, r), ref) <= 1e-8, (nu, s, m)

    def test_signature_validation(self):
        p = SpectralParams(2, 0, 3.0)
        with pytest.raises(DomainError):
            phi_big(p, (0, 1), 0.5)
        with pytest.raises(DomainError):
            phi_big(p, (1, 0), 1.0)


def reference_phi_big(p, m, r):
    """det(phi_scalar(p, m_i - i + j, r)) / d_m, entry by entry from the
    scalar profile of ``radius_reference``; at rank 1 the determinant is
    its one entry (numpy's 1x1 det is not exact)."""
    n = p.n
    if n == 1:
        return phi_scalar(p, m[0], r)
    entries = np.array([[phi_scalar(p, m[i] - i + j, r) for j in range(n)]
                        for i in range(n)])
    return complex(np.linalg.det(entries)) / weyl_dimension(m)


class TestPhiBigs:
    SIGS = {
        1: [(0,), (1,), (-1,), (2,), (-3,)],
        2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, -1), (-1, -2)],
        3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, -1),
            (0, 0, -2)],
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [-1, 0, 2])
    @pytest.mark.parametrize("complex_s", [False, True])
    def test_bit_identical_to_reference_determinant(self, n, nu, complex_s):
        p = SpectralParams(n, nu, complex(n + 0.5, 0.75 if complex_s else 0.0))
        sigs = self.SIGS[n]
        for r in (0.0, 0.3, 0.9, 0.99):
            expected = [reference_phi_big(p, m, r) for m in sigs]
            assert phi_bigs(p, sigs, (r,))[0] == expected
            assert [phi_big(p, m, r) for m in sigs] == expected

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacked_determinants_keep_single_table_bits(self, n):
        # one np.linalg.det call on the (radius, signature, n, n) stack
        # against one call per table, over every signature with parts in
        # -2..2 (35 at rank 3)
        p = SpectralParams(n, 1, complex(n + 0.5, 0.75))
        sigs = list(signatures_up_to(n, 2))
        radii = (0.0, 0.3, 0.9, 0.99)
        assert len(sigs) == {2: 15, 3: 35}[n]
        got = phi_bigs(p, sigs, radii)
        for row, r in zip(got, radii):
            phi = {k: phi_scalar(p, k, r) for k in range(-4, 5)}
            want = [complex(np.linalg.det(np.array(
                [[phi[m[i] - i + j] for j in range(n)] for i in range(n)])))
                / weyl_dimension(m) for m in sigs]
            assert np.array(row).view(np.uint64).tolist() == \
                np.array(want).view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_empty_signatures_or_radii(self, n):
        p = SpectralParams(n, 0, n + 1.5)
        assert phi_bigs(p, [], (0.2, 0.5, 0.9)) == [[], [], []]
        assert phi_bigs(p, [(0,) * n, (1,) + (0,) * (n - 1)], ()) == []
        assert phi_bigs(p, [], ()) == []

    def test_each_scalar_profile_once(self, monkeypatch):
        # m = 0 at rank 3 needs k = m_i - i + j in -2..2 only, not 9 entries
        calls = []
        inner = spherical._phi_scalar_cores

        def counting(p, k, radii):
            calls.append(k)
            return inner(p, k, radii)

        monkeypatch.setattr(spherical, "_phi_scalar_cores", counting)
        phi_big(SpectralParams(3, 0, 4.5), (0, 0, 0), 0.5)
        assert sorted(calls) == [-2, -1, 0, 1, 2]

    def test_validation(self):
        p = SpectralParams(2, 0, 3.0)
        with pytest.raises(DomainError):
            phi_bigs(p, [(1, 0), (0, 1)], (0.5,))
        with pytest.raises(DomainError):
            phi_bigs(p, [(1, 0, 0)], (0.5,))
        with pytest.raises(DomainError):
            phi_bigs(p, [(1, 0)], (1.0,))

    @pytest.mark.parametrize("part", [1.5, math.nan, math.inf])
    def test_non_integer_parts_are_refused(self, part):
        # int() made (1.5, 0) the signature (1, 0); nan and inf raised a
        # bare ValueError and OverflowError
        with pytest.raises(DomainError, match=f"part {part} is not an integer"):
            phi_bigs(SpectralParams(2, 0, 3.0), [(part, 0)], (0.5,))

    def test_integral_parts_of_any_type_are_accepted(self):
        p = SpectralParams(2, 0, 3.0)
        assert phi_bigs(p, [(1.0, np.int64(0))], (0.5,)) == \
            phi_bigs(p, [(1, 0)], (0.5,))


def generalized_pochhammer(x, mu):
    """(x)_mu = prod_i (x - i + 1)_{mu_i}, i = 1..n."""
    out = 1.0
    for i, part in enumerate(mu):
        out *= pochhammer(x - i, part)
    return out


def functional_equation_constant(p, m):
    """gamma_m(s) = (a(s))_{m+} (b(s))_{m-} / [(a(-s))_{m+} (b(-s))_{m-}]
    with a(s) = (s+n+nu)/2, b(s) = (s+n-nu)/2, m+ = (max(m_i, 0))_i and
    m- = (max(-m_{n+1-i}, 0))_i."""
    n, nu, s = p.n, p.nu, p.s
    plus = [max(v, 0) for v in m]
    minus = [max(-v, 0) for v in reversed(m)]

    def side(t):
        return (generalized_pochhammer((t + n + nu) / 2.0, plus)
                * generalized_pochhammer((t + n - nu) / 2.0, minus))
    return side(s) / side(-s)


class TestFunctionalEquation:
    # Phi_{s,m}(r) = gamma_m(s) Phi_{-s,m}(r), phi_big on both sides; at
    # rank 1 it is Euler's transformation of 2F1.  Non-integer real s keeps
    # clear of gamma_m's poles, which lie at integer s.
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("spectra", [(2.5, 4.3), (3.5 + 1j, 1.2 - 0.7j)],
                             ids=["real", "complex"])
    def test_phi_at_minus_s(self, n, spectra):
        worst = 0.0
        for nu in (-1, 0, 1):
            for s in spectra:
                p, q = SpectralParams(n, nu, s), SpectralParams(n, nu, -s)
                for m in signatures_up_to(n, 2):
                    g = functional_equation_constant(p, m)
                    for r in (0.1, 0.3, 0.5):
                        worst = max(worst, rel(g * phi_big(q, m, r),
                                               phi_big(p, m, r)))
        assert worst <= 1e-10


class TestKeyLemmaRatio:
    def test_guards(self):
        with pytest.raises(DomainError):
            key_lemma_ratio(SpectralParams(2, 0, 1.0), (0, 0), 0.99)  # range
        # s = n - 2 + nu sits on the excluded lattice and, for nu = 3, inside
        # the asymptotic range
        with pytest.raises(DomainError):
            key_lemma_ratio(SpectralParams(2, 3, 3.0), (0, 0), 0.99)

    def test_disk_case(self):
        p = SpectralParams(1, 0, 1.5)
        assert abs(key_lemma_ratio(p, (0,), 0.999) - 1.0) <= 1e-2

    def test_derived_examples(self):
        assert abs(key_lemma_ratio(SpectralParams(2, 0, 3.0), (0, 0), 0.9999)
                   - 1.0) <= 1e-2
        assert abs(key_lemma_ratio(SpectralParams(2, 2, 4.0), (3, 1), 0.9999)
                   - 1.0) <= 1e-2

    def test_monotone_deviation_and_uniformity(self):
        p = SpectralParams(2, 0, 3.0)
        sigs = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1),
                (3, 0), (1, -1), (3, 2), (2, -1)]
        prev = None
        for r in (0.9, 0.99, 0.999, 0.9999):
            worst = max(abs(key_lemma_ratio(p, m, r) - 1.0) for m in sigs)
            if prev is not None:
                assert worst < prev
            prev = worst
        devs = sorted(abs(key_lemma_ratio(p, m, 0.9999) - 1.0) for m in sigs)
        assert devs[-1] <= 100.0 * devs[len(devs) // 2]

    def test_boundary_weight(self):
        p = SpectralParams(2, 1, 3.0 + 0.5j)
        r = 0.7
        assert rel(boundary_weight(p, r),
                   (1 - r * r) ** (p.n * (p.n - p.nu - p.s) / 2.0)) < 1e-14


class TestGammaConstant:
    def test_rank_one_trivial(self):
        assert gamma_constant(SpectralParams(1, 3, 2.2 + 1j)) == 1.0

    def test_hand_value(self):
        # n=2, nu=0, s=3: products give 9/4 / (-18) = -1/8; the leading
        # sign (-1)^(n(n-1)/2) = -1 makes the constant +1/8
        got = gamma_constant(SpectralParams(2, 0, 3.0))
        assert rel(got, 0.125) < 1e-13

    def test_consistency_with_c_function(self):
        # (Gamma(s+n-1)/(Gamma((s+n+nu)/2)Gamma((s+n-nu)/2)))^n gamma = c(s)
        from matball.special import gamma
        for (n, nu, s) in ((2, 0, 3.0), (3, 1, 4.5), (3, 2, 4.5 + 0.5j)):
            p = SpectralParams(n, nu, s)
            scalar = gamma(s + n - 1) / (gamma((s + n + nu) / 2.0)
                                         * gamma((s + n - nu) / 2.0))
            assert rel(scalar ** n * gamma_constant(p), c_function(p)) <= 1e-10
