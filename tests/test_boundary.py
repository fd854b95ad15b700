"""Tests for the kernel, characters, torus quadrature and weighted slice
norms.

The characters and the direct torus quadrature come from the test-only
reference module ``torus_reference``, against which the library's
numerator-form sums are checked."""

import cmath
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from matball import boundary
from matball.boundary import (TorusGrid, fourier_mode_check, kernel_mass,
                              ktype_norms, poisson_kernel, spherical_oracle,
                              spherical_oracles, validate_ball_point)
from matball.errors import DomainError, SingularError
from matball.experiments import (KTypeFunction, forelli_rudin_growth,
                                 norm_sandwiches)
from matball.special import SpectralParams
from matball.spherical import phi_big, phi_bigs, weyl_dimension
from matball.verify import signatures_up_to
from radius_reference import phi_scalar
from torus_reference import (disk_weyl_integrate, einsum_cofactors,
                             full_grid_sum, kernel_projection,
                             poisson_kernel_torus, schur_character,
                             tensordot_grid_sum, weyl_integrate)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestTorusGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            TorusGrid(2, 7)
        with pytest.raises(DomainError):
            TorusGrid(0, 16)

    def test_non_integer_sizes_are_refused(self):
        # N = 64.5 was accepted and put the rank-1 oracle at 1.0465 where
        # phi_big gives 1.0297, and the norm of the constant 1 at 1.0039
        for n, N in ((1, 64.5), (1, 64.0), (2.0, 16), (1.5, 16)):
            with pytest.raises(DomainError, match="integer"):
                TorusGrid(n, N)

    def test_node_limit(self):
        # 2^24 nodes (N = 256 at rank 3) is the largest grid allowed;
        # nodes are built lazily, so nothing is allocated here
        TorusGrid(3, 256)
        TorusGrid(2, 4096)
        for n, N in ((3, 512), (2, 8192), (1, 1 << 25)):
            with pytest.raises(DomainError, match="nodes"):
                TorusGrid(n, N)


class TestWeylIntegrate:
    @pytest.mark.parametrize("n,N", [(2, 8), (2, 1024), (3, 128)])
    def test_integrand_sees_only_distinct_angle_nodes(self, n, N):
        # the zero-weight (coincident-angle) nodes are skipped and every
        # other node is evaluated once, on one-block and multi-block grids
        calls = []

        def f(a):
            for i, j in itertools.combinations(range(n), 2):
                assert np.all(a[:, i] != a[:, j])
            calls.append(a.shape[0])
            return np.ones(a.shape[0])

        weyl_integrate(f, TorusGrid(n, N))
        assert sum(calls) == math.perm(N, n)
        assert len(calls) == max(1, N ** n >> 18)

    def test_haar_normalization(self):
        # the last grid is summed in 8 blocks
        grids = [(n, N) for n in (1, 2, 3) for N in (8, 16)] + [(3, 128)]
        for n, N in grids:
            g = TorusGrid(n, N)
            val = weyl_integrate(lambda a: np.ones(a.shape[0]), g)
            assert abs(val - 1.0) <= 1e-12

    def test_refined_grid_memory(self):
        # the kernel mass runs the given N at every radius, up to
        # r = 1 - 1e-6, and sums the rank-3 grid in bounded blocks
        radii = [0.5, 0.9, 0.99, 0.999, 1 - 1e-6]
        tracemalloc.start()
        try:
            sweep = forelli_rudin_growth(SpectralParams(3, 0, 3.75), radii,
                                         TorusGrid(3, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sweep.column("grid_points") == [64] * len(radii)
        assert peak < 64 * 2 ** 20

    def test_character_orthogonality(self):
        g = TorusGrid(2, 16)
        for m in [(1, 0), (1, 1), (2, 1), (1, -1)]:
            val = weyl_integrate(lambda a, m=m: schur_character(m, a), g)
            assert abs(val) <= 1e-10

    def test_character_second_moment(self):
        # int |phi_m|^2 = 1/d_m^2; for m = (1,0) on U(2) this is 1/4
        g = TorusGrid(2, 16)
        val = weyl_integrate(lambda a: np.abs(schur_character((1, 0), a)) ** 2, g)
        assert rel(val, 0.25) < 1e-12

    def test_exact_on_trig_polynomials(self):
        # symmetric trig monomials of per-variable degree < N - 2n
        g = TorusGrid(2, 12)
        for (j, k) in [(1, 0), (2, 1), (3, 3), (5, 2)]:
            def f(a, j=j, k=k):
                return (np.exp(1j * (j * a[:, 0] + k * a[:, 1]))
                        + np.exp(1j * (k * a[:, 0] + j * a[:, 1]))) / 2.0
            # reference: Weyl integral of the symmetrized monomial equals the
            # Haar integral of the corresponding Schur-expansion content;
            # compute it from character orthogonality at high resolution
            ref = weyl_integrate(f, TorusGrid(2, 48))
            assert abs(weyl_integrate(f, g) - ref) <= 1e-12

    def test_refinement_convergence(self):
        # the oracle's N = 80 tanh-sinh nodes per axis against N = 160
        p = SpectralParams(2, 1, 3.5)
        for r in (0.3, 0.5):
            g = TorusGrid(2, 80)
            a = spherical_oracle(p, (2, 1), r, g)
            b = spherical_oracle(p, (2, 1), r, TorusGrid(2, 160))
            assert abs(a - b) <= 1e-8


class TestPoissonKernel:
    def test_at_zero(self):
        p = SpectralParams(2, 3, 2.5 + 1j)
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        assert rel(poisson_kernel(p, np.zeros((2, 2)), Q), 1.0) < 1e-14

    def test_rank_one_reduction(self):
        p = SpectralParams(1, 2, 1.5 + 0.5j)
        r, phi = 0.6, 1.1
        got = poisson_kernel(p, np.array([[r]]), np.array([[np.exp(1j * phi)]]))
        w = 1 - r * np.exp(-1j * phi)
        ref = ((1 - r * r) / abs(w) ** 2) ** ((p.s + 1 - p.nu) / 2) * w ** (-p.nu)
        assert rel(got, ref) < 1e-13

    def test_block_diagonal_factorization(self):
        # at Z = rI and diagonal U the kernel is a product of rank-one factors
        p = SpectralParams(2, 1, 2.5)
        p1 = SpectralParams(1, 1, p.s + 1.0)  # s+n-nu matches with n=1: s'=s+1
        r = 0.55
        th = np.array([0.9, 2.4])
        got = poisson_kernel(p, r * np.eye(2), np.diag(np.exp(1j * th)))
        ref = 1.0
        for t in th:
            ref *= poisson_kernel(p1, np.array([[r]]), np.array([[np.exp(1j * t)]]))
        assert rel(got, ref) < 1e-12

    def test_positive_for_zero_weight(self):
        p = SpectralParams(2, 0, 2.7)
        rng = np.random.default_rng(4)
        for _ in range(20):
            Z = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
            v = poisson_kernel(p, Z, Q)
            assert v.real > 0 and abs(v.imag) <= 1e-12 * v.real

    def test_torus_vectorized_matches_matrix_path(self):
        p = SpectralParams(2, 2, 3.0 + 0.5j)
        r = 0.4
        angles = np.array([[0.3, 1.7], [2.2, 5.1]])
        vec = poisson_kernel_torus(p, r, angles)
        for row, v in zip(angles, vec):
            assert rel(v, poisson_kernel(p, r * np.eye(2),
                                         np.diag(np.exp(1j * row)))) < 1e-12

    def test_torus_kernel_finite_near_peak_at_large_s(self):
        # the kernel is ~1.7e219 here, while a per-angle factor without its
        # share of (1-r^2)^(n sigma) would overflow
        p = SpectralParams(2, 0, 100.0)
        r = 0.99
        angles = np.array([[0.0, 0.01], [0.005, 3.0]])
        vec = poisson_kernel_torus(p, r, angles)
        for row, v in zip(angles, vec):
            assert rel(v, poisson_kernel(p, r * np.eye(2),
                                         np.diag(np.exp(1j * row)))) < 1e-12

    def test_validation(self):
        p = SpectralParams(2, 0, 2.5)
        with pytest.raises(DomainError):
            poisson_kernel(p, np.eye(2), np.eye(2))  # on the boundary
        with pytest.raises(DomainError):
            poisson_kernel(p, 0.5 * np.eye(2), 1.01 * np.eye(2))  # not unitary
        with pytest.raises(DomainError):
            poisson_kernel(p, 0.5 * np.eye(2), np.array([0.3, 1.2]))  # angles
        with pytest.raises(DomainError):
            validate_ball_point(np.array([[1.2]]))


def per_point_kernel(p, Z, U):
    """The kernel at one point, finished in Python float/complex arithmetic
    as the per-point formula always was."""
    n, nu, s = p.n, p.nu, p.s
    detA = np.linalg.det(np.eye(n) - Z @ Z.conj().T).real
    detW = complex(np.linalg.det(np.eye(n) - Z @ U.conj().T))
    base = detA / abs(detW) ** 2
    return cmath.exp((s + n - nu) / 2.0 * math.log(base)) * detW ** (-nu)


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q


def ball_stack(rng, n, radii):
    """One point of operator norm r per radius, with random singular
    vectors and lower singular values."""
    out = []
    for r in radii:
        sv = np.concatenate([[r], r * rng.uniform(0.0, 1.0, n - 1)])
        out.append(random_unitary(rng, n) @ np.diag(sv) @ random_unitary(rng, n))
    return np.array(out)


class TestStackedKernel:
    RADII = (0.0, 0.1, 0.5, 0.9, 0.99, 0.9999, 0.999999)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [-1, 0, 1, 2])
    @pytest.mark.parametrize("s", [2.5, 3.0 + 1.5j])
    def test_stack_is_bit_identical_to_per_point_calls(self, n, nu, s):
        rng = np.random.default_rng(100 * n + 10 * nu + int(np.imag(s)))
        p = SpectralParams(n, nu, s)
        Zs = ball_stack(rng, n, self.RADII)
        U = random_unitary(rng, n)
        torus = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, n)))
        for boundary in (U, torus):
            got = poisson_kernel(p, Zs, boundary)
            assert got.shape == (len(self.RADII),)
            for Z, v in zip(Zs, got.tolist()):
                single = poisson_kernel(p, Z, boundary)
                assert type(single) is complex
                assert v == single == per_point_kernel(p, Z, boundary)

    def test_one_point_outside_refuses_the_stack(self):
        p = SpectralParams(2, 1, 3.0)
        Zs = np.array([0.3 * np.eye(2), np.diag([0.5, 1.0 + 1e-9]), 0.1 * np.eye(2)])
        with pytest.raises(DomainError):
            poisson_kernel(p, Zs, np.eye(2))
        with pytest.raises(DomainError):
            validate_ball_point(Zs, stack=True)
        validate_ball_point(Zs[[0, 2]], stack=True)

    def test_one_singular_point_refuses_the_stack(self):
        # U is unitary to 1e-12 but not exactly, and z u rounds to 1, so
        # det(I - Z U*) is exactly 0 at a point inside the ball
        p = SpectralParams(2, 1, 3.0)
        u = 1.0 + 2.0 ** -41
        U = np.diag([u, 1.0])
        Zs = np.array([0.3 * np.eye(2), np.diag([1.0 / u, 0.2]), 0.1 * np.eye(2)])
        with pytest.raises(SingularError):
            poisson_kernel(p, Zs, U)
        assert np.all(np.isfinite(poisson_kernel(p, Zs[[0, 2]], U)))

    def test_shape_validation(self):
        p = SpectralParams(2, 1, 3.0)
        for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((1, 2, 2, 2))):
            with pytest.raises(DomainError):
                poisson_kernel(p, bad, np.eye(2))
        with pytest.raises(DomainError):
            poisson_kernel(p, np.zeros((4, 3, 3)), np.eye(2))
        # a stack is accepted only where it is asked for
        with pytest.raises(DomainError):
            validate_ball_point(np.zeros((4, 2, 2)))

    @pytest.mark.parametrize("Z, U", [
        (np.array([[np.nan, 0.0], [0.0, 0.2]]), np.eye(2)),
        (np.array([[0.1, 0.0], [complex(0.0, np.nan), 0.2]]), np.eye(2)),
        (np.array([0.3 * np.eye(2), np.diag([0.2, np.inf])]), np.eye(2)),
        (0.3 * np.eye(2), np.diag([1.0, np.nan])),
        (0.3 * np.eye(2), np.diag([np.inf, 1.0])),
    ], ids=["point-nan", "point-nanj", "stack-inf", "boundary-nan",
            "boundary-inf"])
    def test_non_finite_entries_are_refused(self, Z, U):
        # Cholesky and the unitarity test let them through: the kernel was
        # nan+nanj after numpy RuntimeWarnings
        p = SpectralParams(2, 1, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                poisson_kernel(p, Z, U)


def brute_force_schur_210(z):
    """s_(2,1,0)(z1,z2,z3) by enumerating semistandard tableaux of shape
    (2,1): monomial sum over fillings (a<=b in the first row, a<c below)."""
    total = 0.0j
    for a, b, c in itertools.product(range(3), repeat=3):
        if a <= b and a < c:
            total += z[a] * z[b] * z[c]
    return total


class TestSchurCharacter:
    def test_trivial_type(self):
        rng = np.random.default_rng(8)
        th = rng.uniform(0, 2 * np.pi, 3)
        assert rel(schur_character((0, 0, 0), th), 1.0) < 1e-12

    def test_first_symmetric_function(self):
        th = np.array([0.4, 2.9])
        got = schur_character((1, 0), th)
        ref = (np.exp(1j * th[0]) + np.exp(1j * th[1])) / 2.0
        assert rel(got, ref) < 1e-12

    def test_against_tableau_enumeration(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            th = np.sort(rng.uniform(0, 2 * np.pi, 3))
            if min(np.diff(th)) < 1e-3:
                continue
            z = np.exp(1j * th)
            got = schur_character((2, 1, 0), th)
            ref = brute_force_schur_210(z) / weyl_dimension((2, 1, 0))
            assert rel(got, ref) < 1e-10

    def test_central_shift(self):
        # phi_{m + c(1,..,1)}(theta) = e^{i c sum(theta)} phi_m(theta)
        th = np.array([0.7, 1.9, 4.4])
        for m, c in (((2, 1, 0), -2), ((1, 0, -1), 3)):
            shifted = tuple(v + c for v in m)
            got = schur_character(shifted, th)
            ref = np.exp(1j * c * np.sum(th)) * schur_character(m, th)
            assert rel(got, ref) < 1e-10

    def test_modulus_bounded_by_one(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            for m in [(3, 1) + (0,) * (n - 2), (2, 1) + (0,) * (n - 2)]:
                for _ in range(50):
                    th = rng.uniform(0, 2 * np.pi, n)
                    z = np.exp(1j * th)
                    gaps = [abs(z[i] - z[j]) for i in range(n)
                            for j in range(i + 1, n)]
                    if min(gaps) < 1e-4:
                        continue
                    assert abs(schur_character(m, th)) <= 1.0 + 1e-10

    def test_tends_to_one_at_identity(self):
        m = (2, 1, 0)
        gaps = []
        for t in (0.5, 0.1, 0.02, 0.004, 0.0008):
            th = np.array([t, 2 * t, 3.2 * t])
            gaps.append(abs(schur_character(m, th) - 1.0))
        assert gaps[-1] < 1e-2
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_coincident_angles(self):
        with pytest.raises(ValueError):
            schur_character((1, 0), np.array([1.0, 1.0 + 1e-10]))

    def test_batched(self):
        th = np.array([[0.3, 2.0], [1.1, 4.2], [0.5, 3.3]])
        vals = schur_character((2, 1), th)
        assert vals.shape == (3,)
        for row, v in zip(th, vals):
            assert rel(v, schur_character((2, 1), row)) < 1e-13


class TestSphericalOracle:
    # the tanh-sinh rule is not exact on trigonometric polynomials as the
    # uniform one is: at r = 0 the constant type is 3.6e-4 off at N = 16 and
    # 4e-15 off from N = 48 on
    def test_trivial(self):
        p = SpectralParams(2, 1, 2.5)
        assert rel(spherical_oracle(p, (0, 0), 0.0, TorusGrid(2, 48)), 1.0) < 1e-12

    def test_rank_one_matches_scalar_profile(self):
        p = SpectralParams(1, 1, 2.0)
        g = TorusGrid(1, 80)
        for k in (-2, -1, 0, 1, 2):
            got = spherical_oracle(p, (k,), 0.5, g)
            assert rel(got, phi_scalar(p, k, 0.5)) <= 1e-10

    def test_rank_two_matches_determinant(self):
        p = SpectralParams(2, 1, 2.5)
        g = TorusGrid(2, 80)
        for m in [(1, 0), (2, 1), (1, -1)]:
            for r in (0.1, 0.3, 0.5):
                assert rel(spherical_oracle(p, m, r, g),
                           phi_big(p, m, r)) <= 1e-6

    def test_kernel_projection_onto_constants(self):
        # int P(rI, U) dU equals the m = 0 radial profile
        p = SpectralParams(2, 1, 3.5)
        g = TorusGrid(2, 48)
        for r in (0.2, 0.5):
            got = weyl_integrate(lambda a: poisson_kernel_torus(p, r, a), g)
            assert rel(got, phi_big(p, (0, 0), r)) <= 1e-8

    @pytest.mark.parametrize("n,r", [(1, 0.999), (2, 0.99), (3, 0.9)])
    def test_matches_determinant_near_the_boundary(self, n, r):
        # N = 80 at every radius, where a uniform grid needed N >= 16/(1-r)
        # (1.6e4 at rank 1, r = 0.999): criterion 1's parameters and
        # signatures within 1e-6 of phi_bigs
        sigs = ORACLE_SIGS[n]
        for p in (SpectralParams(n, 0, n + 0.5), SpectralParams(n, 1, n + 1.5),
                  SpectralParams(n, 2, n + 0.5)):
            [phis] = phi_bigs(p, sigs, (r,))
            for phi, orc in zip(phis, spherical_oracles(p, sigs, r,
                                                        TorusGrid(n, 80))):
                assert rel(orc, phi) <= 1e-6

    @pytest.mark.parametrize("n,sigs", [
        (1, [(0,), (2,), (-3,)]),
        (2, [(1, 0), (2, -1), (-1, -2)]),
        (3, [(0, 0, 0), (2, 1, -1), (0, -1, -3)]),
    ])
    def test_matches_weyl_integral_of_kernel_times_character(self, n, sigs):
        # reference: the kernel times the normalized character, integrated
        # against the squared-Vandermonde weight with coincident nodes
        # masked, on the same mapped tanh-sinh nodes
        for nu in (-1, 0, 2):
            for s in (n + 0.5, n + 1.5 + 0.7j):
                p = SpectralParams(n, nu, s)
                for m in sigs:
                    for N, r in ((16, 0.3), (24, 0.5)):
                        g = TorusGrid(n, N)
                        ref = disk_weyl_integrate(
                            lambda a: (poisson_kernel_torus(p, r, a)
                                       * schur_character(m, a)),
                            r, g)
                        assert rel(spherical_oracle(p, m, r, g), ref) <= 1e-13

    def test_refinement_gate_memory(self):
        # the largest rank-3 grid (2^24 nodes) is summed in bounded chunks
        tracemalloc.start()
        try:
            spherical_oracle(SpectralParams(3, 1, 4.5), (2, 1, 0), 0.7,
                             TorusGrid(3, 256))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


ORACLE_SIGS = {
    1: [(0,), (1,), (-1,), (2,), (-3,)],
    2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, -1)],
    3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, -1)],
}


class TestSphericalOracles:
    # one walk for several signatures gives each signature's own-walk value
    # bit for bit: the alternants of one table do not depend on the others
    @pytest.mark.parametrize("n,N", [(1, 32), (2, 24), (3, 12)])
    def test_bit_identical_to_one_signature_walks(self, n, N):
        g = TorusGrid(n, N)
        sigs = ORACLE_SIGS[n]
        for nu in (-1, 0, 2):
            for s in (n + 0.5, n + 1.5 + 0.7j):
                p = SpectralParams(n, nu, s)
                for r in (0.0, 0.3, 0.7):
                    got = spherical_oracles(p, sigs, r, g)
                    assert got == [spherical_oracle(p, m, r, g) for m in sigs]
                    assert got == [kernel_projection(p, m, r, g) for m in sigs]

    def test_validation(self):
        p = SpectralParams(2, 0, 2.5)
        with pytest.raises(DomainError):
            spherical_oracles(p, [(0, 0), (0, 1)], 0.3, TorusGrid(2, 16))
        with pytest.raises(DomainError):
            spherical_oracles(p, [(0, 0)], 0.3, TorusGrid(3, 16))
        with pytest.raises(DomainError):
            spherical_oracles(p, [(0, 0)], 1.0, TorusGrid(2, 16))

    @pytest.mark.parametrize("n,N", [(2, 24), (3, 12)])
    def test_more_signatures_than_one_walk_holds(self, monkeypatch, n, N):
        # 15 signatures at rank 2 and 35 at rank 3 walk in groups of
        # _WALK_TABLES - 1, each signature bit for bit its own walk's value
        g = TorusGrid(n, N)
        sigs = list(signatures_up_to(n, 2))
        assert len(sigs) == {2: 15, 3: 35}[n] > boundary._WALK_TABLES
        walks = []
        inner = boundary._grid_sum
        with monkeypatch.context() as patch:
            patch.setattr(boundary, "_grid_sum", lambda integrand, *tables: (
                walks.append(len(tables)) or inner(integrand, *tables)))
            spherical_oracles(SpectralParams(n, 0, n + 1.0), sigs, 0.5, g)
        assert walks == {2: [8, 8, 2], 3: [8] * 5}[n]
        for p in (SpectralParams(n, 1, n + 1.5),
                  SpectralParams(n, -1, n + 0.5 + 0.7j)):
            for r in (0.3, 0.7):
                assert spherical_oracles(p, sigs, r, g) == [
                    spherical_oracle(p, m, r, g) for m in sigs]

    def test_walk_peak_does_not_grow_with_signatures(self):
        # a walk holds one 256 KiB dense block and one 256 KiB gather
        # buffer per table, at most _WALK_TABLES tables: 10, 35 and 84
        # rank-3 signatures peak alike.  The read-only walk plan and block
        # nodes of the grid are cached by a first call, outside the measure
        p = SpectralParams(3, 1, 4.5)
        spherical_oracle(p, (0, 0, 0), 0.7, TorusGrid(3, 80))
        peaks = []
        for max_m in (1, 2, 3):
            sigs = list(signatures_up_to(3, max_m))
            tracemalloc.start()
            try:
                spherical_oracles(p, sigs, 0.7, TorusGrid(3, 80))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) <= 1.05 * min(peaks)
        assert max(peaks) <= 4.5 * 2 ** 20

    def test_buffers_stay_within_the_block_budget(self):
        # the largest grid a shipped check walks, C(160, 3) nodes, and the
        # largest grids TorusGrid accepts, in blocks of at most
        # _BLOCK_BUDGET dense products, whatever N and the rank
        for N, n in ((160, 3), (256, 3), (4096, 2), (300000, 1)):
            for lo, hi, c0, c1 in boundary._walk_plan(N, n)[1]:
                assert (hi - lo) * (c1 - c0) <= boundary._BLOCK_BUDGET


class TestGridWalk:
    """The walk into reused buffers against a fresh tensordot block per
    table and block on the same strictly ordered nodes
    (torus_reference.tensordot_grid_sum), and against the walk over all
    N^n nodes (torus_reference.full_grid_sum)."""

    GRIDS = [(1, 64), (1, 300000), (2, 32), (2, 600), (3, 24), (3, 128)]

    @staticmethod
    def reference(monkeypatch, compute, walk=tensordot_grid_sum):
        with monkeypatch.context() as patch:
            patch.setattr(boundary, "_grid_sum", walk)
            return compute()

    @pytest.mark.parametrize("n,N,nodes", [
        (1, 80, 80), (2, 80, 3160), (3, 80, 82160), (3, 160, 669920)])
    def test_walk_visits_strictly_ordered_nodes(self, n, N, nodes):
        # C(N, n) nodes: N at rank 1, about N^n / n! at ranks 2-3
        table = np.exp(1j * np.arange(N * n) * 0.37).reshape(N, n)
        sizes = []
        boundary._grid_sum(lambda alts: sizes.append(alts[0].size) or 0, table)
        assert sum(sizes) == nodes == math.comb(N, n)

    @pytest.mark.parametrize("n,N", [(1, 40), (2, 40), (3, 12), (3, 48)])
    def test_integrand_sees_each_index_set_once_in_order(self, n, N):
        # rows x^(mu_k) of x = a + 1 make every alternant an exact integer:
        # a_delta = prod_{i<j} (x_i - x_j) > 0 exactly when a_1 > ... > a_n
        # (up to an even permutation, which no alternant can tell apart),
        # and the Schur ratios e_k = a_{delta + 1^k} / a_delta recover the
        # index set; rank 3 N = 48 walks several blocks
        x = np.arange(1.0, N + 1.0)
        delta = np.arange(n - 1, -1, -1)
        tables = [x[:, None] ** (delta + (np.arange(n) < k)) for k in range(n + 1)]
        seen = []

        def record(alts):
            vandermonde, *schur = alts
            assert np.all(vandermonde > 0)
            seen.extend(zip(*(np.rint((e / vandermonde).real).astype(int)
                              for e in schur)))
            return 0

        boundary._grid_sum(record, *(t.astype(complex) for t in tables))
        expected = [tuple(sum(math.prod(np.array(c)[list(s)] + 1)
                              for s in itertools.combinations(range(n), k))
                          for k in range(1, n + 1))
                    for c in itertools.combinations(range(N), n)]
        assert len(seen) == len(set(seen)) == math.comb(N, n)
        assert set(seen) == set(expected)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 24), (3, 48)])
    def test_sums_match_the_full_grid(self, monkeypatch, n, N):
        rest = (0,) * (n - 1)
        fs = [KTypeFunction({(0,) * n: 1.0, (1,) + rest: 0.5 - 0.25j}),
              KTypeFunction({(2,) + rest: 0.3j, (-1,) * n: 0.2})]
        grid = TorusGrid(n, N)

        def compute():
            oracles = [spherical_oracles(SpectralParams(n, nu, s),
                                         ORACLE_SIGS[n], r, grid)
                       for nu, s in ((1, n + 1.5), (-1, n + 0.5 + 0.7j))
                       for r in (0.1, 0.4, 0.7)]
            masses = [kernel_mass(SpectralParams(n, nu, s), r, grid)
                      for nu, s in ((0, n + 0.75), (1, n - 0.5 + 0.3j))
                      for r in (0.0, 0.5, 0.9, 0.999)]
            norms = [ktype_norms([f.items() for f in fs], pexp, grid)
                     for pexp in (1.0, 2.0, 3.5)]
            return np.concatenate([np.ravel(oracles), masses, np.ravel(norms)])
        got = compute()
        full = self.reference(monkeypatch, compute, full_grid_sum)
        assert np.max(np.abs(got - full) / np.abs(full)) <= 1e-13

    def test_rows_cut_into_column_ranges(self, monkeypatch):
        # a budget below C(N - 1, 2) cuts the top rows of a rank-3 walk into
        # column ranges, as rows beyond N = 182 are at the shipped budget:
        # bit for bit against the reference walk on the same blocks, and
        # within rounding of the full grid
        grid = TorusGrid(3, 24)
        fs = [KTypeFunction({(0, 0, 0): 1.0, (2, 1, -1): 0.3j})]

        def compute():
            return np.concatenate([
                spherical_oracles(SpectralParams(3, 1, 4.5), ORACLE_SIGS[3],
                                  0.4, grid),
                [kernel_mass(SpectralParams(3, 0, 3.75), 0.9, grid)],
                ktype_norms([f.items() for f in fs], 3.5, grid)])
        monkeypatch.setattr(boundary, "_BLOCK_BUDGET", 64)
        boundary._walk_plan.cache_clear()
        try:
            assert any(c0 > 0 for _, _, c0, _ in boundary._walk_plan(24, 3)[1])
            got = compute()
            assert np.array_equal(got, self.reference(monkeypatch, compute))
            full = self.reference(monkeypatch, compute, full_grid_sum)
        finally:
            boundary._walk_plan.cache_clear()
        assert np.max(np.abs(got - full) / np.abs(full)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cofactors_bit_identical_to_einsum(self, n):
        # the tensordot chain on the cached Levi-Civita tensor, twice per
        # shape, against einsum with the tensor formed afresh; rank 4 on
        # grids that TorusGrid accepts (N <= 64)
        for N in ((48, 80, 128, 48) if n < 4 else (16, 48, 64, 48)):
            table = np.exp(1j * np.arange(N * n) * 0.37).reshape(N, n) * 1.3
            assert np.array_equal(boundary._cofactors(table),
                                  einsum_cofactors(table))

    @pytest.mark.parametrize("n,N", GRIDS)
    def test_kernel_mass_bit_identical(self, monkeypatch, n, N):
        # one block on the first grid of each rank, several on the second
        blocks = boundary._walk_plan(N, n)[1]
        assert (len(blocks) > 1) == (N in (300000, 600, 128))

        def compute():
            return [kernel_mass(SpectralParams(n, nu, s), r, TorusGrid(n, N))
                    for nu, s in ((0, n + 0.75), (1, n - 0.5 + 0.3j))
                    for r in (0.0, 0.5, 0.999)]
        assert compute() == self.reference(monkeypatch, compute)

    @pytest.mark.parametrize("n,N", GRIDS[::2] + [(2, 600), (3, 80)])
    def test_ktype_norms_bit_identical(self, monkeypatch, n, N):
        rest = (0,) * (n - 1)
        fs = [KTypeFunction({(0,) * n: 1.0, (1,) + rest: 0.5 - 0.25j}),
              KTypeFunction({(2,) + rest: 0.3j, (-1,) * n: 0.2})]

        def compute():
            return [ktype_norms([f.items() for f in fs], pexp, TorusGrid(n, N))
                    for pexp in (1.0, 2.0, 3.5)]
        assert compute() == self.reference(monkeypatch, compute)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 32), (3, 24), (3, 128)])
    def test_oracle_bit_identical(self, monkeypatch, n, N):
        sigs = ORACLE_SIGS[n]

        def compute():
            return spherical_oracles(SpectralParams(n, 1, n + 1.5), sigs, 0.7,
                                     TorusGrid(n, N))
        assert compute() == self.reference(monkeypatch, compute)


class TestPairing:
    """The block reduction of the kernel sums, in one order whatever the
    BLAS thread count."""

    @pytest.mark.parametrize("size", [1, 9_999, 10_000, 10_001, 13_560, 16_384])
    def test_one_vdot_up_to_ten_thousand_entries_else_two_halves(self, size):
        rng = np.random.default_rng(size)
        x, y = (rng.standard_normal(size) + 1j * rng.standard_normal(size)
                for _ in range(2))
        h = (size + 1) // 2
        want = (np.vdot(x, y) if size <= 10_000
                else np.vdot(x[:h], y[:h]) + np.vdot(x[h:], y[h:]))
        assert boundary._pairing(x, y) == want

    def test_sums_do_not_depend_on_the_blas_thread_count(self):
        # the rank-3 N = 80 and N = 64 walks hold blocks of 10,808 to 13,560
        # nodes, more than the 10,000 entries above which OpenBLAS splits a
        # complex dot product across its threads
        code = "; ".join([
            "from matball.boundary import TorusGrid as G, kernel_mass, "
            "spherical_oracles",
            "from matball.special import SpectralParams as P",
            "print(repr(spherical_oracles(P(3, 1, 4.5), [(0, 0, 0), "
            "(2, 1, -1)], 0.5, G(3, 80))))",
            "print(repr(kernel_mass(P(3, 0, 3.75), 0.9, G(3, 64))))"])
        src = os.path.dirname(os.path.dirname(boundary.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs = [subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True, timeout=120,
                               env=dict(env, OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")]
        assert len(outs[0].splitlines()) == 2
        assert outs[0] == outs[1]


class TestKernelMass:
    @pytest.mark.parametrize("n,grids", [
        (1, [(32, 0.5), (256, 0.9)]),
        (2, [(32, 0.5), (256, 0.9)]),
        (3, [(16, 0.3), (32, 0.5)]),
    ])
    def test_matches_weyl_integral_of_kernel_modulus(self, n, grids):
        # reference: |kernel| integrated against the squared-Vandermonde
        # weight with coincident nodes masked, on a uniform grid fine enough
        # for the kernel at r; the tanh-sinh sum has converged at N = 128
        for nu in (-1, 0, 2):
            for s in (n + 0.75, n + 1.5 + 0.7j):
                p = SpectralParams(n, nu, s)
                for N, r in grids:
                    ref = weyl_integrate(
                        lambda a: np.abs(poisson_kernel_torus(p, r, a)),
                        TorusGrid(n, 2 * N)).real
                    assert rel(kernel_mass(p, r, TorusGrid(n, 128)), ref) <= 1e-13

    @pytest.mark.parametrize("shift", [-0.7, -0.4, 0.05, 0.75, 1.9])
    def test_rank_one_closed_form_to_60_digits(self, shift):
        # (1-r^2)^((Re s+1-nu)/2) 2F1(a, a; 1; r^2), a = (Re s+1)/2, at the
        # accuracy the kernel_mass docstring states for Re s - 1 = shift
        N, bound = (64, 1e-10) if shift >= 0 else (128, 1e-8)
        radii = [0.0, 0.5, 0.9] + [1 - 10 ** (-k / 4) for k in range(8, 25)]
        for r in radii:
            with mp.workdps(60):
                a, x = (mp.mpf(shift) + 2) / 2, mp.mpf(r) ** 2
                f = mp.hyp2f1(a, a, 1, x)
                closed = [float((1 - x) ** (a - nu / 2) * f) for nu in (0, 1)]
            for nu in (0, 1):
                for s in (1 + shift, 1 + shift + 0.5j):
                    got = kernel_mass(SpectralParams(1, nu, s), r, TorusGrid(1, N))
                    assert rel(got, closed[nu]) <= bound

    def test_validation(self):
        p = SpectralParams(2, 0, 3.0)
        with pytest.raises(DomainError):
            kernel_mass(p, 0.5, TorusGrid(3, 8))
        with pytest.raises(DomainError):
            kernel_mass(p, 1.0, TorusGrid(2, 8))


class TestFourierModeCheck:
    def test_trivial(self):
        p = SpectralParams(2, 1, 3.0)
        rep = fourier_mode_check(p, 0, 0.0, 64)
        assert rep.computed == 1.0 and rep.reference == 1.0

    def test_non_integer_grid_is_refused(self):
        # N = 64.5 reported an error of 3.6e-2 where N = 64 gives 9e-16
        p = SpectralParams(1, 0, 1.5)
        for N in (64.5, 64.0):
            with pytest.raises(DomainError, match="integer"):
                fourier_mode_check(p, 1, 0.3, N)

    def test_positive_and_negative_modes(self):
        p = SpectralParams(2, 1, 3.0)
        assert fourier_mode_check(p, 2, 0.6, 512).rel_error <= 1e-9
        assert fourier_mode_check(p, -3, 0.6, 512).rel_error <= 1e-9

    def test_mode_symmetry_breaks_for_nonzero_weight(self):
        # nu != 0 makes the +k and -k coefficients genuinely different
        p = SpectralParams(2, 2, 3.0)
        a = fourier_mode_check(p, 3, 0.5, 512).reference
        b = fourier_mode_check(p, -3, 0.5, 512).reference
        assert abs(a - b) > 1e-3


class TestHardyNorm:
    """The weighted slice norms (1-r^2)^(-n(n-nu-Re s)/2) ||F(r .)||_p that
    norm_sandwiches reports for the Poisson extension F of f."""

    @staticmethod
    def slice_norms(p, f, pexp, radii, g):
        [sw] = norm_sandwiches(p, [f], pexp, radii, g)
        return [v for _, v in sw.rows]

    def test_constant_at_zero(self):
        p = SpectralParams(2, 1, 3.0)
        [val] = self.slice_norms(p, KTypeFunction({(0, 0): 1.0}), 2.0, (0.0,),
                                 TorusGrid(2, 16))
        assert rel(val, 1.0) < 1e-12

    def test_disk_harmonic_case(self):
        # n=1, nu=0, s=1: unit boundary data extends to the constant 1 and
        # the weight exponent vanishes
        p = SpectralParams(1, 0, 1.0)
        vals = self.slice_norms(p, KTypeFunction({(0,): 1.0}), 1.0,
                                (0.0, 0.4, 0.9), TorusGrid(1, 32))
        assert all(rel(val, 1.0) < 1e-12 for val in vals)

    def test_finite_for_ktype_slice(self):
        p = SpectralParams(2, 0, 3.0)
        f = KTypeFunction({(1, 0): 1.0})
        vals = self.slice_norms(p, f, 2.0, (0.0, 0.5, 0.9, 0.99), TorusGrid(2, 32))
        assert all(np.isfinite(v) for v in vals)
        assert max(vals) < 10.0

    def test_exponent_guard(self):
        p = SpectralParams(1, 0, 1.0)
        for pexp in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                norm_sandwiches(p, [KTypeFunction({(0,): 1.0})], pexp, (0.1,),
                                TorusGrid(1, 16))
