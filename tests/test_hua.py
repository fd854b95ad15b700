"""Tests for the Wirtinger finite differences, the matrix operator blocks
and the kernel eigen-equation."""

import warnings

import numpy as np
import pytest

import hua_reference
from matball import hua, verify
from matball.boundary import poisson_kernel
from matball.errors import DomainError, MarginError, RangeError
from matball.hua import MIN_KERNEL, hua_apply, hua_eigenvalue, hua_residual
from matball.special import SpectralParams
from matball.verify import draw_hua_point


def random_interior_point(rng, n, scale=0.15):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_unitary(rng, n, special=False):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    if special:
        Q = Q / np.linalg.det(Q) ** (1.0 / n)
    return Q


def dbar(F, Z, h):
    """The first-derivative stencil dF/dzbar_{ij} of hua_apply."""
    return hua._derivatives(F, Z, h)[0]


def kernel_dbar(p, Z, U):
    """Closed form of the kernel's Wirtinger gradient in zbar:

        dP/dzbar_{ab} = sigma P(Z,U) [(I - U Z*)^{-1} U - (I - Z Z*)^{-1} Z]_{ab}

    with sigma = (s+n-nu)/2; the factor det(I - Z U*)^(-nu) is holomorphic
    in Z and contributes nothing."""
    n = p.n
    A = np.eye(n) - Z @ Z.conj().T
    Wt = np.eye(n) - U @ Z.conj().T
    sigma = (p.s + n - p.nu) / 2.0
    return sigma * poisson_kernel(p, Z, U) * (np.linalg.inv(Wt) @ U
                                              - np.linalg.inv(A) @ Z)


class TestWirtingerGrad:
    def test_holomorphic_coordinate(self):
        rng = np.random.default_rng(0)
        Z = random_interior_point(rng, 2)
        assert np.allclose(dbar(lambda W: W[..., 0, 0], Z, 1e-4), 0.0, atol=1e-9)

    def test_antiholomorphic_coordinate(self):
        rng = np.random.default_rng(1)
        Z = random_interior_point(rng, 2)
        dbarF = dbar(lambda W: np.conj(W[..., 0, 1]), Z, 1e-4)
        expect = np.zeros((2, 2)); expect[0, 1] = 1.0
        assert np.allclose(dbarF, expect, atol=1e-9)

    def test_determinant_field(self):
        # F(Z) = det(I - Z Z*) is real, so dF/dzbar_{ij} is the conjugate of
        # dF/dz_{ij} = -det(A) (Z* A^{-1})_{ji}
        rng = np.random.default_rng(2)
        Z = random_interior_point(rng, 2)
        A = np.eye(2) - Z @ Z.conj().T
        ref = np.conj(-np.linalg.det(A) * (Z.conj().T @ np.linalg.inv(A)).T)

        def F(W):
            return np.linalg.det(np.eye(2) - W @ W.conj().swapaxes(-1, -2))

        assert np.linalg.norm(dbar(F, Z, 1e-3) - ref) <= 1e-10

    def test_richardson_order_on_polynomial_field(self):
        # a monomial mixing z and conj(z) in one entry has surviving
        # third-order truncation, so halving h shrinks the error by ~4
        # (for entrywise-holomorphic monomials the Wirtinger combination
        # cancels the truncation exactly)
        rng = np.random.default_rng(2)
        Z = random_interior_point(rng, 2, scale=0.3)

        def F(W):
            z = W[..., 0, 0]
            return z ** 3 * np.conj(z) ** 2 + W[..., 1, 1] * np.conj(W[..., 1, 0])

        def exact_dzbar(W):
            out = np.zeros((2, 2), dtype=complex)
            out[0, 0] = 2 * W[0, 0] ** 3 * np.conj(W[0, 0])
            out[1, 0] = W[1, 1]
            return out

        errs = []
        for h in (2e-2, 1e-2):
            errs.append(np.linalg.norm(dbar(F, Z, h) - exact_dzbar(Z)))
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestHuaApply:
    def test_rank_one_squared_modulus(self):
        # n=1, nu=0: top = (1-|z|^2)^2 d2F/dzbar dz; for F = |z|^2 this is
        # (1-|z|^2)^2
        p = SpectralParams(1, 0, 1.0)
        z = 0.3 + 0.2j
        Z = np.array([[z]])
        res = hua_apply(p, lambda W: (W[..., 0, 0] * np.conj(W[..., 0, 0])), Z, 1e-4)
        expect = (1 - abs(z) ** 2) ** 2
        assert abs(res.top[0, 0] - expect) <= 1e-7

    def test_constant_field(self):
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(3)
        Z = random_interior_point(rng, 2)
        res = hua_apply(p, lambda W: np.ones(len(W)), Z, 1e-3)
        assert np.allclose(res.top, 0.0, atol=1e-10)
        assert np.allclose(res.bottom, 0.0, atol=1e-10)

    def test_margin_and_convention_validation(self):
        p = SpectralParams(2, 1, 3.0)
        with pytest.raises(MarginError):
            hua_apply(p, lambda W: 1.0, 0.999 * np.eye(2), 1e-2)

    @pytest.mark.parametrize("h", [0.0, -4e-4, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, h):
        # h = 0 would divide by zero; a negative or non-finite h is no step
        with pytest.raises(DomainError):
            hua_apply(SpectralParams(2, 1, 3.0), lambda W: 1.0,
                      0.1 * np.eye(2), h)

    @pytest.mark.parametrize("Z, U", [
        (np.diag([0.2, np.nan]), np.eye(2)),
        (0.2 * np.eye(2), np.diag([np.inf, 1.0])),
    ], ids=["point-nan", "boundary-inf"])
    @pytest.mark.parametrize("residual", [False, True],
                             ids=["apply", "residual"])
    def test_non_finite_point_or_boundary_matrix_is_refused(self, Z, U,
                                                             residual):
        # not a bare LinAlgError from the probes' SVD, nor a RangeError
        # that blames the kernel's size, and before any numpy RuntimeWarning
        p = SpectralParams(2, 1, 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                if residual:
                    hua_residual(p, Z, U)
                else:
                    hua_apply(p, lambda W: poisson_kernel(p, W, U), Z)


class TestStackedStencil:
    """The stencils evaluate the field once, on a stack of their distinct
    probes; ``hua_reference`` holds the per-point stencils they replace."""

    def test_bit_identical_to_per_point_stencils(self):
        rng = np.random.default_rng(2024)
        for t in range(60):
            n = 1 + t % 3
            s = float(rng.uniform(0.5, 6.0))
            if t % 2:
                s += float(rng.uniform(-2.0, 2.0)) * 1j
            p = SpectralParams(n, int(rng.integers(-1, 3)), s)
            h = float(rng.choice([2e-3, 1e-3, 5e-4, 4e-4]))
            Z, U = draw_hua_point(rng, n, float(rng.choice([0.05, 0.1, 0.15])))

            def F(W):
                return poisson_kernel(p, W, U)

            res = hua_apply(p, F, Z, h)
            ref = hua_reference.hua_apply(p, F, Z, h)
            assert np.array_equal(res.top, ref.top)
            assert np.array_equal(res.bottom, ref.bottom)
            assert np.array_equal(dbar(F, Z, h),
                                  hua_reference.wirtinger_dbar(F, Z, h))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("h", [1e-3, 5e-4, 4e-4])
    def test_probe_array_matches_per_move_copies(self, n, h):
        # the probes built as one array against one copy of Z per move:
        # the same distinct points in the same first-use order, and the same
        # key for every move, those that shift one entry twice (u = v)
        # included.  Signed zeros and dyadic entries make a shift that
        # touched any other entry, or a step rounded another way, show up
        rng = np.random.default_rng(n)
        random = random_interior_point(rng, n)
        signed = np.zeros((n, n), dtype=complex)
        signed.real[0, 0], signed.imag[-1, -1] = -0.0, -0.0
        signed.imag[0, -1] = -0.0
        dyadic = np.full((n, n), 0.0625 - 0.03125j)
        for Z in (random, signed, dyadic, random.conj()):
            points, keys = hua._probes(Z, h)
            ref_points, ref_keys = hua_reference.stencil_probes(Z, h)
            assert points.shape == ref_points.shape
            assert points.tobytes() == ref_points.tobytes()
            assert keys == ref_keys
            assert len(keys) == 4 * n * n + 16 * n ** 4

    @pytest.mark.parametrize("n, grad_points, points", [(1, 4, 13), (2, 16, 145),
                                                        (3, 36, 685)])
    def test_field_is_called_once_on_the_distinct_probes(self, n, grad_points, points):
        # dyadic entries and step: every Z + h - h is exactly Z, so the count
        # is 12 per entry + 1 (Z) + 16 per unordered pair of entries; where
        # such a round trip is inexact its probe is one more point.  The
        # first-derivative probes Z +- h, Z +- ih of each entry are among them
        p = SpectralParams(n, 1, n + 1.0)
        h = 2.0 ** -10
        Z = np.full((n, n), 0.0625 + 0.03125j)
        U = np.eye(n)
        stacks = []

        def F(W):
            stacks.append(W)
            return poisson_kernel(p, W, U)

        hua_apply(p, F, Z, h)
        assert [len(W) for W in stacks] == [points]
        shifts = (stacks[0] - Z).reshape(points, -1)
        single = [row[row != 0] for row in shifts if np.count_nonzero(row) == 1]
        assert sum(v[0] in (h, -h, 1j * h, -1j * h) for v in single) == grad_points

    def test_field_must_return_one_value_per_point(self):
        p = SpectralParams(2, 1, 3.0)
        for F in (lambda W: W[0, 0], lambda W: 1.0, lambda W: np.ones((len(W), 2))):
            with pytest.raises(DomainError):
                hua_apply(p, F, 0.1 * np.eye(2), 1e-3)

    def test_base_must_be_one_point(self):
        p = SpectralParams(2, 1, 3.0)
        stack = 0.1 * np.ones((2, 2, 2))
        with pytest.raises(DomainError):
            hua_apply(p, lambda W: W[..., 0, 0], stack, 1e-3)
        with pytest.raises(DomainError):
            hua_residual(p, stack, np.eye(2))

    def test_criterion_4_kernel_calls(self, monkeypatch):
        # work-count guard: each of the 9 residuals evaluates the kernel at
        # its base point and once on its stack of probes (1,449 calls when
        # every probe was a call of its own)
        calls = []
        inner = hua.poisson_kernel

        def counting(p, Z, U):
            calls.append(1)
            return inner(p, Z, U)

        monkeypatch.setattr(hua, "poisson_kernel", counting)
        assert verify.hua_eigen_equation().passed
        assert len(calls) == 18


class TestKernelGradients:
    def test_matches_finite_differences(self):
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(6)
        Z = random_interior_point(rng, 2)
        U = random_unitary(rng, 2)
        an = kernel_dbar(p, Z, U)
        fd = dbar(lambda W: poisson_kernel(p, W, U), Z, 1e-4)
        assert np.linalg.norm(an - fd) <= 1e-6 * np.linalg.norm(an)

    def test_rank_one_log_derivative(self):
        # n=1 the gradient is P times the scalar logarithmic derivative
        # sigma (u / (1 - zbar u) - z / (1 - |z|^2))
        p = SpectralParams(1, 2, 1.5)
        z, phi = 0.4 + 0.1j, 0.8
        Z = np.array([[z]])
        U = np.array([[np.exp(1j * phi)]])
        P = poisson_kernel(p, Z, U)
        u = np.exp(1j * phi)
        ref = P * (p.s + 1 - p.nu) / 2 * (u / (1 - np.conj(z) * u)
                                          - z / (1 - abs(z) ** 2))
        assert abs(kernel_dbar(p, Z, U)[0, 0] - ref) <= 1e-12 * abs(ref)
        fd = dbar(lambda W: poisson_kernel(p, W, U), Z, 1e-4)[0, 0]
        assert abs(fd - ref) <= 1e-6 * abs(ref)

    def test_dbar_shifted_requires_kernel_factor(self):
        # the closed form of (dbar P) Z* carries an overall factor P;
        # dropping it breaks the finite-difference cross-check
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(7)
        Z = random_interior_point(rng, 2)
        U = random_unitary(rng, 2)
        fd = dbar(lambda W: poisson_kernel(p, W, U), Z, 1e-4) @ Z.conj().T
        an = kernel_dbar(p, Z, U) @ Z.conj().T
        P = poisson_kernel(p, Z, U)
        assert np.linalg.norm(fd - an) <= 1e-6 * np.linalg.norm(an)
        assert np.linalg.norm(fd - an / P) > 1e-2 * np.linalg.norm(an)


class TestHuaResidual:
    def test_disk_harmonic(self):
        p = SpectralParams(1, 0, 1.0)
        rep = hua_residual(p, np.array([[0.3 + 0.2j]]), np.eye(1), h=1e-3)
        assert hua_eigenvalue(p) == 0.0
        assert rep.rel_error <= 1e-5

    def test_disk_weighted(self):
        # truncation constant grows with the weight; a smaller step keeps
        # the residual at the 1e-5 scale
        p = SpectralParams(1, 2, 2.5)
        rep = hua_residual(p, np.array([[0.4 + 0.0j]]), np.eye(1), h=1e-4)
        assert rep.rel_error <= 1e-5

    def test_rank_two(self):
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(8)
        Z = random_interior_point(rng, 2)
        rep = hua_residual(p, Z, np.eye(2), h=1e-3)
        assert rep.extras["top_residual"] <= 1e-4
        assert rep.extras["bottom_residual"] <= 1e-4

    def test_residual_decays_like_h_squared(self):
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(9)
        Z = random_interior_point(rng, 2)
        U = random_unitary(rng, 2)
        res = [hua_residual(p, Z, U, h=h, tol=1.0).rel_error
               for h in (2e-3, 1e-3, 5e-4)]
        assert 3.0 <= res[0] / res[1] <= 5.0
        assert 3.0 <= res[1] / res[2] <= 5.0

    def test_eigenvalue_at_scalar_points(self):
        # applying the top block to the kernel at Z = rI reproduces mu P I
        for r in (0.2, 0.5):
            p = SpectralParams(2, 1, 3.0)
            rng = np.random.default_rng(10)
            U = random_unitary(rng, 2)
            Z = r * np.eye(2)
            res = hua_apply(p, lambda W: poisson_kernel(p, W, U), Z, 1e-3)
            P = poisson_kernel(p, Z, U)
            mu = hua_eigenvalue(p)
            assert np.linalg.norm(res.top - mu * P * np.eye(2)) / abs(P) <= 1e-4

    def test_invariance_under_boundary_rotations(self):
        # (Z, U) -> (V1 Z V2*, V1 U V2*) with det(V1 V2) = 1 leaves the
        # residual unchanged up to finite-difference noise
        p = SpectralParams(2, 1, 3.0)
        rng = np.random.default_rng(11)
        Z = random_interior_point(rng, 2)
        U = random_unitary(rng, 2)
        V1 = random_unitary(rng, 2, special=True)
        V2 = random_unitary(rng, 2, special=True)
        r1 = hua_residual(p, Z, U, h=1e-3, tol=1.0)
        r2 = hua_residual(p, V1 @ Z @ V2.conj().T, V1 @ U @ V2.conj().T,
                          h=1e-3, tol=1.0)
        assert abs(r1.rel_error - r2.rel_error) <= 1e-4

    @pytest.mark.parametrize("nu, s", [(1, 4.5), (0, 4.5), (1, 3.5), (0, 3.0)])
    def test_library_defaults_pass_at_rank_three(self, nu, s):
        # the old default step, 1e-3, gave 1.1e-4 to 2.0e-4 here, above the
        # default tolerance
        Z, U = draw_hua_point(np.random.default_rng(5), 3, 0.15)
        assert hua_residual(SpectralParams(3, nu, s), Z, U).passed

    @pytest.mark.parametrize("n, nu, s", [
        (1, 2, 1.0), (1, 3, 0.0), (2, 2, 2.0), (2, 1, 1.0), (3, 1, 2.0),
        (3, 2, 3.0)])
    def test_eigen_equation_holds_on_the_excluded_lattice(self, n, nu, s):
        # the lattice is a hypothesis of the Poisson-transform
        # characterization, not of the eigen-equation, which holds at every
        # s; these residuals are 3e-6 to 3e-5 against the default 1e-4
        p = SpectralParams(n, nu, s)
        assert not p.in_generic_set
        Z, U = draw_hua_point(np.random.default_rng(1), n, 0.15)
        assert hua_residual(p, Z, U).passed

    def test_criterion_judges_every_combo(self, monkeypatch):
        # a residual that fails its report at any of the seven combinations
        # fails criterion 4, the (n, nu) = (2, 2) one included
        inner = verify.hua_residual

        def residual(p, Z, U, h):
            rep = inner(p, Z, U, h=h)
            if (p.n, p.nu) == (2, 2):
                rep.rel_error, rep.passed = 2e-4, False
            return rep

        monkeypatch.setattr(verify, "hua_residual", residual)
        assert not verify.hua_eigen_equation().passed

    @pytest.mark.parametrize("seed", [12, 21, 27])
    def test_underflowing_kernel_is_refused(self, seed):
        # at s = 2000 these draws put the kernel at ~1e-202, 0.0 and
        # ~4e-212; the residual norm underflowed to 0.0, a false pass, or
        # became nan
        p = SpectralParams(2, 0, 2000.0)
        Z, U = draw_hua_point(np.random.default_rng(seed), 2, 0.1)
        assert abs(poisson_kernel(p, Z, U)) < MIN_KERNEL
        with pytest.raises(RangeError):
            hua_residual(p, Z, U, h=4e-4)

    def test_printed_bottom_convention_fails_for_nonzero_weight(self):
        # the discriminating experiment: with nu != 0 and n >= 2 the variant
        # carrying right factor I - Z Z* in the first-order term leaves an
        # O(1) eigen-residual where the resolved variant is at FD accuracy
        p = SpectralParams(2, 2, 3.5)
        rng = np.random.default_rng(12)
        Z = random_interior_point(rng, 2)
        U = random_unitary(rng, 2)
        good = hua_residual(p, Z, U, h=1e-3, tol=1.0)

        def F(W):
            return poisson_kernel(p, W, U)

        res = hua_apply(p, F, Z, 1e-3)
        dbarF = dbar(F, Z, 1e-3)
        Zs = Z.conj().T
        A = np.eye(2) - Z @ Zs
        B = np.eye(2) - Zs @ Z
        # the printed variant: right factor A instead of B in the nu term
        printed = res.bottom + p.nu * np.einsum("pa,bq,ab->pq", Zs, A - B, dbarF)
        P = poisson_kernel(p, Z, U)
        mu = hua_eigenvalue(p)
        bad_bottom = np.linalg.norm(printed + mu * P * np.eye(2)) / abs(P)
        top = np.linalg.norm(res.top - mu * P * np.eye(2)) / abs(P)
        assert good.rel_error <= 2e-4
        assert bad_bottom > 50 * good.rel_error
        # the top block is the one hua_residual reports
        assert abs(top - good.extras["top_residual"]) <= 1e-12
