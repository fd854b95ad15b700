"""Tests for the sweep-level experiments."""

import math

import numpy as np
import pytest

from matball import boundary, experiments, spherical, verify
from matball.boundary import TorusGrid, ktype_norms, spherical_oracle
from matball.errors import DomainError
from matball.experiments import (KTypeFunction, forelli_rudin_growth,
                                 inversion_experiment, key_lemma_sweep,
                                 norm_sandwiches, oracle_comparison)
from matball.special import SpectralParams, c_function, gauss_2f1
from matball.spherical import (key_lemma_ratio, log_boundary_weight, phi_big,
                               phi_bigs, weyl_dimension)
from torus_reference import ktype_evaluate, poisson_kernel_torus, weyl_integrate


def rel(a, b):
    return abs(a - b) / abs(b)


def lp_norm(f, pexp, grid):
    """The L^p norm of one K-type function f on the grid."""
    return ktype_norms([f.items()], pexp, grid)[0]


def weighted_slice_norm(p, f, pexp, r, grid):
    """(1-r^2)^(-n(n-nu-Re s)/2) ||F(r .)||_p for the Poisson extension F of
    f, whose slice at r is the K-type function sum_m c_m Phi_m(r) phi_m."""
    phis = phi_bigs(p, sorted(f.coeffs), (r,))[0]
    F = KTypeFunction({m: c * phi for (m, c), phi in zip(f.items(), phis)})
    return math.exp(-log_boundary_weight(p, r).real) * lp_norm(F, pexp, grid)


class TestKTypeFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            KTypeFunction({})
        with pytest.raises(DomainError):
            KTypeFunction({(1, 0): 1.0, (1,): 2.0})
        with pytest.raises(DomainError):
            KTypeFunction({(0, 1): 1.0})

    def test_non_integer_signature_is_refused(self):
        # int() made this the trivial K-type
        with pytest.raises(DomainError, match="part 0.9 is not an integer"):
            KTypeFunction({(0.9, 0): 1.0})

    def test_norm_matches_quadrature(self):
        f = KTypeFunction({(0, 0): 1.0, (1, 0): 0.5 - 0.25j, (2, 1): 0.3j})
        g = TorusGrid(2, 24)
        assert rel(lp_norm(f, 2.0, g), f.boundary_norm2()) < 1e-10

    @pytest.mark.parametrize("pexp", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n,N", [(2, 24), (3, 8)])
    def test_norm_matches_reference_quadrature(self, n, N, pexp):
        # N = 8 puts coincident-angle nodes, where a_delta vanishes, among
        # the few; the reference skips them by their zero Haar weight
        rest = (0,) * (n - 2)
        f = KTypeFunction({(0,) * n: 1.0, (1, 0) + rest: 0.5 - 0.25j,
                           (2, 1) + rest: 0.3j})
        g = TorusGrid(n, N)
        ref = weyl_integrate(
            lambda a: np.abs(ktype_evaluate(f, a)) ** pexp, g).real ** (1 / pexp)
        got = lp_norm(f, pexp, g)
        assert math.isfinite(got)
        assert rel(got, ref) <= 1e-13

    def test_norm_validation(self):
        # the norm and the sandwich share the walk and refuse the same inputs
        f = KTypeFunction({(1, 0): 1.0})
        p = SpectralParams(2, 0, 3.0)
        for pexp in (0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                lp_norm(f, pexp, TorusGrid(2, 8))
            with pytest.raises(DomainError):
                norm_sandwiches(p, [f], pexp, (0.5,), TorusGrid(2, 8))
        with pytest.raises(DomainError):
            lp_norm(f, 2.0, TorusGrid(3, 8))
        with pytest.raises(DomainError):
            norm_sandwiches(p, [f], 2.0, (0.5,), TorusGrid(3, 8))
        with pytest.raises(DomainError):
            ktype_norms([f.items(), KTypeFunction({(1, 0, 0): 1.0}).items()],
                        2.0, TorusGrid(2, 8))

    @pytest.mark.parametrize("pexp", [1.0, 2.0, 3.0])
    def test_norms_of_mixed_signature_sets(self, pexp):
        # each function keeps every one of its own K-types, whatever the
        # signatures of the functions beside it
        fs = [KTypeFunction({(0, 0): 1.0}),
              KTypeFunction({(0, 0): 1.0, (1, 0): 0.5}),
              KTypeFunction({(1, 0): 0.5 - 0.25j, (2, 1): 0.3j}),
              KTypeFunction({(1, 1): -0.4, (0, 0): 0.2})]
        g = TorusGrid(2, 16)
        rows = [f.items() for f in fs]
        got = ktype_norms(rows, pexp, g)
        assert got == [lp_norm(f, pexp, g) for f in fs]
        assert got[::-1] == ktype_norms(rows[::-1], pexp, g)
        if pexp == 2.0:
            for f, norm in zip(fs, got):
                assert rel(norm, f.boundary_norm2()) < 1e-12
            assert rel(got[1], math.sqrt(1.0 + 0.25 / 4)) < 1e-12


class TestKeyLemmaSweep:
    def test_disk_family(self):
        p = SpectralParams(1, 0, 1.5)
        sw = key_lemma_sweep(p, [(k,) for k in (-2, -1, 0, 1, 2)],
                             [0.9, 0.99, 0.999, 0.9999])
        assert sw.passed
        assert sw.metadata["deviations_decreasing"]

    def test_rank_two(self):
        p = SpectralParams(2, 0, 3.0)
        sw = key_lemma_sweep(p, [(0, 0), (1, 0), (2, 1), (1, 1), (2, 0)],
                             [0.9, 0.99, 0.999, 0.9999])
        assert sw.passed

    @pytest.mark.parametrize("p,sigs", [
        (SpectralParams(1, 1, 1.5 + 0.5j), [(-2,), (0,), (3,)]),
        (SpectralParams(2, 0, 3.0), [(0, 0), (1, 0), (2, 1), (1, -1)]),
        (SpectralParams(3, -1, 4.5), [(0, 0, 0), (1, 0, 0), (1, 1, -1)]),
    ])
    def test_rows_equal_key_lemma_ratio(self, p, sigs):
        radii = [0.9, 0.99, 0.999]
        sw = key_lemma_sweep(p, sigs, radii)
        assert [row[2] for row in sw.rows] == [
            key_lemma_ratio(p, m, r) for r in radii for m in sigs]

    def test_guards(self):
        with pytest.raises(DomainError):
            key_lemma_sweep(SpectralParams(2, 0, 1.0), [(0, 0)], [0.99])
        with pytest.raises(DomainError):
            key_lemma_sweep(SpectralParams(2, 0, 3.0), [(0, 0)], [0.5, 0.99])
        with pytest.raises(DomainError, match="needs signatures"):
            key_lemma_sweep(SpectralParams(2, 0, 3.0), [], [0.99])
        with pytest.raises(DomainError, match="needs signatures"):
            key_lemma_sweep(SpectralParams(2, 0, 3.0), [(0, 0)], [])

    def test_uniformity_band(self, monkeypatch):
        # one signature's final deviation at 1e-2: under 5e-2 and under the
        # 1.6e-2 worst at r = 0.99, but > 100 x the 3.2e-5 median
        p, sigs, radii = (SpectralParams(1, 0, 1.5), [(k,) for k in range(-5, 6)],
                          [0.99, 0.9999])
        assert key_lemma_sweep(p, sigs, radii).metadata["uniform"]
        real = experiments.phi_bigs

        def phi_bigs(p, sigs, radii):
            rows = real(p, sigs, radii)
            rows[-1][3] *= 1.01
            return rows

        monkeypatch.setattr(experiments, "phi_bigs", phi_bigs)
        sw = key_lemma_sweep(p, sigs, radii)
        final = sorted(sw.column("deviation")[-len(sigs):])
        assert final[-1] > 100 * final[len(final) // 2]
        assert sw.metadata["worst_by_radius"][-1] <= 5e-2
        assert sw.metadata["deviations_decreasing"]
        assert not sw.metadata["uniform"] and not sw.passed


class TestOracleComparison:
    def test_empty_lists_are_refused(self):
        # either list empty passed with no rows
        p = SpectralParams(1, 0, 1.5)
        for sigs, radii in (([], (0.5,)), ([(0,)], ())):
            with pytest.raises(DomainError, match="needs signatures and radii"):
                oracle_comparison(p, sigs, radii, TorusGrid(1, 16))


class TestForelliRudin:
    def test_zero_radius_row(self):
        # N = 64 is where the tanh-sinh sum reaches its stated accuracy;
        # at N = 32 the r = 0 row reads 1 - 7.4e-11
        p = SpectralParams(2, 1, 3.0)
        sw = forelli_rudin_growth(p, [0.0, 0.5], TorusGrid(2, 64))
        r0 = sw.rows[0]
        assert r0[0] == 0.0 and abs(r0[1] - 1.0) < 1e-12 and r0[2] == 1.0

    def test_rank_one_closed_form(self):
        # for real s the kernel mass has the closed form
        # (1-r^2)^((s+1-nu)/2) 2F1((s+1)/2, (s+1)/2; 1; r^2)
        p = SpectralParams(1, 0, 1.75)
        sw = forelli_rudin_growth(p, [0.3, 0.6, 0.9], TorusGrid(1, 64))
        for r, mass, _, _, _ in sw.rows:
            sig = (p.s.real + 1) / 2.0
            ref = (1 - r * r) ** ((p.s.real + 1 - p.nu) / 2.0) \
                * gauss_2f1(sig, sig, 1.0, r * r).real
            assert rel(mass, ref) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ratio_tends_to_c_function(self, n):
        # near r = 1 the ratio approaches c(n, 0, Re s), whatever nu and
        # Im s; the gap is ~(1 - r), measured up to 1.1e-6 at r = 1 - 1e-6
        for nu, s in ((0, n + 0.75), (1, n + 0.75), (0, n + 0.3 + 0.5j)):
            sw = forelli_rudin_growth(SpectralParams(n, nu, s), [1 - 1e-6],
                                      TorusGrid(n, 64))
            limit = c_function(SpectralParams(n, 0, s.real)).real
            assert rel(sw.column("ratio")[0], limit) <= 2e-6

    def test_bounded_band(self):
        p = SpectralParams(2, 1, 3.0)
        sw = forelli_rudin_growth(p, [0.5, 0.9, 0.99], TorusGrid(2, 32))
        assert sw.passed
        lo, hi = sw.metadata["band"]
        assert hi / lo <= 10.0

    def test_finite_near_peak_at_large_s(self):
        # the kernel peaks near 1.7e219 at r = 0.99; each angle's share of
        # (1-r^2)^(n sigma) keeps the summed table entries finite
        sw = forelli_rudin_growth(SpectralParams(2, 0, 100.0), [0.99],
                                  TorusGrid(2, 32))
        assert all(math.isfinite(v) for v in sw.rows[0][1:4])

    def test_range_guard(self):
        with pytest.raises(DomainError):
            forelli_rudin_growth(SpectralParams(2, 0, 0.5), [0.5],
                                 TorusGrid(2, 32))

    def test_empty_radii_are_refused(self):
        # no radius raised a bare ValueError from max()
        with pytest.raises(DomainError, match="needs radii"):
            forelli_rudin_growth(SpectralParams(2, 0, 3.0), [], TorusGrid(2, 32))


class TestNormSandwich:
    def test_constant_boundary_data(self):
        p = SpectralParams(2, 1, 3.0)
        f = KTypeFunction({(0, 0): 1.0})
        [sw] = norm_sandwiches(p, [f], 2.0)
        assert sw.passed
        assert rel(sw.metadata["boundary_norm"], 1.0) < 1e-12
        assert sw.metadata["hardy_norm"] >= abs(c_function(p)) * (1 - 1e-3)

    def test_single_type_slice_norm_closed_form(self):
        # one-term expansion: the weighted slice norm equals
        # (1-r^2)^(-n(n-nu-Re s)/2) |Phi_m(r)| / d_m
        p = SpectralParams(2, 1, 3.0)
        m = (1, 0)
        f = KTypeFunction({m: 1.0})
        g = TorusGrid(2, 24)
        [sw] = norm_sandwiches(p, [f], 2.0, (0.3, 0.7), g)
        for r, got in sw.rows:
            weight = (1 - r * r) ** (-p.n * (p.n - p.nu - p.s.real) / 2.0)
            ref = weight * abs(phi_big(p, m, r)) / weyl_dimension(m)
            assert rel(got, ref) < 1e-10

    def test_mixed_types_p1(self):
        p = SpectralParams(2, 0, 3.0)
        f = KTypeFunction({(0, 0): 1.0, (1, 0): 0.4j})
        [sw] = norm_sandwiches(p, [f], 1.0)
        assert sw.passed

    def test_many_configurations(self):
        count = 0
        for n in (1, 2):
            for nu, s in ((0, n + 1.0), (1, n + 1.5), (2, n + 0.5)):
                p = SpectralParams(n, nu, s)
                f = KTypeFunction({(0,) * n: 1.0,
                                   (1,) + (0,) * (n - 1): 0.5 - 0.25j})
                assert norm_sandwiches(p, [f], 2.0)[0].passed
                count += 1
        assert count >= 6

    @pytest.mark.parametrize("pexp", [1.0, 2.0, 20.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_equal_hardy_norm(self, n, pexp):
        rest = (0,) * (n - 1)
        p = SpectralParams(n, 1, n + 1.0)
        f = KTypeFunction({(0,) * n: 0.3, (1,) + rest: 1.0, (2,) + rest: 0.2j,
                           (0,) * (n - 1) + (-1,): -0.4})
        grid = TorusGrid(n, 16)
        radii = (0.3, 0.9, 0.999)
        [sw] = norm_sandwiches(p, [f], pexp, radii, grid)
        slices = [row[1] for row in sw.rows]
        assert slices == [weighted_slice_norm(p, f, pexp, r, grid)
                          for r in radii]
        assert sw.metadata["boundary_norm"] == lp_norm(f, pexp, grid)
        assert all(math.isfinite(v) and v > 0 for v in slices)

    def test_grouped_equals_per_function(self):
        # all 18 configurations of criterion 8, grouped by p as it runs them
        configs = verify._sandwich_configs((1, 2))
        assert len(configs) == 18
        for k in range(0, len(configs), 3):
            p = configs[k][0]
            fs = [f for _, f in configs[k:k + 3]]
            assert all(q is p for q, _ in configs[k:k + 3])
            grid = TorusGrid(p.n, 32)
            for f, sw in zip(fs, norm_sandwiches(p, fs, 2.0)):
                [one] = norm_sandwiches(p, [f], 2.0)
                assert sw.rows == one.rows
                assert sw.passed == one.passed
                assert sw.metadata == one.metadata
                assert sw.columns == one.columns
                assert [v for _, v in sw.rows] == [
                    weighted_slice_norm(p, f, 2.0, r, grid)
                    for r in experiments.DEFAULT_RADII]

    def test_grouped_validation(self):
        p = SpectralParams(2, 0, 3.0)
        fs = [KTypeFunction({(1, 0): 1.0}), KTypeFunction({(1,): 1.0})]
        with pytest.raises(DomainError):
            norm_sandwiches(p, fs, 2.0)

    def test_empty_lists_are_refused(self):
        # no radius returned passed=False (the lower bound against a sup of
        # 0), and no function an empty list
        p = SpectralParams(2, 0, 3.0)
        f = KTypeFunction({(1, 0): 1.0})
        for fs, radii in (([f], ()), ([], (0.5,))):
            with pytest.raises(DomainError, match="needs K-type functions and radii"):
                norm_sandwiches(p, fs, 2.0, radii, 16)

    def test_single_type_ratio_tends_to_c(self):
        p = SpectralParams(2, 1, 3.0)
        f = KTypeFunction({(1, 0): 1.0})
        g = TorusGrid(2, 24)
        val = norm_sandwiches(p, [f], 2.0, (0.9999,), g)[0].rows[0][1]
        ratio = val / f.boundary_norm2()
        assert abs(ratio - abs(c_function(p))) <= 5e-2 * abs(c_function(p))


class TestInversion:
    def test_zero_function(self):
        p = SpectralParams(2, 1, 3.0)
        f = KTypeFunction({(0, 0): 0.0})
        sw = inversion_experiment(p, f, [0.9, 0.99])
        assert all(row[1] == 0.0 for row in sw.rows)

    def test_disk_constant(self):
        p = SpectralParams(1, 0, 1.5)
        sw = inversion_experiment(p, KTypeFunction({(0,): 1.0}),
                                  [0.9, 0.99, 0.999, 0.9999])
        assert sw.passed
        assert sw.metadata["monotone"]

    def test_two_type_mix(self):
        p = SpectralParams(2, 1, 3.0)
        f = KTypeFunction({(0, 0): 1.0, (1, 0): 0.7})
        sw = inversion_experiment(p, f, [0.9, 0.99, 0.999, 0.9999])
        assert sw.passed
        errs = [row[1] for row in sw.rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))


    def test_empty_radii_are_refused(self):
        # no radius raised a bare IndexError (errs[-1])
        with pytest.raises(DomainError, match="needs increasing radii"):
            inversion_experiment(SpectralParams(1, 0, 1.5),
                                 KTypeFunction({(0,): 1.0}), [])


class TestEigenExpansion:
    """The K-type expansion of the Poisson extension at a scalar ball point
    Z = z I (|z| < 1),

        sum_m coeffs[m] Phi_m(|z|) (z/|z|)^|m|  ==  int P(z I, U) f(U) dU,

    with Phi_m from the determinant formula and the right side from the
    reference torus quadrature of the kernel times the K-type function."""

    @staticmethod
    def gap(p, coeffs, z, N):
        f = KTypeFunction(coeffs)
        r = abs(z)
        phase = z / r
        expansion = sum(c * phi * phase ** sum(m) for (m, c), phi
                        in zip(f.items(), phi_bigs(p, sorted(f.coeffs), (r,))[0]))
        quad = weyl_integrate(
            lambda a: poisson_kernel_torus(p, z, a) * ktype_evaluate(f, a),
            TorusGrid(p.n, N))
        return rel(quad, expansion)

    def test_trivial_type(self):
        assert self.gap(SpectralParams(2, 1, 2.5), {(0, 0): 1.0}, 0.4, 32) <= 1e-6

    def test_single_type_with_phase(self):
        assert self.gap(SpectralParams(2, 1, 3.0), {(1, 0): 1.0},
                        0.5 * np.exp(0.7j), 48) <= 1e-6

    def test_two_type_linearity(self):
        assert self.gap(SpectralParams(2, 0, 3.5),
                        {(1, 0): 1.0 - 0.5j, (2, 1): 0.25},
                        0.45 * np.exp(2.1j), 48) <= 1e-6

    @pytest.mark.parametrize("p,coeffs,z,N", [
        (SpectralParams(1, 1, 2.0 + 0.5j), {(0,): 1.0, (2,): 0.5j, (-1,): -0.3},
         0.6 * np.exp(-1.3j), 96),
        (SpectralParams(2, 0, 3.5), {(1, 0): 1.0 - 0.5j, (2, 1): 0.25},
         0.45 * np.exp(2.1j), 48),
        (SpectralParams(3, 1, 4.5 + 0.5j), {(1, 0, 0): 1.0, (2, 1, -1): 0.4 - 0.2j},
         0.4 * np.exp(0.9j), 32),
    ], ids=["n1", "n2", "n3"])
    def test_matches_expansion_and_reference_quadrature(self, p, coeffs, z, N):
        assert self.gap(p, coeffs, z, N) <= 1e-6


def count_walks(monkeypatch):
    """Record the tables of every torus-grid walk, whichever module runs it."""
    walks = []
    inner = boundary._grid_sum

    def counting(integrand, *tables):
        walks.append(len(tables))
        return inner(integrand, *tables)

    monkeypatch.setattr(boundary, "_grid_sum", counting)
    return walks


class TestWorkCounts:
    def test_norm_lower_bound_shares_phi_tables_and_walks(self, monkeypatch):
        # 6 groups of 3 functions sharing p: one walk each, plus one per
        # single-type slice; 6 groups x 4 scalar profiles over 14 radii
        # plus 2 slices x 4 profiles at one radius
        walks = count_walks(monkeypatch)
        calls = []
        inner = spherical._phi_scalar_cores

        def counting(p, k, radii):
            calls.append(len(radii))
            return inner(p, k, radii)

        monkeypatch.setattr(spherical, "_phi_scalar_cores", counting)
        assert verify.norm_lower_bound().passed
        assert len(walks) == 8
        assert len(calls) == 6 * 4 + 2 * 4
        assert sum(calls) == 344

    def test_oracle_equivalence_walks_once_per_point(self, monkeypatch):
        # 2 ranks x (3 params x 4 radii + 1 gate call on the doubled grid):
        # the gate's production-grid value is the main loop's
        walks = count_walks(monkeypatch)
        assert verify.oracle_equivalence().passed
        assert len(walks) == 26
        assert sorted(set(walks)) == [2, 6]

    def test_one_signature_oracle_walks_two_tables(self, monkeypatch):
        walks = count_walks(monkeypatch)
        spherical_oracle(SpectralParams(3, 1, 4.5), (2, 1, 0), 0.5,
                         TorusGrid(3, 16))
        assert walks == [2]

    def test_norm_sandwich_walks_the_grid_once(self, monkeypatch):
        walks = []
        inner = boundary._grid_sum

        def counting(*args):
            walks.append(1)
            return inner(*args)

        monkeypatch.setattr(boundary, "_grid_sum", counting)
        f = KTypeFunction({(0, 0): 1.0, (1, 0): 0.5 - 0.25j})
        norm_sandwiches(SpectralParams(2, 0, 3.0), [f], 2.0)
        assert len(walks) == 1

    def test_repeated_criterion_repeats_its_work(self, monkeypatch):
        # nothing is memoized across calls: a second run of criterion 8
        # evaluates every scalar profile again
        calls = []
        inner = spherical._phi_scalar_cores

        def counting(p, k, radii):
            calls.append(1)
            return inner(p, k, radii)

        monkeypatch.setattr(spherical, "_phi_scalar_cores", counting)
        counts = []
        for _ in range(2):
            calls.clear()
            assert verify.norm_lower_bound().passed
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


class TestDeterminism:
    def test_sweep_rows_are_reproducible(self):
        p = SpectralParams(2, 0, 3.0)
        sigs = [(0, 0), (1, 0), (2, 1)]
        a = key_lemma_sweep(p, sigs, [0.9, 0.99])
        b = key_lemma_sweep(p, sigs, [0.9, 0.99])
        assert a.rows == b.rows
