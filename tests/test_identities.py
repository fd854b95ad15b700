"""Tests for the determinant identities, product identities and the
c-function factorization."""

import itertools

import numpy as np
import pytest

from matball import verify
from matball.errors import (CoincidentError, DegenerateConnection,
                            DomainError, GuardError, PoleError)
from matball.identities import (AppendixParams, _det_ld, _det_ld_batch,
                                _eval_2f1_ld, _eval_2f1_ld_array, dp_factor,
                                e9_identity_check, induction_identity_check,
                                lemma_a_rel_error, lemma_a_sides,
                                lemma_a_sides_batch, lemma_b_first_order,
                                lemma_b_passed, lemma_b_ratio,
                                pochhammer_product_check)
from matball.report import make_report
from matball.special import SpectralParams, gauss_2f1
from matball.spherical import weyl_dimension
from matball.verify import draw_appendix_params, draw_appendix_params_batch


class TestLemmaA:
    def test_rank_one_trivial(self):
        ap = AppendixParams(1, 0.6 + 0.3j, 1.1 - 0.2j, (0.4 + 0.1j,))
        lhs, rhs = lemma_a_sides(ap, 0.5)
        ref = gauss_2f1(ap.alpha, ap.beta + ap.p[0] + 1, ap.alpha + ap.beta,
                        1 - 0.25)
        assert abs(lhs - ref) < 1e-12 and abs(rhs - ref) < 1e-12

    def test_rank_two_example(self):
        ap = AppendixParams(2, 0.7 + 0.2j, 1.3 - 0.5j, (0.4, -1.1))
        lhs, rhs = lemma_a_sides(ap, 0.6)
        assert abs(lhs - rhs) / abs(lhs) <= 1e-9

    def test_rank_three_random(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            ap = draw_appendix_params(rng, 3)
            lhs, rhs = lemma_a_sides(ap, 0.8)
            assert abs(lhs - rhs) / abs(lhs) <= 1e-8

    def test_seeded_sweep(self):
        rng = np.random.default_rng(42)
        for n in (2, 3, 4):
            for _ in range(20):
                ap = draw_appendix_params(rng, n)
                for r in (0.3, 0.6, 0.9):
                    lhs, rhs = lemma_a_sides(ap, r)
                    assert abs(lhs - rhs) / abs(lhs) <= 1e-8

    def test_prefactor_sign_forms_agree(self):
        # (r^2-1)^(n(n-1)/2) == (-1)^(n(n-1)/2) (1-r^2)^(n(n-1)/2)
        for n in (1, 2, 3, 4, 5):
            q0 = n * (n - 1) // 2
            for r in (0.3, 0.9):
                assert (r * r - 1.0) ** q0 == (-1) ** q0 * (1.0 - r * r) ** q0

    def test_guards(self):
        with pytest.raises(GuardError):
            lemma_a_sides(AppendixParams(3, -1.0 + 1e-9j, 0.5, (0, 1j, 2j)), 0.5)
        with pytest.raises(GuardError):
            AppendixParams(2, 0.5, 0.5, (0.1,))


def _seed42_draws(draws):
    """``draws`` seeded draws at each rank 2, 3, 4, in turn from one
    ``default_rng(42)`` stream.  Only rank 2's are criterion 5's first
    draws: criterion 5 takes 100 per rank before it moves on."""
    rng = np.random.default_rng(42)
    return {n: [draw_appendix_params(rng, n) for _ in range(draws)]
            for n in (2, 3, 4)}


class TestLemmaABatch:
    """The batched sides against the per-draw ones, which stay the
    reference."""

    def test_matches_per_draw_sides(self):
        for n, aps in _seed42_draws(20).items():
            for r in (0.3, 0.6, 0.9):
                lhs, rhs = (v[0] for v in lemma_a_sides_batch(aps, (r,)))
                ref = np.array([lemma_a_sides(ap, r) for ap in aps])
                if r == 0.9:
                    # x = 0.19: the long-double series, bit for bit
                    assert np.array_equal(lhs, ref[:, 0])
                    assert np.array_equal(rhs, ref[:, 1])
                for got, want in ((lhs, ref[:, 0]), (rhs, ref[:, 1])):
                    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8
                assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-8

    @pytest.mark.parametrize("x", [1e-7, 0.19, 0.36, 0.5])
    def test_series_entries_bit_identical(self, x):
        # x = 1e-7 stops every series at k = 3, the earliest stop the scalar
        # loop allows, and the integer a of row 0 gives exact zero terms
        rng = np.random.default_rng(5)
        a, b, c = (rng.uniform(-2, 3, (40, 3)) + 1j * rng.uniform(-1, 1, (40, 3))
                   for _ in range(3))
        a[0] = (-1.0, -2.0, -5.0)
        got = _eval_2f1_ld_array(a, b, c, (x,))[0]
        want = [_eval_2f1_ld(*abc, x) for abc in zip(a.ravel(), b.ravel(), c.ravel())]
        assert got.dtype == np.clongdouble
        assert np.array_equal(got.ravel(), np.array(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_batch_bit_identical(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((2000, n, n)) + 1j * rng.standard_normal((2000, n, n))
        M[0] = 0                           # singular from the first pivot
        M[1, :, -1] = 0                    # singular at the last pivot
        got = _det_ld_batch(M)
        want = np.array([_det_ld(m) for m in M])
        assert np.array_equal(got, want)
        assert got[0] == 0 and got[1] == 0

    @staticmethod
    def _with_bad_draw(n, bad):
        aps = _seed42_draws(6)[n]
        return aps[:3] + [bad] + aps[3:]

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
    def test_pole_draw_raises_like_per_draw(self, r):
        # alpha + beta = 1 - n passes the identity guard, but c = alpha + beta
        # is then a pole of every left-hand entry
        bad = AppendixParams(3, 0.4 + 0.5j, -2.4 - 0.5j, (0.1j, -1.2, -2.4 + 0.3j))
        with pytest.raises(PoleError):
            lemma_a_sides(bad, r)
        with pytest.raises(PoleError):
            lemma_a_sides_batch(self._with_bad_draw(3, bad), (r,))

    def test_degenerate_draw_raises_like_per_draw(self):
        # c - a - b = -p_1 - j sits 1e-10 off an integer: the ring
        bad = AppendixParams(2, 0.4 + 0.5j, 0.3 - 0.6j, (1e-10, -1.2 + 0.3j))
        with pytest.raises(DegenerateConnection):
            lemma_a_sides(bad, 0.3)
        with pytest.raises(DegenerateConnection):
            lemma_a_sides_batch(self._with_bad_draw(2, bad), (0.3,))

    @pytest.mark.parametrize("r", [0.3, 0.6])
    def test_log_case_draw_matches_per_draw(self, r):
        # an integer p_1 puts its row on the logarithmic branch, which the
        # batch takes through the scalar gauss_2f1
        log_draw = AppendixParams(2, 0.4 + 0.5j, 0.3 - 0.6j, (0.0, -1.2 + 0.3j))
        aps = self._with_bad_draw(2, log_draw)
        lhs, rhs = (v[0] for v in lemma_a_sides_batch(aps, (r,)))
        ref = np.array([lemma_a_sides(ap, r) for ap in aps])
        assert np.max(np.abs(lhs - ref[:, 0]) / np.abs(ref[:, 0])) <= 1e-11
        assert np.max(np.abs(rhs - ref[:, 1]) / np.abs(ref[:, 1])) <= 1e-11

    def test_zero_radius_refused(self):
        # r = 0 puts every table entry at x = 1, outside 2F1's domain
        aps = _seed42_draws(2)[2]
        with pytest.raises(DomainError):
            lemma_a_sides(aps[0], 0.0)
        with pytest.raises(DomainError):
            lemma_a_sides_batch(aps, (0.0,))

    def test_mixed_ranks_refused(self):
        aps = _seed42_draws(2)
        with pytest.raises(GuardError):
            lemma_a_sides_batch(aps[2] + aps[3], (0.6,))

    def test_empty_inputs(self):
        with pytest.raises(GuardError, match="at least one draw"):
            lemma_a_sides_batch([], (0.3, 0.9))
        aps = _seed42_draws(3)[3]
        lhs, rhs = lemma_a_sides_batch(aps, ())
        assert lhs.shape == rhs.shape == (0, 3)
        assert lhs.dtype == rhs.dtype == complex


class TestLemmaARelError:
    def test_one_draw_keeps_the_builtin_bits(self):
        ap = draw_appendix_params(np.random.default_rng(5), 3)
        lhs, rhs = lemma_a_sides(ap, 0.6)
        rel = lemma_a_rel_error(lhs, rhs, (ap,), 0.6)
        assert type(rel) is float and rel == abs(lhs - rhs) / abs(lhs)

    def test_batch_keeps_the_numpy_bits(self):
        aps = draw_appendix_params_batch(np.random.default_rng(5), 3, 6)
        (lhs,), (rhs,) = lemma_a_sides_batch(aps, (0.9,))
        got = lemma_a_rel_error(lhs, rhs, aps, 0.9)
        assert np.array_equal(got, np.abs(lhs - rhs) / np.abs(lhs))

    @pytest.mark.parametrize("lhs,rhs", [(0j, 1j), (complex("nan"), 1j),
                                         (1j, complex("inf"))])
    def test_undefined_error_is_refused(self, lhs, rhs):
        ap = draw_appendix_params(np.random.default_rng(5), 2)
        with pytest.raises(GuardError, match="relative error undefined"):
            lemma_a_rel_error(lhs, rhs, (ap,), 0.3)
        with pytest.raises(GuardError, match=r"AppendixParams\(n=2,"):
            lemma_a_rel_error(np.array([1j, lhs]), np.array([1j, rhs]),
                              (None, ap), 0.3)


class TestLemmaACriterion:
    def test_singular_table_fails_loudly(self, monkeypatch):
        # equal p entries give two equal rows, so lhs = 0 and the relative
        # error 0/0: a named refusal, never a nan worst_rel
        singular = AppendixParams(2, 0.4 + 0.5j, 0.3 - 0.6j,
                                  (0.2 + 0.1j, 0.2 + 0.1j))

        def draw(rng, n, draws):
            return [singular] + draw_appendix_params_batch(rng, n, draws - 1)

        monkeypatch.setattr(verify, "draw_appendix_params_batch", draw)
        with pytest.raises(GuardError, match="relative error undefined"):
            verify.lemma_a_identity()
        monkeypatch.setattr(verify, "ALL_CRITERIA", (verify.lemma_a_identity,))
        (res,), *_ = verify.run_all()
        assert not res.passed and "GuardError" in res.details["error"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batch_draws_equal_the_per_draw_stream(self, n):
        # one uniform array per rank reproduces the scalar calls bit for bit
        def per_draw(rng):
            a = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.2))
            b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, -0.3))
            p = tuple(complex(-1.2 * i + rng.uniform(-0.25, 0.25),
                              rng.uniform(-0.8, 0.8)) for i in range(n))
            return AppendixParams(n, a, b, p)

        for seed in (42, 7, 123):
            ref, batch, single = (np.random.default_rng(seed) for _ in range(3))
            want = repr([per_draw(ref) for _ in range(20)])
            assert repr(draw_appendix_params_batch(batch, n, 20)) == want
            assert repr([draw_appendix_params(single, n) for _ in range(20)]) == want
            assert ref.random() == batch.random() == single.random()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_task_continues_the_seed_42_stream(self, monkeypatch, n):
        # each rank's task starts its own generator and discards the lower
        # ranks' arrays: its draws are those of one seed-42 stream drawn over
        # ranks 2, 3, 4 in turn, exactly
        class Drawn(Exception):
            pass

        rng = np.random.default_rng(42)
        want = {k: draw_appendix_params_batch(rng, k, 100) for k in (2, 3, 4)}
        got = []

        def draw(rng, k, draws):
            got.append(draw_appendix_params_batch(rng, k, draws))
            raise Drawn

        monkeypatch.setattr(verify, "draw_appendix_params_batch", draw)
        with pytest.raises(Drawn):
            verify._lemma_a_worst(n)
        assert repr(got) == repr([want[n]])


class TestDpFactor:
    def test_small_cases(self):
        assert dp_factor((1.7 + 0.3j,)) == 1.0
        assert abs(dp_factor((1.0, 0.0)) - 1.0) < 1e-15

    def test_coincident(self):
        with pytest.raises(CoincidentError):
            dp_factor((0.5, 0.5 + 1e-9))

    def test_reproduces_weyl_dimension(self):
        # dp on the strictly decreasing tuple (m_i - i) equals d_m
        for n in (1, 2, 3):
            parts = itertools.product(range(-5, 6), repeat=n)
            for m in parts:
                m = tuple(sorted(m, reverse=True))
                shifted = tuple(m[i] - (i + 1) for i in range(n))
                val = dp_factor(shifted)
                assert abs(val.imag) < 1e-9
                assert round(val.real) == weyl_dimension(m)
                assert abs(val.real - round(val.real)) < 1e-9


class TestLemmaB:
    def test_rank_one_limit(self):
        ap = AppendixParams(1, 0.6 + 0.3j, 1.1 - 0.2j, (0.4 + 0.1j,))
        assert abs(lemma_b_ratio(ap, 0.9999) - 1.0) <= 1e-2

    def test_rank_two_convergence(self):
        rng = np.random.default_rng(33)
        ap = draw_appendix_params(rng, 2)
        d1 = abs(lemma_b_ratio(ap, 0.9999) - 1.0)
        d2 = abs(lemma_b_ratio(ap, 0.99999) - 1.0)
        assert d1 <= 5e-2 and d2 < d1

    def test_uniform_over_tuples(self):
        rng = np.random.default_rng(35)
        base = draw_appendix_params(rng, 2)
        devs = []
        for _ in range(3):
            p = tuple(complex(-1.1 * i + rng.uniform(-0.3, 0.3),
                              rng.uniform(-0.7, 0.7)) for i in range(2))
            ap = AppendixParams(2, base.alpha, base.beta, p)
            devs.append(abs(lemma_b_ratio(ap, 0.9999) - 1.0))
        assert max(devs) <= 5e-2

    def test_first_order_convergence(self):
        # deviation at r = 1-1e-5 within 10x of the linear-in-(1-r^2)
        # extrapolation from r = 1-1e-3 and r = 1-1e-4
        rng = np.random.default_rng(37)
        for n in (2, 3):
            ap = draw_appendix_params(rng, n)
            xs, ds = [], []
            for r in (1 - 1e-3, 1 - 1e-4, 1 - 1e-5):
                xs.append(1 - r * r)
                ds.append(abs(lemma_b_ratio(ap, r) - 1.0))
            slope = (ds[1] - ds[0]) / (xs[1] - xs[0])
            predicted = ds[1] + slope * (xs[2] - xs[1])
            assert ds[2] <= 10.0 * abs(predicted)

    def test_sign_resolution(self):
        # the paper's candidate sign is -1 at n = 2, 3 (mod 4); the
        # reference uses +1, and the ratio tends to +1, not -1
        rng = np.random.default_rng(39)
        for n in (2, 3):
            ap = draw_appendix_params(rng, n)
            ratio = lemma_b_ratio(ap, 0.99999)
            assert abs(ratio - 1.0) < 0.1
            assert abs(ratio + 1.0) > 1.5

    def test_asymptotic_guard(self):
        with pytest.raises(GuardError):
            lemma_b_ratio(AppendixParams(3, 0.5, -1.0 + 1e-8j, (0, 1j, 2.0)),
                          0.999)


class TestLemmaBRule:
    RADII = (1 - 1e-3, 1 - 1e-4, 1 - 1e-5)

    def test_rank_one_draw_passes(self):
        # criterion 6's rank-1 deviations fall tenfold per step
        devs = (6.91e-3, 6.89e-4, 6.89e-5)
        assert lemma_b_first_order(self.RADII, devs)
        assert lemma_b_passed(self.RADII, devs)

    def test_rank_four_draw_fails(self):
        # draw 0 of lemma-b --n 4: the last deviation rises instead of
        # falling, though it stays under the 5e-2 gate
        devs = (1.87e-2, 1.83e-3, 1.47e-2)
        assert not lemma_b_first_order(self.RADII, devs)
        assert not lemma_b_passed(self.RADII, devs)

    @pytest.mark.parametrize("q,first_order", [
        (0.1, True), (0.06, True), (0.19, True), (0.04, False), (0.25, False)])
    def test_band_is_a_factor_two_around_the_step_in_one_minus_r2(
            self, q, first_order):
        # 1 - r^2 falls by ~0.1 per step at these radii
        devs = (1e-2, 1e-2 * q, 1e-2 * q * 0.1)
        assert lemma_b_first_order(self.RADII, devs) is first_order
        assert lemma_b_passed(self.RADII, devs) is first_order

    def test_last_deviation_gate(self):
        assert not lemma_b_passed(self.RADII, (6.0, 0.6, 0.06))
        assert lemma_b_passed(self.RADII, (5.0, 0.5, 0.05))

    def test_one_radius_has_no_step(self):
        assert lemma_b_passed((0.999,), (0.04,))
        assert not lemma_b_passed((0.999,), (0.06,))

    def test_unsorted_radii_fail(self):
        # a deviation that falls while 1 - r^2 grows is not first order
        assert not lemma_b_first_order(self.RADII[::-1], (6.91e-3, 6.89e-4,
                                                          6.89e-5))

    def test_nan_deviation_fails(self):
        assert not lemma_b_passed(self.RADII, (1e-2, float("nan"), 1e-4))


class TestProductIdentities:
    def test_pochhammer_product(self):
        assert pochhammer_product_check(1.3 - 0.8j, 1).rel_error == 0.0
        assert pochhammer_product_check(2.7 + 0.3j, 3).rel_error <= 1e-12
        rng = np.random.default_rng(41)
        a = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        assert pochhammer_product_check(a, 5).rel_error <= 1e-11

    def test_induction_identity(self):
        assert induction_identity_check(0.77 + 2j, 1).rel_error == 0.0
        assert induction_identity_check(3.7, 2).rel_error <= 1e-12
        assert induction_identity_check(2.3 + 1.1j, 4).rel_error <= 1e-10

    def test_induction_guard(self):
        with pytest.raises(GuardError):
            induction_identity_check(1.0, 3)

    def test_criterion_reads_each_gate(self, monkeypatch):
        # a Pochhammer report 5e-11 off misses its own 1e-11 gate, though it
        # stays under the 1e-9 gate of the c-function factorization
        real = verify.pochhammer_product_check

        def off(a, n):
            rep = real(a, n)
            return make_report(rep.computed * (1 + 5e-11), rep.reference, 1e-11)

        assert verify.small_identities().passed
        monkeypatch.setattr(verify, "pochhammer_product_check", off)
        res = verify.small_identities()
        assert 1e-11 < float(res.details["worst_rel"]) < 1e-9
        assert not res.passed


class TestE9Identity:
    def test_rank_one_reduction(self):
        rep = e9_identity_check(SpectralParams(1, 2, 2.2 + 0.7j))
        assert rep.rel_error <= 1e-14

    def test_examples(self):
        assert e9_identity_check(SpectralParams(2, 0, 3.0)).rel_error <= 1e-10
        assert e9_identity_check(
            SpectralParams(3, 2, 4.5 + 0.5j)).rel_error <= 1e-9

    def test_default_grid(self):
        for n in (1, 2, 3):
            for nu in range(-3, 4):
                for s in (n - 0.4, n + 1.0, n + 2.5, complex(n + 1, 1.0)):
                    try:
                        rep = e9_identity_check(SpectralParams(n, nu, s))
                    except Exception:
                        continue  # pole combinations are excluded by guards
                    assert rep.passed, (n, nu, s, rep.rel_error)
