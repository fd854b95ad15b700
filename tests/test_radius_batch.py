"""Radius-batched 2F1, Phi and Lemma A tables against the per-radius forms
of ``radius_reference``, bit for bit, and the work that sharing the
radius-free factors saves."""

import numpy as np
import pytest

import radius_reference as ref
from matball import identities, special, verify
from matball.boundary import TorusGrid
from matball.errors import MatballError
from matball.experiments import DEFAULT_RADII, KTypeFunction, norm_sandwiches
from matball.identities import (AppendixParams, _eval_2f1_ld_array,
                                lemma_a_sides_batch)
from matball.special import (SpectralParams, _gauss_2f1_array, _gauss_2f1_xs,
                             _log_case_2f1, gauss_2f1)
from matball.spherical import phi_big, phi_bigs
from matball.verify import draw_appendix_params, signatures_up_to

RADII = (0.0, 0.1, 0.5, 0.7, 0.9, 0.9999) + DEFAULT_RADII
XS = (0.0, 0.1, 0.5, 0.5000001, 0.64, 0.9, 0.99, 0.999999) + tuple(
    r * r for r in DEFAULT_RADII)


def outcome(call):
    """The exact bits of a complex result, or the type of the refusal."""
    try:
        return np.array(call(), dtype=complex, ndmin=1).view(np.uint64).tolist()
    except MatballError as exc:
        return type(exc)


# (a, b, c) on every branch of the dispatcher
PARAMS = {
    "connection": (0.5 + 1j, 1.25, 2.0 - 0.5j),
    "connection_real": (1.5, 2.25, 3.1),
    "connection_near_pole_c": (0.75, 1.25, -1.0 + 1e-3j),
    "connection_zero_coef": (2.5, 0.7, 1.5),
    "log_m0": (0.5, 1.5, 2.0),
    "log_m0_complex": (1.25 + 0.5j, 0.75 - 0.25j, 2.0 + 0j),
    "log_euler_m2": (0.5, 1.5, 4.0),
    "log_m3": (2.0, 1.5, 0.5 + 1e-13),
    "terminating": (-3.0, 2.5, 1.25),
    "terminating_near": (2.5, -2.0 + 1e-13, 1.25),
    "ring": (0.5, 1.5, 3.0 + 5e-11),
    "pole": (0.5, 1.5, -2.0),
}


class TestGauss2F1Radii:
    @pytest.mark.parametrize("abc", PARAMS.values(), ids=PARAMS.keys())
    def test_bit_identical_to_per_x_reference(self, abc):
        per_x = [outcome(lambda x=x: gauss_2f1(*abc, x)) for x in XS]
        assert per_x == [outcome(lambda x=x: ref.gauss_2f1(*abc, x)) for x in XS]
        assert (outcome(lambda: _gauss_2f1_xs(*abc, XS))
                == outcome(lambda: [ref.gauss_2f1(*abc, x) for x in XS]))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_log_case_shares_its_digamma_lists(self, monkeypatch, m):
        a, b = 1.25 + 0.5j, 0.75 - 0.25j
        ys = (0.5, 0.25, 0.01, 0.4)
        assert (outcome(lambda: _log_case_2f1(a, b, m, ys))
                == outcome(lambda: [ref._log_case_2f1(a, b, m, y) for y in ys]))
        # psi(a + k) and psi(b + k) are taken once, for the longest series
        args = []
        inner = special.digamma
        monkeypatch.setattr(special, "digamma",
                            lambda z: args.append(z) or inner(z))
        _log_case_2f1(a, b, m, ys)
        shared = len(args)
        args.clear()
        _log_case_2f1(a, b, m, (0.5,))
        assert shared == len(args)


class TestPhiBigsRadii:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("nu", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("kind", ["real", "integer", "complex", "large"])
    def test_bit_identical_to_per_radius_reference(self, n, nu, kind):
        s = {"real": n + 0.5, "integer": n + 1.0, "complex": n + 0.5 + 0.75j,
             "large": 20.0 - 3j}[kind]
        p = SpectralParams(n, nu, s)
        sigs = list(signatures_up_to(n, 1))
        want = outcome(lambda: [ref.phi_bigs(p, sigs, r) for r in RADII])
        assert outcome(lambda: phi_bigs(p, sigs, RADII)) == want
        assert outcome(lambda: [[phi_big(p, m, r) for m in sigs]
                                for r in RADII]) == want


def _seed42_draws(draws):
    rng = np.random.default_rng(42)
    return {n: [draw_appendix_params(rng, n) for _ in range(draws)]
            for n in (2, 3, 4)}


# one draw per special branch, each put among regular draws of its rank
SPECIAL_DRAWS = {
    # an integer p_1 puts its row on the logarithmic branch
    "log": AppendixParams(2, 0.4 + 0.5j, 0.3 - 0.6j, (0.0, -1.2 + 0.3j)),
    # c - a - b = -p_1 - j sits 1e-10 off an integer: the ring
    "ring": AppendixParams(2, 0.4 + 0.5j, 0.3 - 0.6j, (1e-10, -1.2 + 0.3j)),
    # c = alpha + beta = 1 - n is a pole of every left-hand entry
    "pole": AppendixParams(3, 0.4 + 0.5j, -2.4 - 0.5j,
                           (0.1j, -1.2, -2.4 + 0.3j)),
    # alpha = -2 passes the rank-3 guard and terminates every series
    "terminating": AppendixParams(3, -2.0, 0.3 - 0.6j,
                                  (0.1j, -1.2, -2.4 + 0.3j)),
}


class TestLemmaABatchRadii:
    RADII = (0.1, 0.3, 0.6, 0.9, 0.9999)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bit_identical_to_per_radius_batches(self, n):
        aps = _seed42_draws(100)[n]
        want = outcome(lambda: np.array(
            [ref.lemma_a_sides_batch(aps, r) for r in self.RADII]).swapaxes(0, 1))
        assert outcome(lambda: np.array(lemma_a_sides_batch(aps, self.RADII))) == want

    @pytest.mark.parametrize("kind", SPECIAL_DRAWS)
    def test_special_draws_match_per_radius_batches(self, kind):
        bad = SPECIAL_DRAWS[kind]
        regular = _seed42_draws(6)[bad.n]
        aps = regular[:3] + [bad] + regular[3:]
        for radii in (self.RADII, (0.3,), (0.9,)):
            want = outcome(lambda: np.array(
                [ref.lemma_a_sides_batch(aps, r) for r in radii]).swapaxes(0, 1))
            assert outcome(lambda: np.array(lemma_a_sides_batch(aps, radii))) == want

    def test_array_forms_match_per_x_reference(self):
        rng = np.random.default_rng(5)
        a, b, c = (rng.uniform(-2, 3, (40, 3)) + 1j * rng.uniform(-1, 1, (40, 3))
                   for _ in range(3))
        a[0] = (-1.0, -2.0, -5.0)                  # terminating
        c[1] = a[1] + b[1] + (0.0, 2.0, -1.0)      # logarithmic case
        xs = (0.19, 0.5, 0.64, 0.91, 0.9999)
        high = xs[2:]                              # the connection region
        assert (outcome(lambda: _gauss_2f1_array(a, b, c, high))
                == outcome(lambda: [ref._gauss_2f1_array(a, b, c, x) for x in high]))
        got = _eval_2f1_ld_array(a, b, c, xs)
        assert np.array_equal(
            got, np.array([ref._eval_2f1_ld_array(a, b, c, x) for x in xs]))


def _ld(v):
    return np.asarray(v, dtype=np.clongdouble)


def _recording(monkeypatch, name, seen):
    """Wrap special.<name> so that each call records the dtype and size of
    its first argument."""
    inner = getattr(special, name)

    def recording(first, *args):
        seen.append((first.dtype, first.size))
        return inner(first, *args)

    monkeypatch.setattr(special, name, recording)


def _ld_entries(seen):
    return sum(size for dtype, size in seen if dtype == np.clongdouble)


# long-double series whose stop tests leave double's range or stop early;
# each is (a, b, c, x) for 30 entries
def _stop_cases():
    rng = np.random.default_rng(17)
    a, b, c = (rng.uniform(-2, 3, 30) + 1j * rng.uniform(-1, 1, 30)
               for _ in range(3))
    huge = np.array([1e100, -3e120 + 1e119j, 2e150j] * 10)
    return {
        # every term from k = 1 on is below 1e-308: the casts are zero or
        # subnormal, and each series stops at k = 3
        "tiny_terms": (a, b, c, 1e-200),
        # an integer a ends each series with exact zero terms, and a huge b
        # drives the terms before them above 1e308
        "huge_terms": (np.array([-5.0, -6.0, -7.0] * 10), huge, c, 0.25),
        # a small x stops every series at k = 3, inside double's range
        "stop_at_k3": (a, b, c, 1e-7),
        "regular": (a, b, c, 0.45),
    }


class TestScreenedStop:
    """The long-double stop test decided from complex128 magnitudes, with
    the exact test on the entries the screen cannot decide, against the
    per-entry scalar series and the reference's exact-test stack."""

    @pytest.mark.parametrize("case", _stop_cases())
    @pytest.mark.parametrize("band", [special._SCREEN_BAND, 1e300],
                             ids=["screen", "all_exact"])
    def test_bit_identical_to_per_entry_and_reference(self, monkeypatch, case,
                                                      band):
        a, b, c, x = _stop_cases()[case]
        monkeypatch.setattr(special, "_SCREEN_BAND", band)
        seen = []
        _recording(monkeypatch, "_below_tol", seen)
        got, done = special._series_2f1_array(_ld(a), _ld(b), _ld(c), _ld(x),
                                              identities._LD_SERIES_TOL)
        assert done.all() and got.dtype == np.clongdouble
        want = np.array([identities._eval_2f1_ld(*abc, x)
                         for abc in zip(a, b, c)])
        assert np.array_equal(got, want)
        ref_sums, ref_done = ref._series_2f1_array(
            _ld(a), _ld(b), _ld(c), _ld(x), identities._LD_SERIES_TOL)
        assert ref_done.all() and np.array_equal(got, ref_sums)
        if case == "huge_terms":
            assert (np.abs(got) > 1e308).all()
        if band == 1e300 or case in ("tiny_terms", "huge_terms"):
            assert _ld_entries(seen) > 0    # the fallback did run
        else:
            assert _ld_entries(seen) == 0


def _kernel_cases():
    """(a, b, c, x) in long double for the series kernel's stop tests."""
    rng = np.random.default_rng(23)

    def draw(size, lo=-2.0, hi=3.0):
        return _ld(rng.uniform(lo, hi, size) + 1j * rng.uniform(-1, 1, size))

    a, b, c = draw(30), draw(30), draw(30, 0.5, 4.0)
    # a = -1 + eps i: 1 + a b x / c cancels to eps i exactly, and every
    # later term is of size eps.  In long double those terms are nonzero
    # but cast to 0 in complex128, so they must not stop on the zero test;
    # in complex128 eps is 0 and a = -1 ends the series at k = 1
    eps = np.ldexp(np.longdouble(1), -1200)
    tiny_a = _ld([-1.0 + 0j] * 6) + _ld(1j) * eps * np.arange(1, 7)
    huge = np.ldexp(np.longdouble(1), 16000)
    # in the first three, c + k = 0 at the step after the zero term, so a
    # series that ran on past it would turn NaN
    pole = np.concatenate([_ld([-1.0, -2.0, -3.0]), c[3:]])
    return {
        # integer a: exact zero terms at k = 0, 1, 2, and at k = 3 .. 8,
        # where the terms of a large b are still far above tol |total|
        "zero_early": (_ld([0.0, -1.0, -2.0] * 10), b, pole, _ld(0.45)),
        "zero_late": (_ld(np.arange(-3.0, -9.0, -1.0).repeat(5)),
                      b * 40.0, c, _ld(0.45)),
        "below_double": (tiny_a, _ld(2.0), _ld(1.0), _ld(0.5)),
        # totals that overflow complex128 (1e300 squared), long double
        # (2^16000 squared) or start out infinite or NaN
        "non_finite": (_ld([1e300, 1e300j, np.inf, np.nan, 1.0, 2.0]),
                       _ld([1e300, 1e300, 1.0, 1.0, huge, huge * 1j]),
                       _ld(2.5), _ld(0.3)),
        "regular": (a, b, c, _ld([[0.05], [0.3], [0.45]])),
    }


class TestSeriesKernel:
    """The library's series kernel against the plain-stop-test copy in
    ``radius_reference``, sums and done flags bit for bit, in both dtypes."""

    @staticmethod
    def _same(got, want):
        """Equal values with equal signs of zero, NaN where NaN."""
        return all(np.array_equal(f(got), f(want), equal_nan=True)
                   for f in (np.real, np.imag,
                             lambda v: np.signbit(v.real),
                             lambda v: np.signbit(v.imag)))

    def _check(self, a, b, c, x, dtype):
        tol = (special._SERIES_TOL if dtype == complex
               else identities._LD_SERIES_TOL)
        with np.errstate(all="ignore"):
            a, b, c = (np.asarray(v).astype(dtype) for v in (a, b, c))
            # x is real, as both callers pass it
            x = np.asarray(x).real.astype(
                float if dtype == complex else np.longdouble)
            got, done = special._series_2f1_array(a, b, c, x, tol)
            want, want_done = ref._series_2f1_array(a, b, c, x, tol)
        assert got.dtype == dtype and got.shape == want.shape
        assert self._same(got, want)
        assert np.array_equal(done, want_done)
        return got, done

    @pytest.mark.parametrize("case", _kernel_cases())
    @pytest.mark.parametrize("dtype", [complex, np.clongdouble],
                             ids=["complex128", "clongdouble"])
    def test_bit_identical_to_plain_stop_tests(self, case, dtype):
        got, done = self._check(*_kernel_cases()[case], dtype)
        if case == "non_finite":
            assert not done.all()
        else:
            assert done.all()
        if case == "below_double" and dtype == np.clongdouble:
            # the sums keep terms that complex128 cannot hold
            assert (got.astype(complex) == 0).all() and (got != 0).all()

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble],
                             ids=["complex128", "clongdouble"])
    def test_stack_above_the_elision_size(self, dtype):
        # 2 x 9,000 entries, past numpy's 16,384-entry temporary-elision
        # size in complex128; integer a mixes zero-term stops into the
        # relative ones
        rng = np.random.default_rng(29)
        a, b, c = (rng.uniform(-2, 3, 9000) + 1j * rng.uniform(-1, 1, 9000)
                   for _ in range(3))
        a[::7] = -(np.arange(a[::7].size) % 9)
        got, done = self._check(a, b, c + 1.0, np.array([[0.2], [0.45]]),
                                dtype)
        assert got.shape == (2, 9000) and done.all()


class TestStackSize:
    def test_entry_bits_do_not_depend_on_the_stack(self):
        # 20,000 entries: the Gamma arrays, the connection products and the
        # series stacks all pass numpy's 256 KiB temporary-elision size
        rng = np.random.default_rng(11)
        a, b, c = (rng.uniform(-2, 3, 20000) + 1j * rng.uniform(-1, 1, 20000)
                   for _ in range(3))
        xs = (0.64, 0.91)
        stacked = _gauss_2f1_array(a, b, c, xs)
        chunks = np.concatenate(
            [_gauss_2f1_array(a[i:i + 1000], b[i:i + 1000], c[i:i + 1000], xs)
             for i in range(0, a.size, 1000)], axis=1)
        assert np.array_equal(stacked.view(np.uint64), chunks.view(np.uint64))
        for i in (0, 7777, 19999):
            alone = _gauss_2f1_array(a[i:i + 1], b[i:i + 1], c[i:i + 1], xs)
            assert np.array_equal(stacked[:, i:i + 1].view(np.uint64),
                                  alone.view(np.uint64))
        # outside the connection region every entry is its own gauss_2f1
        # call, whatever the stack, so a small stack checks those bits
        xs = (0.2, 0.45)
        small = _gauss_2f1_array(a[:40], b[:40], c[:40], xs)
        scalar = np.array([[gauss_2f1(a[i], b[i], c[i], x) for i in range(40)]
                           for x in xs])
        assert np.array_equal(small.view(np.uint64), scalar.view(np.uint64))

    def test_long_double_entry_bits_do_not_depend_on_the_stack(self, monkeypatch):
        # one entry in 50 has terms above double's range, so the screen's
        # exact subset is a different set of indices in every stack
        rng = np.random.default_rng(13)
        a, b, c = (rng.uniform(-2, 3, 20000) + 1j * rng.uniform(-1, 1, 20000)
                   for _ in range(3))
        a[::50], b[::50] = -6.0, 1e120
        seen = []
        _recording(monkeypatch, "_below_tol", seen)
        xs = (0.2, 0.45)
        stacked = _eval_2f1_ld_array(a, b, c, xs)
        assert _ld_entries(seen) > 0
        chunks = np.concatenate(
            [_eval_2f1_ld_array(a[i:i + 1000], b[i:i + 1000], c[i:i + 1000], xs)
             for i in range(0, a.size, 1000)], axis=1)
        assert np.array_equal(stacked, chunks)
        for i in (0, 1, 7777, 19950, 19999):
            alone = _eval_2f1_ld_array(a[i:i + 1], b[i:i + 1], c[i:i + 1], xs)
            assert np.array_equal(stacked[:, i:i + 1], alone)


class TestWorkCounts:
    @staticmethod
    def _count(monkeypatch, modules, name):
        calls = []
        inner = getattr(special, name)

        def counting(*args):
            calls.append(1)
            return inner(*args)

        for mod in modules:
            monkeypatch.setattr(mod, name, counting)
        return calls

    def test_lemma_a_identity_gamma_arrays(self, monkeypatch):
        # 7 Gamma arrays per rank, for both tables and both connection
        # radii.  Gamma(c), 1/Gamma(a) and 1/Gamma(c - a) do not depend on
        # the row, so they are formed once per (table, draw, column), the
        # other four per entry: 2 x 100 x (3 n + 4 n^2) entries summed over
        # n = 2, 3, 4, where all seven per entry would be 40,600
        sizes = []
        _recording(monkeypatch, "_gamma_array", sizes)
        assert verify.lemma_a_identity().passed
        assert len(sizes) == 3 * 7
        assert sum(size for _, size in sizes) == 28_600

    def test_lemma_a_identity_long_double_stops_screened(self, monkeypatch):
        # every long-double stop test of the criterion is decided from
        # complex128 magnitudes; the exact long-double test never runs
        screened, exact = [], []
        _recording(monkeypatch, "_small_terms", screened)
        _recording(monkeypatch, "_below_tol", exact)
        assert verify.lemma_a_identity().passed
        assert _ld_entries(screened) > 0
        assert _ld_entries(exact) == 0

    def test_lemma_a_identity_series_passes(self, monkeypatch):
        # per rank one long-double pass (r = 0.9) and one connection pass
        # (r = 0.3 and 0.6, both sub-series, both tables)
        calls = self._count(monkeypatch, (special, identities),
                            "_series_2f1_array")
        assert verify.lemma_a_identity().passed
        assert len(calls) == 3 * 2

    @pytest.mark.parametrize("p", [SpectralParams(2, 0, 3.0),    # log case
                                   SpectralParams(2, 1, 3.5)],   # connection
                             ids=["log", "connection"])
    def test_norm_sandwiches_gamma_calls_do_not_grow_with_radii(self, monkeypatch, p):
        # every radius >= 0.75 puts x = r^2 above 1/2
        f = KTypeFunction({(0, 0): 0.3, (1, 0): 1.0, (1, 1): 0.2j})
        calls = self._count(monkeypatch, (special,), "gamma")
        counts = []
        for radii in (DEFAULT_RADII[1:3],
                      tuple(1.0 - 2.0 ** -j for j in range(2, 16))):
            calls.clear()
            norm_sandwiches(p, [f], 2.0, radii, TorusGrid(2, 8))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
