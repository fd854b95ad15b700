"""Full verification suite: one function per acceptance criterion, each
returning a (name, passed, details) triple.  The CLI command ``verify-all``
and the acceptance test module both run these.

Most criteria run ranks n <= 2.  Criterion 5 (Lemma A) runs ranks 2 to 4,
and criterion 7 (the small identities) reaches rank 5: the c-function
factorization at n <= 3, the Pochhammer product at n in {1, 3, 5} and the
induction identity at n in {1, 2, 4}.  ``extended=True`` adds rank 3 to the
oracle, normalization and Lemma B criteria (1, 2 and 6).
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .boundary import TorusGrid, spherical_oracle
from .errors import GuardError, MatballError, PoleError
from .experiments import (SANDWICH_GRID, KTypeFunction, forelli_rudin_growth,
                          inversion_experiment, key_lemma_sweep, norm_sandwiches,
                          oracle_comparison)
from .hua import hua_residual
from .identities import (LEMMA_A_TOL, AppendixParams, e9_identity_check,
                         induction_identity_check, lemma_a_rel_error,
                         lemma_a_sides_batch, lemma_b_first_order,
                         lemma_b_passed, lemma_b_ratio,
                         pochhammer_product_check)
from .special import SpectralParams, c_function
from .spherical import phi_bigs


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{status}] {self.name}: {parts}"


def signatures_up_to(n: int, max_part: int):
    """All weakly decreasing integer n-tuples with |m_i| <= max_part, in
    lexicographically decreasing order."""
    return itertools.combinations_with_replacement(
        range(max_part, -max_part - 1, -1), n)


def _fmt(x: float) -> str:
    return f"{x:.2e}"


# The radii and grid N that a command's defaults share with its criteria
PHI_RADII = (0.1, 0.3, 0.5, 0.7)
KEY_LEMMA_RADII = (0.9, 0.99, 0.999, 0.9999)
LEMMA_A_RADII = (0.3, 0.6, 0.9)
LEMMA_B_RADII = (1 - 1e-3, 1 - 1e-4, 1 - 1e-5)
MASS_RADII = (0.5, 0.9, 0.99)
MASS_GRID = 64


def oracle_grid(n: int, r: float) -> TorusGrid:
    """Grid of the kernel-times-character quadrature: N = 80 tanh-sinh nodes
    per axis after the disk automorphism, at every radius r (see
    :func:`matball.boundary.spherical_oracles`)."""
    return TorusGrid(n, 80)


def oracle_equivalence(extended: bool = False) -> CriterionResult:
    """Determinant formula vs torus-quadrature oracle (oracle_comparison),
    after a grid self-consistency gate (half-resolution change <= 1e-8)."""
    ranks = (1, 2, 3) if extended else (1, 2)
    sigs_by_rank = {
        1: [(0,), (1,), (-1,), (2,), (-3,)],
        2: [(0, 0), (1, 0), (1, 1), (2, 1), (3, -1)],
        3: [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, -1)],
    }
    sweeps = []
    worst_gate = 0.0
    for n in ranks:
        params = [SpectralParams(n, 0, n + 0.5), SpectralParams(n, 1, n + 1.5),
                  SpectralParams(n, 2, n + 0.5)]
        sigs = sigs_by_rank[n]
        grid = oracle_grid(n, PHI_RADII[-1])
        sweeps += [oracle_comparison(p, sigs, PHI_RADII, grid) for p in params]
        # self-consistency gate at the most demanding radius: doubling the
        # production grid must not move the result by more than 1e-8; the
        # rows are signature-major, so sigs[3] at the last radius ends its block
        gate = sweeps[-2].column("oracle")[4 * len(PHI_RADII) - 1]
        doubled = TorusGrid(n, 2 * grid.points_per_dim)
        worst_gate = max(worst_gate, abs(
            gate - spherical_oracle(params[1], sigs[3], PHI_RADII[-1], doubled)))
    rels = [rel for sweep in sweeps for rel in sweep.column("rel_error")]
    return CriterionResult(
        "oracle_equivalence",
        all(sweep.passed for sweep in sweeps) and worst_gate <= 1e-8,
        {"worst_rel": _fmt(max(rels)), "grid_gate": _fmt(worst_gate),
         "cases": len(rels), "ranks": list(ranks)})


def normalization_anchor(extended: bool = False) -> CriterionResult:
    """Phi_0(0) = 1 exactly; Phi_m(0) = 0 (<= 1e-10) for m != 0."""
    ranks = (1, 2, 3) if extended else (1, 2)
    worst_zero = 0.0
    anchor_ok = True
    for n in ranks:
        for p in (SpectralParams(n, 0, n + 0.5), SpectralParams(n, 2, n + 1.5)):
            sigs = list(signatures_up_to(n, 2))
            phis = dict(zip(sigs, phi_bigs(p, sigs, (0.0,))[0]))
            anchor_ok &= phis.pop((0,) * n) == 1.0
            worst_zero = max(worst_zero, *map(abs, phis.values()))
    return CriterionResult(
        "normalization_anchor", anchor_ok and worst_zero <= 1e-10,
        {"anchor_exact": anchor_ok, "worst_nonzero_type": _fmt(worst_zero)})


def key_lemma_asymptotics(extended: bool = False) -> CriterionResult:
    """:func:`key_lemma_sweep` over KEY_LEMMA_RADII on >= 10 signatures per
    configuration: |ratio - 1| <= 5e-2 at the last radius, worst deviations
    shrinking, and its uniformity band (worst <= 100 x median at the final
    radius)."""
    configs = [
        (SpectralParams(1, 0, 1.5), [(k,) for k in range(-5, 6)]),
        (SpectralParams(2, 0, 3.0), [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1),
                                     (2, 2), (3, 1), (3, 0), (1, -1), (3, 2),
                                     (2, -1)]),
        (SpectralParams(2, 2, 4.0), [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1),
                                     (2, 2), (3, 0), (2, 0), (1, -1), (3, 2)]),
    ]
    ok = True
    details = {}
    for i, (p, sigs) in enumerate(configs):
        sweep = key_lemma_sweep(p, sigs, KEY_LEMMA_RADII)
        ok &= sweep.passed
        details[f"cfg{i}_worst"] = _fmt(sweep.metadata["worst_by_radius"][-1])
        details[f"cfg{i}_uniform"] = sweep.metadata["uniform"]
    return CriterionResult("key_lemma_asymptotics", ok, details)


def draw_hua_point(rng: np.random.Generator, n: int, scale: float):
    """Random (Z, U) for the eigen-equation: at n = 1 a point of a fixed
    annulus sector and U = I; otherwise Z with complex Gaussian entries of
    size ``scale`` and U the Q factor of a complex Gaussian matrix."""
    if n == 1:
        return (np.array([[complex(rng.uniform(0.1, 0.3),
                                   rng.uniform(-0.2, 0.2))]]), np.eye(1))
    Z = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    U, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Z, U


def hua_eigen_equation(extended: bool = False) -> CriterionResult:
    """Finite-difference residuals of both operator blocks that pass
    :func:`hua_residual` at h = 1e-3 on >= 6 parameter combinations, with
    O(h^2) Richardson decay (ratio 4 +/- 25% between h and h/2)."""
    rng = np.random.default_rng(2024)
    combos = [
        (1, 0, 1.0, np.array([[0.3 + 0.2j]]), np.eye(1)),
        (1, 1, 2.0, np.array([[0.35 + 0.0j]]), np.eye(1)),
        (1, -1, 1.5, np.array([[0.25 + 0.1j]]), np.eye(1)),
    ]
    for nu, s in ((0, 3.0), (1, 3.0), (-1, 2.5), (2, 3.5)):
        combos.append((2, nu, s, *draw_hua_point(rng, 2, 0.15)))
    reports = [hua_residual(SpectralParams(n, nu, s), Z, U, h=1e-3)
               for n, nu, s, Z, U in combos]
    worst = max(rep.rel_error for rep in reports)
    ok = all(rep.passed for rep in reports)
    # Richardson order check on two representative combos
    ratios = []
    for i in (0, 4):
        n, nu, s, Z, U = combos[i]
        half = hua_residual(SpectralParams(n, nu, s), Z, U, h=5e-4).rel_error
        ratios.append(reports[i].rel_error / half)
    richardson = all(3.0 <= q <= 5.0 for q in ratios)
    return CriterionResult(
        "hua_eigen_equation", ok and richardson,
        {"worst_residual": _fmt(worst),
         "richardson_ratios": [f"{q:.2f}" for q in ratios]})


def draw_appendix_params_batch(rng: np.random.Generator, n: int,
                               draws: int) -> list:
    """A list of `draws` guarded random parameter sets: complex alpha, beta
    with imaginary parts bounded away from zero and a p-tuple with
    separated entries (keeps the determinant conditioning inside
    double-precision range).  The 2n + 4 numbers of a draw are one row of a
    single uniform array, in the order alpha, beta, p_0, p_1, ..., real part
    first, so the stream does not depend on how the draws are batched."""
    lo = [-1.5, 0.3, -1.5, -1.2] + [-0.25, -0.8] * n
    hi = [1.5, 1.2, 1.5, -0.3] + [0.25, 0.8] * n
    return [AppendixParams(n, complex(u[0], u[1]), complex(u[2], u[3]),
                           tuple(complex(-1.2 * i + u[4 + 2 * i], u[5 + 2 * i])
                                 for i in range(n)))
            for u in rng.uniform(lo, hi, size=(draws, 2 * n + 4)).tolist()]


def draw_appendix_params(rng: np.random.Generator, n: int) -> AppendixParams:
    """One draw of :func:`draw_appendix_params_batch`."""
    return draw_appendix_params_batch(rng, n, 1)[0]


_LEMMA_A_DRAWS = 100


def _lemma_a_worst(n: int) -> float:
    """Worst relative error of Lemma A over rank n's 100 draws at
    LEMMA_A_RADII, evaluated together.  The ranks 2, 3, 4 share one
    seed-42 stream in that order, so the lower ranks' uniform arrays are drawn
    and discarded first.  A zero or non-finite side is refused with
    GuardError (:func:`lemma_a_rel_error`)."""
    rng = np.random.default_rng(42)
    for k in range(2, n):
        rng.uniform(size=(_LEMMA_A_DRAWS, 2 * k + 4))
    aps = draw_appendix_params_batch(rng, n, _LEMMA_A_DRAWS)
    return max(float(np.max(lemma_a_rel_error(lhs, rhs, aps, r)))
               for r, lhs, rhs in zip(LEMMA_A_RADII,
                                      *lemma_a_sides_batch(aps, LEMMA_A_RADII)))


def lemma_a_identity(extended: bool = False, worsts=None) -> CriterionResult:
    """Column-shift determinant identity to <= 1e-8 relative on 100 seeded
    guarded draws per rank for n in {2, 3, 4}, r in LEMMA_A_RADII.  Each
    rank is one of its ``tasks``: ``run_all`` passes their worst errors as
    ``worsts``; without them the ranks run here, in order."""
    worst = max(worsts if worsts is not None
                else [task() for task in lemma_a_identity.tasks])
    return CriterionResult(
        "lemma_a_identity", worst <= LEMMA_A_TOL,
        {"worst_rel": _fmt(worst), "draws_per_rank": _LEMMA_A_DRAWS})


lemma_a_identity.tasks = tuple(partial(_lemma_a_worst, n) for n in (2, 3, 4))


def lemma_b_asymptotics(extended: bool = False) -> CriterionResult:
    """One seeded draw per rank at LEMMA_B_RADII, judged by
    :func:`lemma_b_passed`: |ratio - 1| <= 5e-2 at the last radius (sign
    +1), falling at first order in (1 - r^2) at every step."""
    rng = np.random.default_rng(47)
    ranks = (1, 2, 3) if extended else (1, 2)
    ok = True
    details = {}
    for n in ranks:
        ap = draw_appendix_params(rng, n)
        devs = [abs(lemma_b_ratio(ap, r) - 1.0) for r in LEMMA_B_RADII]
        ok &= lemma_b_passed(LEMMA_B_RADII, devs)
        details[f"n{n}_final_dev"] = _fmt(devs[-1])
        details[f"n{n}_first_order"] = lemma_b_first_order(LEMMA_B_RADII, devs)
    return CriterionResult("lemma_b_asymptotics", ok, details)


def e9_sweep() -> list:
    """(params, report) pairs of the c-function factorization over n in
    {1, 2, 3}, nu in -3..3 and four s per rank; the report is None where a
    pole guard refuses the combination."""
    out = []
    for n in (1, 2, 3):
        for nu in range(-3, 4):
            for s in (n - 0.4, n + 1.0, n + 2.5, complex(n + 1, 1.0)):
                p = SpectralParams(n, nu, s)
                try:
                    out.append((p, e9_identity_check(p)))
                except (PoleError, GuardError):
                    out.append((p, None))
    return out


def small_identities(extended: bool = False) -> CriterionResult:
    """c-function factorization plus the two product identities on the
    default grids (pole combinations excluded by guards), each report
    passing its own gate: 1e-9, 1e-11 (Pochhammer) and 1e-10 (induction)."""
    e9_reports = [rep for _, rep in e9_sweep()]
    reports = [rep for rep in e9_reports if rep is not None]
    rng = np.random.default_rng(3)
    reports += [pochhammer_product_check(
        complex(rng.uniform(-2, 3), rng.uniform(-1, 1)), n) for n in (1, 3, 5)]
    reports += [induction_identity_check(s, n) for n, s in
                ((1, 2.2), (2, 3.7), (4, complex(2.3, 1.1)))]
    return CriterionResult(
        "small_identities", all(rep.passed for rep in reports),
        {"worst_rel": _fmt(max(rep.rel_error for rep in reports)),
         "evaluated": len(reports), "pole_guarded": e9_reports.count(None)})


def _sandwich_configs(ranks):
    f_two = {1: KTypeFunction({(0,): 1.0, (2,): 0.5 - 0.25j}),
             2: KTypeFunction({(0, 0): 1.0, (1, 0): 0.5 - 0.25j})}
    f_one = {1: KTypeFunction({(1,): 1.0}),
             2: KTypeFunction({(1, 0): 1.0})}
    f_three = {1: KTypeFunction({(0,): 0.3, (1,): 1.0, (-1,): 0.2j}),
               2: KTypeFunction({(0, 0): 0.3, (1, 0): 1.0, (1, 1): 0.2j})}
    out = []
    for n in ranks:
        for nu, s in ((0, n + 1.0), (1, n + 1.5), (2, n + 0.5)):
            p = SpectralParams(n, nu, s)
            for f in (f_two[n], f_one[n], f_three[n]):
                out.append((p, f))
    return out


def norm_lower_bound(extended: bool = False) -> CriterionResult:
    """|c| ||f||_2 <= (1 + 1e-3) ||Pf||_{*,2} on >= 12 configurations, and
    for single-K-type f the slice ratio at r = 0.9999 is within 5e-2 of |c|."""
    configs = _sandwich_configs((1, 2))
    ok = all(sw.passed for p, group in itertools.groupby(configs, lambda c: c[0])
             for sw in norm_sandwiches(p, [f for _, f in group], 2.0))
    worst_gap = 0.0
    grid = TorusGrid(2, SANDWICH_GRID)
    for nu, s in ((0, 3.0), (1, 3.5)):
        p = SpectralParams(2, nu, s)
        f = KTypeFunction({(1, 0): 1.0})
        slice_norm = norm_sandwiches(p, [f], 2.0, (0.9999,), grid)[0].rows[0][1]
        ratio = slice_norm / f.boundary_norm2()
        gap = abs(ratio - abs(c_function(p))) / abs(c_function(p))
        worst_gap = max(worst_gap, gap)
    return CriterionResult(
        "norm_lower_bound", ok and worst_gap <= 5e-2,
        {"configs": len(configs), "lower_bounds_hold": ok,
         "single_type_gap": _fmt(worst_gap)})


def inversion_formula(extended: bool = False) -> CriterionResult:
    """Recovered-boundary-value error decreasing over KEY_LEMMA_RADII,
    ending <= 1e-2 ||f||_2."""
    configs = [
        (SpectralParams(1, 0, 1.5), KTypeFunction({(0,): 1.0})),
        (SpectralParams(2, 1, 3.0), KTypeFunction({(0, 0): 1.0, (1, 0): 0.7j})),
        (SpectralParams(2, 0, 3.5), KTypeFunction({(1, 1): 1.0, (2, 0): -0.4})),
    ]
    ok = True
    worst_final = 0.0
    for p, f in configs:
        res = inversion_experiment(p, f, KEY_LEMMA_RADII)
        ok &= res.passed
        worst_final = max(worst_final, res.metadata["final_error"]
                          / res.metadata["boundary_norm"])
    return CriterionResult(
        "inversion_formula", ok, {"worst_final_rel": _fmt(worst_final)})


def kernel_mass_growth(extended: bool = False) -> CriterionResult:
    """Kernel L^1 mass within a factor-10 band of its growth rate over
    MASS_RADII on the N = MASS_GRID grid for n in {1, 2}, nu in {0, 1}."""
    ok = True
    worst_band = 1.0
    for n in (1, 2):
        for nu in (0, 1):
            p = SpectralParams(n, nu, n + 0.75)
            res = forelli_rudin_growth(p, MASS_RADII, TorusGrid(n, MASS_GRID))
            lo, hi = res.metadata["band"]
            ok &= res.passed
            worst_band = max(worst_band, hi / lo)
    return CriterionResult(
        "kernel_mass_growth", ok, {"worst_band_factor": f"{worst_band:.2f}"})


ALL_CRITERIA = (
    oracle_equivalence,
    normalization_anchor,
    key_lemma_asymptotics,
    hua_eigen_equation,
    lemma_a_identity,
    lemma_b_asymptotics,
    small_identities,
    norm_lower_bound,
    inversion_formula,
    kernel_mass_growth,
)


def _tasks() -> list:
    """The queue's (criterion index, call) pairs in ALL_CRITERIA order: one
    per criterion, whose call is None, or one per entry of its ``tasks``
    attribute, whose results the criterion then merges as ``worsts``."""
    return [(i, task) for i, crit in enumerate(ALL_CRITERIA)
            for task in getattr(crit, "tasks", (None,))]


def _drain(queue: int, tasks: list, extended: bool, own=()) -> dict:
    """{task index: (result, seconds)} of the tasks ``own``, then of those
    taken from the queue pipe."""
    done = {}
    taken = map(ord, iter(partial(os.read, queue, 1), b""))   # index per byte
    for t in itertools.chain(own, taken):
        i, task = tasks[t]
        crit, start = ALL_CRITERIA[i], time.perf_counter()
        try:
            res = crit(extended=extended) if task is None else task()
        except MatballError as exc:
            res = CriterionResult(crit.__name__, False,
                                  {"error": f"{type(exc).__name__}: {exc}"})
        except Exception as exc:   # raised by run_all, in task order
            done[t] = exc, time.perf_counter() - start
            break
        done[t] = res, time.perf_counter() - start
    return done


def run_all(extended: bool = False, emit=None):
    """Run every criterion, in this process and in a worker forked per further
    CPU it may use; returns (results, elapsed_seconds, processes) and passes
    ``emit`` each criterion's line with its tasks' summed wall time.  The
    queue holds every task but criterion 1's, which the caller runs first:
    a pinned worker would crowd its BLAS threads onto one CPU."""
    t0 = time.perf_counter()
    cpus = sorted(getattr(os, "sched_getaffinity", lambda pid: {0})(0))
    tasks = _tasks()
    queue, feed = os.pipe()
    os.write(feed, bytes(range(1, len(tasks))))
    os.close(feed)
    children = {}   # pid: the worker's result pipe, open for reading
    try:
        for cpu in cpus[1:len(tasks)]:
            back, out = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    # a CPU of its own: the scheduler may keep it on ours
                    os.sched_setaffinity(0, {cpu})
                    os.write(out, pickle.dumps(_drain(queue, tasks, extended)))
                finally:
                    os._exit(0)
            os.close(out)
            children[pid] = open(back, "rb")
        done = _drain(queue, tasks, extended, (0,))
        for data in (fh.read() for fh in children.values()):
            done.update(pickle.loads(data) if data else {})
    finally:
        os.close(queue)
        for pid, fh in children.items():   # an exited worker stays a
            fh.close()                     # zombie until reaped here
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for i, group in itertools.groupby(range(len(tasks)), lambda t: tasks[t][0]):
        # the first task with an error row or an exception decides, where a
        # serial loop would stop; a worker that died sent nothing
        outs, seconds = zip(*(done.get(t) or (ChildProcessError(
            f"task {t} lost"), 0) for t in group))
        res = next((out for out in outs
                    if isinstance(out, (CriterionResult, Exception))), None)
        if isinstance(res, Exception):
            raise res
        if res is None:
            res = ALL_CRITERIA[i](extended=extended, worsts=list(outs))
        if emit is not None:
            emit(f"{res.line()}  [{sum(seconds):.2f}s]")
        results.append(res)
    return results, time.perf_counter() - t0, len(children) + 1
