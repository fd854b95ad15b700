"""The three benchmark workloads.

Each workload draws its cases from the seed once, then ``run_pass`` runs the
whole case list in a closed loop (one caller; the next case starts when the
previous one returns) and judges every output.  Library functions are looked
up on their modules at call time, so a ``layertrace.Tracer`` installed
around a pass sees every call.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import mpmath
import numpy as np

import matball.boundary as boundary
import matball.cli as cli
import matball.hua as hua
import matball.identities as identities
import matball.special as special
import matball.spherical as spherical
import matball.verify as verify
from matball.errors import MatballError

# The acceptance criteria run by ``matball verify-all``, in order.
CRITERIA = tuple(c.__name__ for c in verify.ALL_CRITERIA)

ORACLE_TOL = 1e-6       # criterion 1: determinant formula vs torus oracle
MPMATH_TOL = 1e-8       # target accuracy against the 60-digit reference
MPMATH_DPS = 60
LEMMA_A_TOL = 1e-8      # criterion 5 and `matball lemma-a`
LEMMA_B_TOL = 5e-2      # criterion 6 and `matball lemma-b`, at r = 1 - 1e-5
HUA_TOL, HUA_STEP = 1e-4, 4e-4   # `matball hua-check`
KEY_RADII = (0.9, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class Refused:
    """A named MatballError raised by the library."""
    error: str


@dataclass(frozen=True)
class Crashed:
    """Any other exception raised by the library."""
    error: str


@dataclass
class Case:
    """One library call and the check of its output.

    ``judge`` maps a returned value to (passed, relative error or None).
    ``may_refuse`` marks cases where a named MatballError is a correct
    answer; ``known_defect`` marks cases the library is documented to get
    wrong today (a wrong value is counted as a defect miss, not as a
    failure, and does not make the run incorrect; an unnamed exception
    always fails).
    """

    kind: str
    call: Callable[[], object]
    judge: Callable[[object], tuple]
    may_refuse: bool = False
    known_defect: bool = False


@dataclass
class PassResult:
    wall_s: float
    case_s: list
    digest: str
    attempted: int = 0
    failed: int = 0
    defect_misses: int = 0
    refused: int = 0
    unexpected: list = field(default_factory=list)
    worst_rel: float = 0.0


def _digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def _rel(value, ref) -> float:
    ref = complex(ref)
    return abs(complex(value) - ref) / abs(ref) if ref != 0 else abs(complex(value))


class CaseWorkload:
    """A fixed list of cases, timed one by one."""

    cases: list

    def references(self) -> None:
        """Compute whatever the judges compare against (untimed)."""

    def run_pass(self) -> PassResult:
        outputs, case_s = [], []
        t_pass = time.perf_counter()
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                out = case.call()
            except MatballError as exc:
                out = Refused(type(exc).__name__)
            except Exception as exc:  # reported as a failed case
                out = Crashed(repr(exc))
            case_s.append(time.perf_counter() - t0)
            outputs.append(out)
        wall = time.perf_counter() - t_pass
        res = PassResult(wall, case_s, _digest(outputs))
        for case, out in zip(self.cases, outputs):
            res.attempted += 1
            if isinstance(out, Refused):
                res.refused += 1
                if not (case.may_refuse or case.known_defect):
                    res.unexpected.append(f"{case.kind}: refused {out.error}")
                continue
            if isinstance(out, Crashed):
                res.failed += 1
                res.unexpected.append(f"{case.kind}: raised {out.error}")
                continue
            ok, rel = case.judge(out)
            if rel is not None:
                res.worst_rel = max(res.worst_rel, rel)
            if ok:
                continue
            if case.known_defect:
                res.defect_misses += 1
            else:
                res.failed += 1
                res.unexpected.append(f"{case.kind}: {out!r} rel={rel}")
        return res


# -- oracle-rank3 ------------------------------------------------------------

ORACLE_PARAMS = ((0, 3.5), (1, 4.5), (2, 3.5))   # criterion 1, n = 3
ORACLE_SIGS = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 1, -1))


def _oracle_case(nu: int, s: float, m: tuple, radii) -> Case:
    p = special.SpectralParams(3, nu, s)

    def call():
        return [(spherical.phi_big(p, m, r),
                 boundary.spherical_oracle(p, m, r, verify.oracle_grid(3, r)))
                for r in radii]

    def judge(out):
        rel = max(abs(det_val - orc) / max(abs(det_val), 1e-30)
                  for det_val, orc in out)
        return rel <= ORACLE_TOL, rel

    return Case(f"oracle n=3 nu={nu} s={s} m={m} r={radii}", call, judge)


class OracleRank3(CaseWorkload):
    """Rank-3 slice of criterion 1.  The one case of a pass is a seeded
    (nu, s, m) checked at every radius of the criterion, on the production
    grids (N = 48 up to r = 0.55, N = 128 at r = 0.7)."""

    RADII = (0.1, 0.3, 0.5, 0.7)

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        nu, s = ORACLE_PARAMS[rng.integers(len(ORACLE_PARAMS))]
        m = ORACLE_SIGS[rng.integers(len(ORACLE_SIGS))]
        self.cases = [_oracle_case(nu, s, m, self.RADII)]
        self._warm = _oracle_case(nu, s, m, self.RADII[:1])

    def warm_up(self) -> None:
        self._warm.call()


# -- verify-default ----------------------------------------------------------

_WORST_REL = re.compile(r"worst_rel=([0-9.eE+-]+)")


class VerifyDefault:
    """``matball verify-all`` (ranks <= 2) through ``cli.main``.  One call
    is the case whose latency is timed; each criterion counts as an attempt
    for the failure and refusal shares."""

    def __init__(self, seed: int, workdir):
        self.argv = ["verify-all", "--out", str(workdir / "verify-all.csv"),
                     "--seed", str(seed)]
        self.csv_path = workdir / "verify-all.csv"

    def references(self) -> None:
        pass

    def warm_up(self) -> None:
        cli.build_parser().parse_args(self.argv)
        for crit in (verify.normalization_anchor, verify.lemma_b_asymptotics,
                     verify.small_identities, verify.inversion_formula):
            crit()

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv)
            except Exception as exc:  # reported as failed criteria
                code = repr(exc)
        wall = time.perf_counter() - t0
        data = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        self.csv_path.unlink(missing_ok=True)
        res = PassResult(wall, [wall], hashlib.sha256(data).hexdigest(),
                         attempted=len(CRITERIA))
        if code != 0:
            res.unexpected.append(f"verify-all exit code {code!r}")
        rows = [line.split(",", 2) for line in data.decode().splitlines()
                if line and not line.startswith("#")][1:]
        if [row[0] for row in rows] != list(CRITERIA):
            res.unexpected.append(f"criteria {[row[0] for row in rows]}")
        for name, passed, details in rows:
            if passed == "1":
                continue
            if "error=" in details:
                res.refused += 1
            else:
                res.failed += 1
            res.unexpected.append(f"{name}: {details}")
        res.failed += max(len(CRITERIA) - len(rows), 0)
        for value in _WORST_REL.findall(data.decode()):
            res.worst_rel = max(res.worst_rel, float(value))
        return res


# -- pointwise ---------------------------------------------------------------

def _mpc(z: complex):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def ref_phi_scalar(n, nu, s, k, r):
    """60-digit phi_{s,k}(r) (set the working precision before calling)."""
    s, r = _mpc(s), mpmath.mpf(r)
    ak, e = abs(k), (1 if k >= 0 else -1)
    a_plus, a_minus = (s + n + e * nu) / 2, (s + n - e * nu) / 2
    return (r ** ak * (1 - r * r) ** ((s + n - nu) / 2)
            * mpmath.rf(a_plus, ak) / mpmath.factorial(ak)
            * mpmath.hyp2f1(a_minus, a_plus + ak, 1 + ak, r * r))


def ref_phi_big(n, nu, s, m, r):
    M = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            M[i, j] = ref_phi_scalar(n, nu, s, m[i] - i + j, r)
    dim = mpmath.mpf(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= mpmath.mpf(m[i] - m[j] + j - i) / (j - i)
    return mpmath.det(M) / dim


def ref_c_function(n, nu, s):
    s = _mpc(s)

    def gg(z):
        out = mpmath.mpf(1)
        for j in range(n):
            out *= mpmath.gamma(z - j)
        return out

    return gg(n) * gg(s) / (gg((s + n + nu) / 2) * gg((s + n - nu) / 2))


def _cplx(rng, lo, hi, im):
    return complex(rng.uniform(lo, hi), rng.uniform(-im, im))


def _spectral(rng, n):
    """(nu, s) with Re(s) > n - 1: half the draws real from the grid the
    acceptance criteria use, half complex."""
    nu = int(rng.integers(-2, 3))
    if rng.random() < 0.5:
        return nu, complex(n + 0.5 * int(rng.integers(1, 5)))
    return nu, _cplx(rng, n - 0.8, n + 2.5, 1.5)


def _signature(rng, n):
    return tuple(int(v) for v in sorted(rng.integers(-3, 4, size=n),
                                        reverse=True))


def _near_one(rng):
    """x in (1/2, 1 - 1e-4], log-uniform in 1 - x."""
    return 1.0 - 10.0 ** rng.uniform(-4.0, math.log10(0.5))


def _appendix(rng, n):
    """Guarded draw of the determinant-identity parameters (the recipe of
    ``verify.draw_appendix_params``)."""
    a = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 1.2))
    b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.2, -0.3))
    p = tuple(complex(-1.2 * i + rng.uniform(-0.25, 0.25),
                      rng.uniform(-0.8, 0.8)) for i in range(n))
    return identities.AppendixParams(n, a, b, p)


class _Ref:
    """A reference value filled in by ``Pointwise.references``."""

    def __init__(self, compute):
        self.compute = compute
        self.value = None

    def judge(self, out):
        rel = _rel(out, self.value)
        return rel <= MPMATH_TOL, rel


class Pointwise(CaseWorkload):
    """Seeded scalar-layer draws, no torus grid.  The case mix is fixed
    (stratified) and only the parameters come from the seed."""

    # Copies of the stratified scalar draw in one pass.  A unit takes ~14 ms
    # and the two `hua_residual` cases ~95 ms together, so with 16 units the
    # scalar layers hold ~70% of a pass (NOTES.md has the traced shares).
    UNITS = 16

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.cases, self._refs = [], []
        for unit in range(self.UNITS):
            self._gauss_cases(rng, first=unit == 0)
            for n in (1, 2, 3):
                self._phi_cases(rng, n)
            for n in (2, 3):
                self._identity_cases(rng, n)
        for n in (2, 3):
            self._hua_case(rng, n)

    def _mp_case(self, kind, call, compute, **flags):
        ref = _Ref(compute)
        self._refs.append(ref)
        self.cases.append(Case(kind, call, ref.judge, **flags))

    def _gauss(self, branch, a, b, c, x, **flags):
        self._mp_case(
            f"gauss_2f1.{branch} a={a} b={b} c={c} x={x}",
            lambda: special.gauss_2f1(a, b, c, x),
            lambda: mpmath.hyp2f1(_mpc(a), _mpc(b), _mpc(c), mpmath.mpf(x)),
            **flags)

    def _gauss_cases(self, rng, first):
        def abc():
            return (_cplx(rng, -3, 5, 2), _cplx(rng, -3, 5, 2),
                    _cplx(rng, 0.5, 6, 2))

        for i in range(8):
            a, b, c = abc()
            x = 0.5 if first and i == 0 else rng.uniform(0.0, 0.5)
            self._gauss("series", a, b, c, x)
        for _ in range(8):
            self._gauss("connection", *abc(), _near_one(rng))
        for _ in range(4):
            a, b, _c = abc()
            self._gauss("log", a, b, a + b + int(rng.integers(-3, 4)),
                        _near_one(rng))
        for _ in range(4):
            _a, b, c = abc()
            self._gauss("terminating", float(-rng.integers(1, 9)), b, c,
                        rng.uniform(0.0, 0.9999))
        for _ in range(2):
            a, b, _c = abc()
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.5, -9.1)
            c = a + b + int(rng.integers(-3, 4)) + offset
            self._gauss("degenerate", a, b, c, _near_one(rng), may_refuse=True)

    def _phi_cases(self, rng, n):
        # Determinant cancellation near r = 1 (ROADMAP item 3).  Against
        # mpmath the error exceeds MPMATH_TOL in 147 of 150 draws at n = 3,
        # r = 0.99, in 6 of 150 at n = 2, r = 0.999 (up to 3.5e-8) and in
        # 146 of 150 at n = 2, r = 0.9999.  It stays below 3.4e-10 at n = 2,
        # r = 0.99 (950 draws) and below 3.2e-9 at n = 3, r = 0.9 (5950).
        def defect(r):
            return (n == 3 and r >= 0.99) or (n == 2 and r >= 0.999)

        radii = [rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9), *KEY_RADII]
        for r in radii:
            nu, s = _spectral(rng, n)
            m = _signature(rng, n)
            p = special.SpectralParams(n, nu, s)
            self._mp_case(
                f"phi_big n={n} nu={nu} s={s} m={m} r={r}",
                lambda p=p, m=m, r=r: spherical.phi_big(p, m, r),
                lambda nu=nu, s=s, m=m, r=r: ref_phi_big(n, nu, s, m, r),
                known_defect=defect(r), may_refuse=defect(r))
        for _ in range(2):
            nu, s = _spectral(rng, n)
            p = special.SpectralParams(n, nu, s)
            self._mp_case(f"c_function n={n} nu={nu} s={s}",
                          lambda p=p: special.c_function(p),
                          lambda nu=nu, s=s: ref_c_function(n, nu, s))
        for r in KEY_RADII:
            nu, s = _spectral(rng, n)
            m = _signature(rng, n)
            p = special.SpectralParams(n, nu, s)

            def ref(nu=nu, s=s, m=m, r=r):
                w = (1 - mpmath.mpf(r) ** 2) ** (n * (n - nu - _mpc(s)) / 2)
                return ref_phi_big(n, nu, s, m, r) / (ref_c_function(n, nu, s) * w)

            self._mp_case(
                f"key_lemma_ratio n={n} nu={nu} s={s} m={m} r={r}",
                lambda p=p, m=m, r=r: spherical.key_lemma_ratio(p, m, r), ref,
                known_defect=defect(r), may_refuse=defect(r))

    def _identity_cases(self, rng, n):
        for r in (0.3, 0.6, 0.9):
            ap = _appendix(rng, n)

            def judge(out):
                lhs, rhs = out
                rel = abs(lhs - rhs) / abs(lhs)
                return rel <= LEMMA_A_TOL, None

            self.cases.append(Case(
                f"lemma_a_sides {ap} r={r}",
                lambda ap=ap, r=r: identities.lemma_a_sides(ap, r), judge))
        ap = _appendix(rng, n)
        r = 1.0 - 1e-5
        self.cases.append(Case(
            f"lemma_b_ratio {ap} r={r}",
            lambda ap=ap: identities.lemma_b_ratio(ap, r),
            lambda out: (abs(out - 1.0) <= LEMMA_B_TOL, None)))

    def _hua_case(self, rng, n):
        # the `matball hua-check` recipe: s = n + 1, Z of scale 0.1, U Haar
        nu = int(rng.integers(-1, 2))
        p = special.SpectralParams(n, nu, n + 1.0)
        Z = 0.1 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        U, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))

        def call():
            rep = hua.hua_residual(p, Z, U, h=HUA_STEP, tol=HUA_TOL)
            return rep.rel_error, rep.passed

        self.cases.append(Case(f"hua_residual n={n} nu={nu}", call,
                               lambda out: (out[1] and out[0] <= HUA_TOL, None)))

    def references(self) -> None:
        with mpmath.workdps(MPMATH_DPS):
            for ref in self._refs:
                ref.value = complex(ref.compute())

    def warm_up(self) -> None:
        for case in self.cases:
            # a raising case is judged in the timed passes, not here
            with contextlib.suppress(Exception):
                case.call()


WORKLOADS = {
    "oracle-rank3": OracleRank3,
    "verify-default": VerifyDefault,
    "pointwise": Pointwise,
}
