"""Desk-scale reproductions of the boundary-value theory: the profiles
against their quadrature, asymptotic-ratio sweeps, kernel mass growth, the
two-sided norm estimate for Poisson extensions and the inversion formula.
The torus sums they read are :mod:`matball.boundary`'s.

Sweeps are deterministic given (params, seed, grids); rows are emitted in a
fixed order so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .boundary import TorusGrid, kernel_mass, ktype_norms, spherical_oracles
from .errors import DomainError
from .special import SpectralParams, c_function
from .spherical import (_require_asymptotic, boundary_weight,
                        log_boundary_weight, phi_bigs, validate_radius,
                        validate_signature, weyl_dimension)

DEFAULT_RADII = tuple(1.0 - 2.0 ** (-j) for j in range(1, 15))
SANDWICH_GRID = 32


@dataclass
class SweepResult:
    """Tabular outcome of a parameter sweep plus its run metadata."""

    columns: tuple
    rows: list
    metadata: dict = field(default_factory=dict)
    passed: bool = True

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


@dataclass(frozen=True)
class KTypeFunction:
    """Finite K-type sum f = sum_m coeffs[m] phi_m on the boundary.

    Keys are signatures (weakly decreasing integer tuples) of a common rank;
    phi_m are the normalized characters, so ||phi_m||_2^2 = 1/d_m^2.
    """

    coeffs: dict

    def __post_init__(self):
        if not self.coeffs:
            raise DomainError("K-type function needs at least one coefficient")
        ranks = {len(m) for m in self.coeffs}
        if len(ranks) != 1:
            raise DomainError(f"signatures of mixed rank: {sorted(ranks)}")
        fixed = {validate_signature(m): complex(c) for m, c in self.coeffs.items()}
        object.__setattr__(self, "coeffs", fixed)

    @property
    def rank(self) -> int:
        return len(next(iter(self.coeffs)))

    def items(self):
        return sorted(self.coeffs.items())

    def boundary_norm2(self) -> float:
        """Exact L^2 norm on the boundary: sqrt(sum |c_m|^2 / d_m^2)."""
        return math.sqrt(sum(abs(c) ** 2 / weyl_dimension(m) ** 2
                             for m, c in self.items()))


def oracle_comparison(p: SpectralParams, sigs, radii,
                      grid: TorusGrid) -> SweepResult:
    """Phi_{s,m}(r) against its quadrature on grid, in signature-major rows
    (m, r, Phi, oracle, relative error, passed); a row passes when
    |Phi - oracle| <= 1e-6 max(|Phi|, 1e-30).  One :func:`phi_bigs` call
    serves every radius, one :func:`spherical_oracles` walk every m at one."""
    if not sigs or not radii:
        raise DomainError("needs signatures and radii")
    by_radius = [(r, phis, spherical_oracles(p, sigs, r, grid))
                 for r, phis in zip(radii, phi_bigs(p, sigs, radii))]
    rows = []
    for i, m in enumerate(sigs):
        for r, phis, orcs in by_radius:
            rel = abs(phis[i] - orcs[i]) / max(abs(phis[i]), 1e-30)
            rows.append((";".join(map(str, m)), r, phis[i], orcs[i], rel,
                         rel <= 1e-6))
    return SweepResult(("m", "r", "profile", "oracle", "rel_error", "passed"),
                       rows, passed=all(row[-1] for row in rows))


def key_lemma_sweep(p: SpectralParams, sigs, radii) -> SweepResult:
    """Ratios Phi_m(r) / [c(s) (1-r^2)^(n(n-nu-s)/2)] over (m, r).

    Passes when the worst |ratio - 1| falls from each radius to the next
    and, at the largest radius, is <= 5e-2 and <= 100 times the (upper)
    median: a uniformity band, robust against signatures whose leading
    deviation coefficient happens to cross zero.
    """
    _require_asymptotic(p)
    radii = [validate_radius(r) for r in radii]
    if not sigs or not radii or min(radii) < 0.9 or radii != sorted(radii):
        raise DomainError("needs signatures and increasing radii in [0.9, 1)")
    sigs = [validate_signature(m, p.n) for m in sigs]
    rows, devs_by_r = [], []
    c = c_function(p)
    for r, phis in zip(radii, phi_bigs(p, sigs, radii)):
        scale = c * boundary_weight(p, r)
        ratios = [phi / scale for phi in phis]
        rows += [(";".join(map(str, m)), r, ratio, abs(ratio - 1.0))
                 for m, ratio in zip(sigs, ratios)]
        devs_by_r.append(sorted(row[3] for row in rows[-len(sigs):]))
    worst_by_r = [devs[-1] for devs in devs_by_r]
    decreasing = all(a > b for a, b in zip(worst_by_r, worst_by_r[1:]))
    uniform = worst_by_r[-1] <= 100.0 * max(devs_by_r[-1][len(sigs) // 2], 1e-30)
    passed = worst_by_r[-1] <= 5e-2 and decreasing and uniform
    return SweepResult(
        columns=("m", "r", "ratio", "deviation"), rows=rows, passed=passed,
        metadata={"worst_by_radius": worst_by_r,
                  "deviations_decreasing": decreasing, "uniform": uniform})


def forelli_rudin_growth(p: SpectralParams, radii, grid: TorusGrid | int) -> SweepResult:
    """Kernel mass against its predicted growth rate: rows of

        (r, int |P(rI, U)| dU, (1-r^2)^(n(n-nu-Re s)/2), ratio)

    Every radius uses the grid's N (see :func:`kernel_mass`), given as an int
    or a TorusGrid.  Passes when the ratio stays in a factor-10 band.
    """
    _require_asymptotic(p, generic=False)
    if isinstance(grid, int):
        grid = TorusGrid(p.n, grid)
    radii = [validate_radius(r) for r in radii]
    if not radii:
        raise DomainError("needs radii")
    rows = []
    ratios = []
    for r in radii:
        integral = kernel_mass(p, r, grid)
        reference = math.exp(log_boundary_weight(p, r).real)
        ratio = integral / reference
        ratios.append(ratio)
        rows.append((r, integral, reference, ratio, grid.points_per_dim))
    passed = max(ratios) / min(ratios) <= 10.0
    return SweepResult(
        columns=("r", "kernel_mass", "reference", "ratio", "grid_points"),
        rows=rows, passed=passed, metadata={"band": (min(ratios), max(ratios))})


def norm_sandwiches(p: SpectralParams, fs, pexp: float, radii=DEFAULT_RADII,
                    grid: TorusGrid | int = SANDWICH_GRID) -> list:
    """Two-sided estimate for the Poisson extension of each K-type function
    f in fs:

        |c(s)| ||f||_p  <=  sup_r (weighted slice norm)  <=  gamma ||f||_p.

    The sup over r is replaced by the max over the radius grid.  The lower
    bound is asserted with a 1e-3 slack; the upper ratio is reported (no
    reference constant is available for it).  All fs share one
    :func:`phi_bigs` call for all radii and one :func:`ktype_norms` walk
    of the grid, given as an int N or a TorusGrid.
    """
    _require_asymptotic(p)
    if any(f.rank != p.n for f in fs):
        raise DomainError(f"K-type rank of some f != params rank {p.n}")
    if isinstance(grid, int):
        grid = TorusGrid(p.n, grid)
    radii = [validate_radius(r) for r in radii]
    if not fs or not radii:
        raise DomainError("needs K-type functions and radii")
    sigs = sorted({m for f in fs for m in f.coeffs})
    # the Poisson extension of each f at each radius, sum_m c_m Phi_m(r)
    # phi_m, as the coefficient pairs of a K-type function whose signatures
    # f has validated; radius-major
    items = [f.items() for f in fs]
    slices = []
    for row in phi_bigs(p, sigs, radii):
        phi = dict(zip(sigs, row))
        slices += [[(m, complex(c * phi[m])) for m, c in f_items]
                   for f_items in items]
    norms = ktype_norms(items + slices, pexp, grid)
    weights = [math.exp(-log_boundary_weight(p, r).real) for r in radii]
    cmod = abs(c_function(p))
    out = []
    for i, fnorm in enumerate(norms[:len(fs)]):
        # each row is (1-r^2)^(-n(n-nu-Re s)/2) ||slice at r||_p
        rows = [(r, w * norm) for r, w, norm
                in zip(radii, weights, norms[len(fs) + i::len(fs)])]
        best = max([0.0] + [v for _, v in rows])
        lower_ok = cmod * fnorm <= (1.0 + 1e-3) * best
        upper_ratio = best / fnorm if fnorm > 0 else math.inf
        out.append(SweepResult(
            columns=("r", "weighted_slice_norm"), rows=rows, passed=lower_ok,
            metadata={"boundary_norm": fnorm, "hardy_norm": best,
                      "c_modulus": cmod, "upper_ratio": upper_ratio}))
    return out


def inversion_experiment(p: SpectralParams, f: KTypeFunction,
                         radii) -> SweepResult:
    """L^2 error of the boundary-inversion approximation.  Per radius the
    recovered K-type coefficients are kappa_m(r) coeffs[m] with

        kappa_m(r) = |c(s)|^-2 (1-r^2)^(-n(n-nu-Re s)) |Phi_m(r)|^2,

    so ||g_r - f||_2^2 = sum_m |kappa_m(r) - 1|^2 |coeffs[m]|^2 / d_m^2.
    Passes when the error is non-increasing along the radii and the final
    error is <= 1e-2 ||f||_2.
    """
    _require_asymptotic(p)
    if f.rank != p.n:
        raise DomainError(f"K-type rank {f.rank} != params rank {p.n}")
    radii = [validate_radius(r) for r in radii]
    if not radii or radii != sorted(radii):
        raise DomainError("needs increasing radii")
    cmod2 = abs(c_function(p)) ** 2
    rows = []
    errs = []
    for r, phis in zip(radii, phi_bigs(p, sorted(f.coeffs), radii)):
        weight = math.exp(-2.0 * log_boundary_weight(p, r).real)
        err2 = 0.0
        for (m, c), phi in zip(f.items(), phis):
            kappa = abs(phi) ** 2 * weight / cmod2
            err2 += abs(kappa - 1.0) ** 2 * abs(c) ** 2 / weyl_dimension(m) ** 2
        err = math.sqrt(err2)
        errs.append(err)
        rows.append((r, err))
    fnorm = f.boundary_norm2()
    monotone = all(errs[i + 1] <= errs[i] * (1.0 + 1e-12)
                   for i in range(len(errs) - 1))
    passed = monotone and errs[-1] <= 1e-2 * fnorm
    return SweepResult(
        columns=("r", "l2_error"), rows=rows, passed=passed,
        metadata={"boundary_norm": fnorm, "monotone": monotone,
                  "final_error": errs[-1]})
