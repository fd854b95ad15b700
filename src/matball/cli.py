"""Command-line front end: parameter parsing, experiment dispatch and CSV
emission.

Conventions:
  * the spectral flag --s is the variable s = i*lambda itself (every formula
    in the library is written in s; passing lambda will give wrong results);
  * each subcommand takes only the options it reads (SUBCOMMANDS), and its
    CSV starts with '#'-prefixed comment lines recording version, those
    options and the seed if it takes one, then one snake_case header row;
    complex columns are split into _re/_im pairs; floats carry 17
    significant digits, so identical configurations give identical bytes;
  * exit codes: 0 all embedded checks pass, 1 a check failed, 2 usage
    error (an option's bound, or s outside a hypothesis the library
    refuses), 3 numerical guard (pole/domain/margin, overflow, or a
    non-finite value that would reach the CSV).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import math
import sys

import numpy as np

from . import __version__
from .boundary import TorusGrid, fourier_mode_check
from .errors import HypothesisError, MatballError
from .experiments import (DEFAULT_RADII, SANDWICH_GRID, KTypeFunction, SweepResult,
                          forelli_rudin_growth, inversion_experiment,
                          key_lemma_sweep, norm_sandwiches, oracle_comparison)
from .hua import DEFAULT_FD_STEP, hua_residual
from .identities import (LEMMA_A_TOL, lemma_a_rel_error, lemma_a_sides,
                         lemma_b_passed, lemma_b_ratio)
from .special import SpectralParams
from .verify import (KEY_LEMMA_RADII, LEMMA_A_RADII, LEMMA_B_RADII, MASS_GRID,
                     MASS_RADII, PHI_RADII, draw_appendix_params, draw_hua_point,
                     e9_sweep, oracle_grid, run_all, signatures_up_to)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_complex(text: str) -> complex:
    """Python's complex syntax, with a trailing 'i' accepted for 'j'.  Only
    the trailing unit is mapped, so 'inf' and 'nan' stay numbers."""
    compact = text.replace(" ", "")
    if compact.endswith("i"):
        compact = compact[:-1] + "j"
    try:
        return complex(compact)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse complex number {text!r}; use forms like '3', "
            "'2.5+1i' or '2.5+1j'") from None


def parse_radii(text: str):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad radius list {text!r}") from None
    if any(not 0.0 <= v < 1.0 for v in vals):
        raise argparse.ArgumentTypeError("radii must lie in [0, 1)")
    return vals


def _bounded(kind, name: str, op: str, low):
    """An option type: ``kind(text)``, refused unless ``op low`` and finite.
    Named as ``kind``, so bad text stays ``invalid int value: 'x'``."""
    def convert(text: str):
        value = kind(text)
        if not ((value > low if op == ">" else value >= low) and value < math.inf):
            finite = " and finite" if isinstance(value, float) else ""
            raise argparse.ArgumentTypeError(
                f"--{name} must be {op} {low}{finite}, got {value}")
        return value
    convert.__name__ = kind.__name__
    return convert


# Every option of the CLI but --out, as add_argument keywords
OPTIONS = {
    "n": dict(type=_bounded(int, "n", ">=", 1), default=2, help="rank (>= 1)"),
    "nu": dict(type=int, default=0, help="integer weight"),
    "s": dict(type=parse_complex, default=None,
              help="spectral variable s = i*lambda (NOT lambda), e.g. '3' or "
                   "'2.5+1i'; default n + 1"),
    "radii": dict(type=parse_radii, metavar="R1,R2,..."),
    "grid": dict(type=_bounded(int, "grid", ">=", 8), default=None, metavar="N",
                 help="quadrature points per torus dimension (>= 8)"),
    "max-m": dict(type=_bounded(int, "max-m", ">=", 0), default=2, metavar="M",
                  help="signature truncation |m_i| <= M"),
    "fd-step": dict(type=_bounded(float, "fd-step", ">", 0),
                    default=DEFAULT_FD_STEP, metavar="H",
                    help="finite-difference step"),
    "seed": dict(type=_bounded(int, "seed", ">=", 0), default=42),
    "pexp": dict(type=_bounded(float, "pexp", ">=", 1), default=2.0,
                 help="norm exponent p >= 1"),
    "extended": dict(action="store_true",
                     help="include the rank-3 targets (slower)"),
}


def build_parser() -> argparse.ArgumentParser:
    # a prefix is refused: lemma-a --s must not run as lemma-a --seed
    ap = argparse.ArgumentParser(
        prog="matball", allow_abbrev=False,
        description="Poisson kernels, Hua operators and hypergeometric "
                    "determinants on the matrix ball (desk scale).")
    ap.add_argument("--version", action="version", version=f"matball {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, options, defaults, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name in options.split():
            sp.add_argument(f"--{name}", **OPTIONS[name])
        sp.add_argument("--out", default="-", metavar="PATH",
                        help="CSV output path ('-' for stdout)")
        sp.set_defaults(**defaults)
    return ap


def format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(out_path: str, command: str, config: dict, columns, rows) -> None:
    # split complex columns into _re/_im pairs
    is_complex = [any(isinstance(row[i], (complex, np.complexfloating))
                      for row in rows) for i in range(len(columns))]
    header = []
    for name, cplx in zip(columns, is_complex):
        header.extend([f"{name}_re", f"{name}_im"] if cplx else [name])
    lines = [f"# matball {__version__}", f"# command: {command}",
             "# config:" + "".join(f" {k}={v}" for k, v in sorted(config.items()))]
    if "seed" in config:
        lines.append(f"# seed: {config['seed']}")
    text = io.StringIO()
    text.writelines(line + "\n" for line in lines)
    # RFC 4180 rows: a field holding a comma is quoted
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        cells = []
        for v, cplx in zip(row, is_complex):
            if cplx:
                v = complex(v)
                cells.extend([format_cell(v.real), format_cell(v.imag)])
            else:
                cells.append(format_cell(v))
        writer.writerow(cells)
    if out_path == "-":
        sys.stdout.write(text.getvalue())
    else:
        with open(out_path, "w") as fh:
            fh.write(text.getvalue())


def _require_finite(rows) -> None:
    """Refuse to write a CSV in which a number overflowed or became NaN."""
    for row in rows:
        for v in row:
            if isinstance(v, (float, complex, np.inexact)) and not cmath.isfinite(v):
                raise FloatingPointError(f"non-finite value {v} in the output")


def _rowwise(columns, rows) -> SweepResult:
    """A sweep whose last column is the per-row pass flag."""
    return SweepResult(columns, rows, passed=all(row[-1] for row in rows))


# Each command maps (args, params) to a SweepResult; params is the resolved
# SpectralParams for the commands that take --s and None otherwise.

def cmd_kernel(args, p) -> SweepResult:
    rows = []
    for k in range(-args.max_m - 1, args.max_m + 2):
        for r in args.radii:
            rep = fourier_mode_check(p, k, r, args.grid)
            rows.append((k, r, rep.computed, rep.reference, rep.rel_error,
                         rep.passed))
    return _rowwise(("k", "r", "quadrature", "closed_form", "rel_error", "passed"),
                    rows)


def cmd_hua_check(args, p) -> SweepResult:
    rng = np.random.default_rng(args.seed)
    rows = []
    for draw in range(6):
        Z, U = draw_hua_point(rng, p.n, 0.1)
        rep = hua_residual(p, Z, U, h=args.fd_step)
        rows.append((draw, args.fd_step, rep.extras["top_residual"],
                     rep.extras["bottom_residual"], rep.passed))
    return _rowwise(("draw", "h", "top_residual", "bottom_residual", "passed"),
                    rows)


def cmd_lemma_a(args, p) -> SweepResult:
    rng = np.random.default_rng(args.seed)
    rows = []
    for draw in range(20):
        ap = draw_appendix_params(rng, args.n)
        for r in args.radii:
            lhs, rhs = lemma_a_sides(ap, r)
            rel = lemma_a_rel_error(lhs, rhs, (ap,), r)
            rows.append((draw, r, lhs, rhs, rel, rel <= LEMMA_A_TOL))
    return _rowwise(("draw", "r", "lhs", "rhs", "rel_error", "passed"), rows)


def cmd_lemma_b(args, p) -> SweepResult:
    rng = np.random.default_rng(args.seed)
    radii = sorted(args.radii)
    rows = []
    passed = True
    for draw in range(5):
        ap = draw_appendix_params(rng, args.n)
        ratios = [lemma_b_ratio(ap, r) for r in radii]
        devs = [abs(ratio - 1.0) for ratio in ratios]
        rows += [(draw, r, q, d) for r, q, d in zip(radii, ratios, devs)]
        passed &= lemma_b_passed(radii, devs)
    return SweepResult(("draw", "r", "ratio", "deviation"), rows, passed=passed)


def cmd_e9(args, p) -> SweepResult:
    rows = [(q.n, q.nu, q.s, rep.computed, rep.reference, rep.rel_error,
             rep.passed) for q, rep in e9_sweep() if rep is not None]
    return _rowwise(("n", "nu", "s", "lhs", "rhs", "rel_error", "passed"), rows)


def _default_ktype(n: int) -> KTypeFunction:
    return KTypeFunction({(0,) * n: 1.0, (1,) + (0,) * (n - 1): 0.5 - 0.25j})


def cmd_sandwich(args, p) -> SweepResult:
    sweep = norm_sandwiches(p, [_default_ktype(p.n)], args.pexp,
                            sorted(args.radii), args.grid)[0]
    md = sweep.metadata
    print(f"lower bound |c| ||f||_p = {md['c_modulus'] * md['boundary_norm']:.6g}"
          f" <= hardy norm = {md['hardy_norm']:.6g}; "
          f"upper ratio = {md['upper_ratio']:.6g}", file=sys.stderr)
    return sweep


def cmd_verify_all(args, p) -> SweepResult:
    results, elapsed, procs = run_all(args.extended, lambda s: print(s, file=sys.stderr))
    print(f"suite finished in {elapsed:.1f}s on {procs} process"
          f"{'es' if procs > 1 else ''}", file=sys.stderr)
    rows = [(res.name, res.passed,
             "; ".join(f"{k}={v}" for k, v in res.details.items()))
            for res in results]
    return SweepResult(("criterion", "passed", "details"), rows,
                       passed=all(res.passed for res in results))


# subcommand: (help, its options besides --out, its own defaults, handler)
SUBCOMMANDS = {
    "phi": ("radial profiles vs quadrature oracle", "n nu s radii grid max-m",
            dict(radii=PHI_RADII), lambda args, p: oracle_comparison(
                p, list(signatures_up_to(p.n, args.max_m)), args.radii,
                # criterion 1's grid unless --grid is given
                oracle_grid(p.n, max(args.radii)) if args.grid is None
                else TorusGrid(p.n, args.grid))),
    "kernel": ("kernel Fourier modes vs closed form", "n nu s radii grid max-m",
               dict(radii=(0.3, 0.6), grid=512), cmd_kernel),
    "hua-check": ("operator eigen-equation residuals", "n nu s fd-step seed",
                  {}, cmd_hua_check),
    "lemma-a": ("determinant shift identity", "n radii seed",
                dict(radii=LEMMA_A_RADII), cmd_lemma_a),
    "lemma-b": ("determinant asymptotic ratio", "n radii seed",
                dict(radii=LEMMA_B_RADII), cmd_lemma_b),
    "e9": ("c-function factorization identity", "", {}, cmd_e9),
    "key-lemma": ("boundary asymptotic ratios", "n nu s radii max-m",
                  dict(radii=KEY_LEMMA_RADII), lambda args, p:
                  key_lemma_sweep(p, list(signatures_up_to(p.n, args.max_m)),
                                  sorted(args.radii))),
    "forelli-rudin": ("kernel mass growth", "n nu s radii grid",
                      dict(radii=MASS_RADII, grid=MASS_GRID), lambda args, p:
                      forelli_rudin_growth(p, sorted(args.radii), args.grid)),
    "sandwich": ("two-sided norm estimate", "n nu s radii grid pexp",
                 dict(radii=DEFAULT_RADII, grid=SANDWICH_GRID), cmd_sandwich),
    "invert": ("boundary-value inversion error", "n nu s radii",
               dict(radii=KEY_LEMMA_RADII), lambda args, p:
               inversion_experiment(p, _default_ktype(p.n), sorted(args.radii))),
    "verify-all": ("run the full verification suite", "extended seed", {},
                   cmd_verify_all),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        p = (SpectralParams(args.n, args.nu, args.n + 1.0 if args.s is None
                            else args.s) if "s" in args else None)
        # overflow and NaN are refused by _require_finite, not warned about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sweep = SUBCOMMANDS[args.command][3](args, p)
        _require_finite(sweep.rows)
    except HypothesisError as exc:   # s outside the theorem: the caller's
        print(f"matball: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MatballError, ArithmeticError) as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    if "radii" in config:
        config["radii"] = ";".join(f"{r:.17g}" for r in args.radii)
    if p is not None:
        config["s"] = p.s
    try:
        write_csv(args.out, args.command, config, sweep.columns, sweep.rows)
    except OSError as exc:  # an unwritable path is the caller's, not a check's
        print(f"matball: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS if sweep.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":   # this form would run no command
    build_parser().exit(EXIT_USAGE, "matball: run 'python -m matball'\n")
