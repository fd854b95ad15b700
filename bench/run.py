"""matball benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports matball from its
``src/``.  Passes over the workload's seeded cases repeat until ``--seconds``
have elapsed.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and the JSON carries the per-layer metrics instead.  The
lines before it print every metric by name and unit, the environment and
the output digests.  Times are corrected for the host's speed, sampled
between passes (hostspeed.py); the raw figures are printed beside them.
See NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups are repeated between the timed passes, so that their median samples
# the same stretch of the run as the passes do: at least MIN_SETUPS of them,
# and about SETUP_SHARE of the timed loop.
MIN_SETUPS = 5
SETUP_SHARE = 0.15
# The end-to-end metrics in the JSON line (see BENCHMARK.json).  The others
# are printed above it only: fail_frac and refuse_frac are zero on some
# workloads, accuracy_digits is negative on pointwise, and case_ms_tail is
# the slowest of a run's 7-9 passes on oracle-rank3 and verify-default, so it
# follows single bursts of the host (see NOTES.md).
REPORTED = ("wall_s", "case_ms_p50", "setup_s", "peak_rss_mb")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("oracle-rank3", "verify-default", "pointwise"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before
    numpy is imported (OpenBLAS otherwise sizes its own pool)."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def tail(values):
    """The highest percentile with at least ten values beyond it, and that
    percentile; the largest value when there are fewer than eleven."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def end_to_end(runs, scales, import_s, setups):
    """``scales`` holds the host-speed factor of each pass; ``import_s`` and
    ``setups`` are (seconds, factor) pairs."""
    walls = [r.wall_s * k for r, k in zip(runs, scales)]
    cases = [s * k * 1e3 for r, k in zip(runs, scales) for s in r.case_s]
    raw_walls = [r.wall_s for r in runs]
    raw_cases = [s * 1e3 for r in runs for s in r.case_s]
    tail_ms, tail_pct = tail(cases)
    attempted = sum(r.attempted for r in runs)
    worst = max(r.worst_rel for r in runs)
    setup_s = (import_s[0] * import_s[1]
               + statistics.median(s * k for s, k in setups))
    raw_setup_s = import_s[0] + statistics.median(s for s, _ in setups)
    metrics = {
        "wall_s": (statistics.mean(walls), "s",
                   f"mean of {len(walls)} passes; "
                   f"raw {statistics.mean(raw_walls):.4g} s"),
        "case_ms_p50": (statistics.median(cases), "ms",
                        f"n={len(cases)}; "
                        f"raw {statistics.median(raw_cases):.4g} ms"),
        "case_ms_tail": (tail_ms, "ms", f"p{tail_pct:.1f}, n={len(cases)}; "
                         f"raw {tail(raw_cases)[0]:.4g} ms"),
        "setup_s": (setup_s, "s",
                    f"import + median of {len(setups)} set-ups; "
                    f"raw {raw_setup_s:.4g} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "ru_maxrss"),
        "fail_frac": (sum(r.failed + r.defect_misses for r in runs)
                      / attempted, "1",
                      f"of {attempted} cases, known-defect misses included"),
        "refuse_frac": (sum(r.refused for r in runs) / attempted, "1",
                        f"of {attempted} cases"),
        "accuracy_digits": (-math.log10(worst) if worst > 0 else math.inf,
                            "digits", f"worst relative error {worst:.3e}"),
    }
    return metrics


def per_layer(tracer, traced, plain):
    """Per-pass layer metrics of the traced passes."""
    import layertrace
    import workloads
    k = len(traced)
    stats, counts = tracer.stats, tracer.counts
    out = {}

    def span(name, calls=True, self_s=True, total=None):
        st = stats.get(name)
        if calls:
            out[f"{name}.calls"] = ((st.calls if st else 0) / k, "count")
        if self_s:
            out[f"{name}.self_s"] = ((st.self_s if st else 0.0) / k, "s")
        if total:
            out[f"{name}.{total}"] = ((st.total_s if st else 0.0) / k, "s")

    span("boundary.schur_character")
    for c in ("nodes", "bytes_computed"):
        unit = "B" if c.startswith("bytes") else "count"
        out[f"boundary.schur_character.{c}"] = (
            counts[f"boundary.schur_character.{c}"] / k, unit)
    span("boundary.weyl_integrate")
    nodes = counts["boundary.weyl_integrate.nodes"]
    grid_nodes = counts["boundary.weyl_integrate.grid_nodes"]
    out["boundary.weyl_integrate.nodes"] = (nodes / k, "count")
    out["boundary.weyl_integrate.grid_max_n"] = (
        counts["boundary.weyl_integrate.grid_max_n"], "count")
    out["boundary.weyl_integrate.useful_ratio"] = (
        nodes / grid_nodes if grid_nodes else 0.0, "1")
    span("boundary.spherical_oracle")
    span("boundary.poisson_kernel_torus")
    out["boundary.poisson_kernel_torus.nodes"] = (
        counts["boundary.poisson_kernel_torus.nodes"] / k, "count")
    span("boundary.poisson_kernel")
    span("experiments.forelli_rudin_growth", calls=False)
    out["experiments.forelli_rudin_growth.refinements"] = (
        counts["experiments.forelli_rudin_growth.refinements"] / k, "count")
    for name in ("key_lemma_sweep", "norm_sandwich", "inversion_experiment"):
        span(f"experiments.{name}", calls=False)
    for branch in layertrace.GAUSS_BRANCHES:
        span(f"special.gauss_2f1.{branch}")
    for name in ("special.gamma", "special.c_function", "spherical.phi_scalar",
                 "spherical.phi_scalar_core", "spherical.phi_big",
                 "spherical.key_lemma_ratio", "identities.lemma_a_sides",
                 "identities.lemma_b_ratio", "identities.e9_identity_check",
                 "hua.hua_residual", "hua.hua_apply"):
        span(name)
    out["hua.kernel_evals"] = (counts["hua.kernel_evals"] / k, "count")
    out["spherical.known_defect_misses"] = (
        sum(r.defect_misses for r in traced) / k, "count")
    for crit in workloads.CRITERIA:
        span(f"verify.{crit}", calls=False, self_s=False, total="wall_s")
    span("cli.main", calls=False)
    span("cli.write_csv", calls=False)
    out["cli.csv_bytes"] = (counts["cli.csv_bytes"] / k, "B")
    traced_wall = sum(r.wall_s for r in traced)
    out["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in plain), "s")
    out["trace.coverage"] = (
        sum(st.self_s for st in stats.values()) / traced_wall, "1")
    return {name: (value, unit, "per traced pass")
            for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "matball" / "__init__.py").is_file():
        print(f"bench: no matball sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import matball
    if Path(matball.__file__).resolve().parent != (SRC / "matball").resolve():
        print(f"bench: imported matball from {matball.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # taken before the harness's own modules (and mpmath) are imported
    import_s = time.perf_counter() - T_START
    import hostspeed
    import layertrace
    import workloads
    speed = hostspeed.HostSpeed()
    speed.sample()
    print(f"# env: python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"nproc={nproc} " + " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS))

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        setups = []   # (seconds, moment)

        def set_up():
            t0 = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
            wl.warm_up()
            t1 = time.perf_counter()
            setups.append((t1 - t0, 0.5 * (t0 + t1)))
            return wl

        wl = set_up()
        t0 = time.perf_counter()
        wl.references()
        print(f"# references: {time.perf_counter() - t0:.3f} s (untimed)")

        plain, traced, mids = [], [], []
        tracer = layertrace.Tracer() if args.trace else None
        speed.sample()
        t_loop = time.perf_counter()
        deadline = t_loop + args.seconds
        while (not plain or (tracer and not traced)
               or time.perf_counter() < deadline):
            if tracer and len(traced) < len(plain):
                with tracer:
                    traced.append(wl.run_pass())
            else:
                t0 = time.perf_counter()
                plain.append(wl.run_pass())
                mids.append(t0 + 0.5 * plain[-1].wall_s)
            speed.sample()
            elapsed = time.perf_counter() - t_loop
            if sum(s for s, _ in setups[1:]) < SETUP_SHARE * elapsed:
                set_up()
        while len(setups) < MIN_SETUPS:
            set_up()
        speed.sample()

    runs = plain + traced
    digests = sorted({r.digest for r in runs})
    unexpected = sorted({u for r in runs for u in r.unexpected})
    for u in unexpected:
        print(f"# unexpected: {u}")
    scales = [speed.scale(t) for t in mids]
    print("# pass walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in plain))
    print("# host-speed scales: " + " ".join(f"{k:.3f}" for k in scales))
    print("# reference computation (ms): "
          + " ".join(f"{s * 1e3:.0f}" for s in speed.secs))
    print(f"# output digest: {', '.join(digests)} over {len(runs)} passes")
    correct = len(digests) == 1 and not unexpected

    metrics = end_to_end(
        plain, scales, (import_s, speed.scale(speed.t[0])),
        [(s, speed.scale(t)) for s, t in setups])
    reported = {k: metrics[k] for k in REPORTED}
    if tracer:
        reported = per_layer(tracer, traced, plain)
        metrics.update(reported)
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} ({note})")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in runs),
        # known-defect misses are printed in fail_frac, not counted here
        "failed": sum(r.failed for r in runs),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
