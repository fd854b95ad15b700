"""Tests for the command-line interface: argument guards, CSV format,
determinism and exit codes."""

import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matball
from matball import cli, experiments, hua, verify
from matball.cli import (OPTIONS, SUBCOMMANDS, build_parser, main,
                         parse_complex, parse_radii)
from matball.errors import GuardError
from matball.identities import AppendixParams


def run_cli(args):
    return main(args)


def _child_env():
    """Environment in which a child process imports the same matball as this
    process, whether or not PYTHONPATH is set."""
    src = str(Path(matball.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("3") == 3.0
        assert parse_complex("2.5+1i") == 2.5 + 1j
        assert parse_complex("2.5-0.5j") == 2.5 - 0.5j
        with pytest.raises(Exception):
            parse_complex("abc")

    def test_radii(self):
        assert parse_radii("0.5,0.9") == (0.5, 0.9)
        with pytest.raises(Exception):
            parse_radii("0.5,1.5")

    def test_usage_error_names_guard(self, capsys):
        assert run_cli(["key-lemma", "--n", "2", "--s", "0.5"]) == 2
        assert "asymptotic range" in capsys.readouterr().err

    def test_valid_config_runs(self, tmp_path):
        out = tmp_path / "km.csv"
        code = run_cli(["key-lemma", "--n", "2", "--nu", "0", "--s", "3.0",
                        "--max-m", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()


def subcommand_options(command):
    """The settable options of one subcommand, read from the built parser."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {flag for action in sub.choices[command]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")}


class TestOptionTable:
    EXPECTED = {
        "phi": "n nu s radii grid max-m",
        "kernel": "n nu s radii grid max-m",
        "hua-check": "n nu s fd-step seed",
        "lemma-a": "n radii seed",
        "lemma-b": "n radii seed",
        "e9": "",
        "key-lemma": "n nu s radii max-m",
        "forelli-rudin": "n nu s radii grid",
        "sandwich": "n nu s radii grid pexp",
        "invert": "n nu s radii",
        "verify-all": "extended seed",
    }

    def test_each_subcommand_takes_only_what_it_reads(self):
        for command, names in self.EXPECTED.items():
            expected = {f"--{name}" for name in names.split()} | {"--out"}
            assert subcommand_options(command) == expected, command
        assert sum(len(subcommand_options(c)) for c in self.EXPECTED) == 56

    def test_hua_check_step_is_the_library_default(self):
        # the option reads hua's constant, so the two cannot drift apart
        assert OPTIONS["fd-step"]["default"] is hua.DEFAULT_FD_STEP
        args = build_parser().parse_args(["hua-check"])
        assert args.fd_step == hua.DEFAULT_FD_STEP

    def test_forelli_rudin_runs_the_grid_it_is_given(self, tmp_path):
        out = tmp_path / "fr.csv"
        assert run_cli(["forelli-rudin", "--grid", "16", "--radii", "0.5",
                        "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "grid=16" in lines[2].split()
        header, row = lines[3].split(","), lines[4].split(",")
        assert row[header.index("grid_points")] == "16"

    @pytest.mark.parametrize("argv, grids", [
        (["--grid", "40"], [40, 40]),
        ([], [80, 80]),  # the default: verify.oracle_grid at each radius
    ])
    def test_phi_grid(self, tmp_path, monkeypatch, argv, grids):
        # one spherical_oracles call per radius, over all signatures
        seen = []

        def spy(p, sigs, r, grid):
            seen.append((r, len(sigs), grid.points_per_dim))
            return [1.0] * len(sigs)

        monkeypatch.setattr(experiments, "spherical_oracles", spy)
        run_cli(["phi", "--n", "1", "--max-m", "1", "--radii", "0.3,0.7",
                 *argv, "--out", str(tmp_path / "phi.csv")])
        assert seen == [(0.3, 3, grids[0]), (0.7, 3, grids[1])]

    def test_readme_table_lists_each_subcommand_options(self):
        # README's "subcommand | options" table is a second copy of the table
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text().splitlines()
        start = lines.index("| subcommand | options |") + 2
        listed = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            commands, options = line.split("|")[1:3]
            listed += [(c, re.findall(r"--([\w-]+)", options))
                       for c in re.findall(r"`([\w-]+)`", commands)]
        assert sorted(listed) == sorted(
            (c, row[1].split()) for c, row in SUBCOMMANDS.items())


# A value just past each bounded option's bound, and the nearest it accepts
BOUNDS = {"n": ("0", "1"), "grid": ("7", "8"), "max-m": ("-1", "0"),
          "seed": ("-1", "0"), "pexp": ("0.999", "1"), "fd-step": ("0", "1e-300")}
BOUNDED = [(c, name) for c, row in SUBCOMMANDS.items()
           for name in row[1].split() if name in BOUNDS]
# an s outside one hypothesis only, and the name the refusal gives it
GUARD_ARGV = {
    "asymptotic": (["--n", "2", "--s", "0.5"], "asymptotic range guard"),
    "generic": (["--n", "1", "--nu", "2", "--s", "1"], "generic-set guard"),
}
# each command whose library call refuses an s outside a hypothesis, with
# each hypothesis it refuses
OUTSIDE_HYPOTHESIS = [
    ("key-lemma", "asymptotic"), ("key-lemma", "generic"),
    ("forelli-rudin", "asymptotic"),
    ("sandwich", "asymptotic"), ("sandwich", "generic"),
    ("invert", "asymptotic"), ("invert", "generic"),
]
# the other commands that take --s, which run at any s, with options that
# keep them short
ANY_S = {"phi": ["--max-m", "0", "--radii", "0.5"],
         "kernel": ["--max-m", "0", "--radii", "0.5"], "hua-check": []}


def usage_error(argv, capsys) -> str:
    """stderr of a run that must stop with a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2, argv
    return capsys.readouterr().err


class TestAcceptedDomain:
    """Every bound of OPTIONS and every hypothesis on s, one case each."""

    def test_guarded_subcommands(self):
        takes_s = {c for c, row in SUBCOMMANDS.items() if "s" in row[1].split()}
        assert takes_s == {c for c, _ in OUTSIDE_HYPOTHESIS} | set(ANY_S)

    def test_every_bounded_option_has_a_case(self):
        plain = (None, int, parse_complex, parse_radii)
        assert {name for name, kw in OPTIONS.items()
                if kw.get("type") not in plain} == set(BOUNDS)

    @pytest.mark.parametrize("command, name", BOUNDED)
    def test_just_past_the_bound_is_usage_error(self, capsys, command, name):
        past, bound = BOUNDS[name]
        err = usage_error([command, f"--{name}={past}"], capsys)
        assert f"--{name} must be" in err
        args = build_parser().parse_args([command, f"--{name}={bound}"])
        assert getattr(args, name.replace("-", "_")) == float(bound)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command, name", [
        (c, name) for c, name in BOUNDED
        if OPTIONS[name]["type"].__name__ == "float"])
    def test_non_finite_float_is_usage_error(self, capsys, command, name, value):
        err = usage_error([command, f"--{name}={value}"], capsys)
        assert f"--{name} must be" in err and "and finite" in err

    @pytest.mark.parametrize("command, guard", OUTSIDE_HYPOTHESIS,
                             ids=[f"{c}-{g}" for c, g in OUTSIDE_HYPOTHESIS])
    def test_s_outside_a_guard_is_usage_error(self, tmp_path, capsys, command,
                                              guard):
        # the library's refusal, as one line naming the hypothesis; no CSV
        argv, named = GUARD_ARGV[guard]
        out = tmp_path / "x.csv"
        assert run_cli([command, *argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and named in lines[0]
        assert not any(other in lines[0] for _, other in GUARD_ARGV.values()
                       if other != named)
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["forelli-rudin", "--n", "5"], ["sandwich", "--n", "3", "--grid", "512"]])
    def test_hypothesis_is_checked_before_the_grid(self, capsys, argv):
        # both grids exceed the node limit, which would exit 3
        assert run_cli([*argv, "--s", "0.5", "--out", os.devnull]) == 2
        assert "asymptotic range guard" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ANY_S)
    def test_unguarded_command_takes_any_s(self, tmp_path, command):
        # hua-check's eigen-equation holds on the excluded lattice too
        # (hua-check --n 1 --nu 2 --s 1)
        for argv, _ in GUARD_ARGV.values():
            assert run_cli([command, *argv, *ANY_S[command],
                            "--out", str(tmp_path / "x.csv")]) == 0, argv


# Option values for the argv fuzz: in range, out of range, non-finite and
# unparsable, always passed as --name=value so negative numbers parse.
FUZZ_VALUES = {
    "n": st.one_of(st.integers(-1, 3), st.just(-10**400)).map(str),
    "nu": st.integers(-3, 3).map(str),
    "s": st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1e300", "1+infi", "nan+1i",
                         "2.5+1i", "abc"]),
        st.floats(-3.0, 8.0).map(repr)),
    "radii": st.sampled_from(["0", "0.3", "0.5,0.9", "0.2,0.7", "0.95",
                              "1.5", "0.5,x"]),
    "grid": st.integers(-5, 64).map(str),
    "max-m": st.integers(-1, 2).map(str),
    "fd-step": st.sampled_from(["4e-4", "1e-3", "0", "-1e-3", "0.2", "nan",
                                "inf"]),
    "seed": st.one_of(st.integers(-2, 2**40),
                      st.sampled_from([-10**400, 10**400])).map(str),
    "pexp": st.sampled_from(["1", "2", "0.5", "inf", "nan", "1e300"]),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from([c for c in SUBCOMMANDS if c != "verify-all"]))
    own = SUBCOMMANDS[command][1].split()
    # mostly the command's own options, sometimes one it does not take
    names = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    if draw(st.integers(0, 3)) == 0:
        names.append(draw(st.sampled_from(sorted(OPTIONS))))
    argv = [command]
    for name in names:
        argv.append("--extended" if name == "extended"
                    else f"--{name}={draw(FUZZ_VALUES[name])}")
    return argv


class TestArgvFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(argv=fuzz_argv())
    def test_exit_code_without_traceback(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--out", os.devnull])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()


class TestCsvFormat:
    def test_header_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["lemma-b", "--n", "2", "--seed", "7"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2  # bit-identical for identical config
        text = b1.decode()
        lines = text.splitlines()
        assert lines[0].startswith("# matball ")
        assert lines[1] == "# command: lemma-b"
        assert lines[2].startswith("# config: ")
        assert "seed=7" in lines[2]
        assert lines[3] == "# seed: 7"
        header = lines[4].split(",")
        assert "ratio_re" in header and "ratio_im" in header
        assert all(c == c.lower() for c in header)

    def test_stdout_gets_the_file_bytes(self, tmp_path):
        # '--out -' is the default; the child's stdout is read as raw bytes
        args = ["lemma-b", "--n", "2", "--seed", "7"]
        out = tmp_path / "lb.csv"
        assert run_cli(args + ["--out", str(out)]) == 0
        child = subprocess.run(
            [sys.executable, "-m", "matball", *args, "--out", "-"],
            capture_output=True, env=_child_env(), timeout=120)
        assert child.returncode == 0
        assert child.stdout == out.read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "km.csv"
        run_cli(["key-lemma", "--n", "1", "--s", "1.5", "--max-m", "1",
                 "--out", str(out)])
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")][1:]
        # a generic deviation value carries 17 significant digits
        cell = rows[0].split(",")[-1]
        mantissa = cell.lstrip("-0.").replace(".", "").split("e")[0]
        assert len(mantissa) >= 15


class TestExitCodes:
    def test_pass(self, tmp_path):
        assert run_cli(["e9", "--out", str(tmp_path / "e9.csv")]) == 0

    def test_usage(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["key-lemma", "--n", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, out):
        # a missing directory and a directory: the path, not a check, fails
        path = tmp_path / out
        assert run_cli(["e9", "--out", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"cannot write {path}" in lines[0]

    def test_numerical_guard(self, tmp_path, capsys):
        # an oversized finite-difference step pushes probes out of the ball
        code = run_cli(["hua-check", "--n", "1", "--fd-step", "0.2",
                        "--out", str(tmp_path / "h.csv")])
        assert code == 3
        assert "MarginError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--n", "1", "--s", "nan"],
        ["phi", "--n", "1", "--s", "nan"],
        ["hua-check", "--n", "2", "--s", "inf"],
        ["kernel", "--n", "1", "--s", "inf"],
        ["kernel", "--n", "1", "--s", "1+infi"],
    ])
    def test_non_finite_s_is_a_guard(self, tmp_path, capsys, argv):
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 3
        assert "DomainError" in capsys.readouterr().err

    def test_undefined_lemma_a_error_names_the_guard(self, tmp_path, capsys,
                                                     monkeypatch):
        # two equal p entries make the left side's determinant exactly 0
        def singular(rng, n):
            return AppendixParams(n, 0.4 + 0.5j, 0.3 - 0.6j, (0.2 + 0.1j,) * n)

        monkeypatch.setattr(cli, "draw_appendix_params", singular)
        out = tmp_path / "la.csv"
        assert run_cli(["lemma-a", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "GuardError: Lemma A sides lhs=0j" in err
        assert "relative error undefined" in err and not out.exists()

    def test_oversized_grid_is_a_guard(self, tmp_path, capsys):
        # 512^3 nodes exceed the 2^24-node limit; the grid is refused
        # before any node array is allocated
        code = run_cli(["sandwich", "--n", "3", "--grid", "512",
                        "--out", str(tmp_path / "sw.csv")])
        assert code == 3
        assert "nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["phi", "key-lemma"])
    def test_negative_max_m_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--max-m", "-1"])
        assert exc.value.code == 2
        assert "--max-m must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lemma-a", "hua-check", "verify-all"])
    def test_negative_seed_is_usage_error(self, capsys, command):
        # numpy's default_rng raises ValueError on a negative seed
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--seed=-1"])
        assert exc.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sandwich", "--grid", "-5"], ["phi", "--grid", "0"],
        ["kernel", "--grid", "-5"], ["forelli-rudin", "--grid", "7"],
    ])
    def test_grid_below_eight_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert "--grid must be >= 8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["phi", "--n", "1", "--s", "1e6"],
        ["forelli-rudin", "--n", "1", "--s", "300"],
    ])
    def test_guard_is_the_only_stderr_line(self, tmp_path, argv):
        # numpy's overflow warnings stay silent; the guard alone reports
        proc = subprocess.run(
            [sys.executable, "-m", "matball", *argv,
             "--out", str(tmp_path / "x.csv")],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical guard:")

    def test_subprocess_entry_point(self, tmp_path):
        # `python -m matball` exits with main()'s code, and writes the CSV
        out = tmp_path / "e9.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "matball", "e9", "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith("# matball ")

    def test_package_runs_as_module(self):
        # without --out, `python -m matball` writes the CSV to its stdout
        proc = subprocess.run(
            [sys.executable, "-m", "matball", "e9"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# matball ")
        assert proc.stdout.splitlines()[1] == "# command: e9"

    def test_cli_module_form_is_refused(self, tmp_path):
        # `python -m matball.cli` would run no command; it exits 2 naming
        # the entry point instead of reading as a success
        out = tmp_path / "va.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "matball.cli", "verify-all", "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 2
        assert proc.stdout == "" and not out.exists()
        assert proc.stderr.splitlines() == ["matball: run 'python -m matball'"]

    def test_hua_check_underflow_is_a_guard(self, tmp_path, capsys):
        # draw 4 of seed 42 has a kernel of ~3e-153 at s = 2000
        assert run_cli(["hua-check", "--n", "2", "--s", "2000",
                        "--out", str(tmp_path / "h.csv")]) == 3
        assert "RangeError" in capsys.readouterr().err


class TestCommands:
    def test_phi_oracle_comparison(self, tmp_path):
        out = tmp_path / "phi.csv"
        assert run_cli(["phi", "--n", "1", "--s", "1.5", "--max-m", "2",
                        "--radii", "0.2,0.5", "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows[0].split(",")[-1] == "passed"
        assert all(ln.endswith(",1") for ln in rows[1:])

    def test_kernel_modes(self, tmp_path):
        assert run_cli(["kernel", "--n", "2", "--nu", "1", "--s", "3.0",
                        "--max-m", "2", "--out", str(tmp_path / "k.csv")]) == 0

    def test_lemma_a_seeded(self, tmp_path):
        assert run_cli(["lemma-a", "--n", "3", "--seed", "42",
                        "--out", str(tmp_path / "la.csv")]) == 0

    def test_forelli(self, tmp_path):
        assert run_cli(["forelli-rudin", "--n", "2", "--nu", "1", "--s", "3.0",
                        "--out", str(tmp_path / "fr.csv")]) == 0

    def test_sandwich_and_invert(self, tmp_path):
        assert run_cli(["sandwich", "--n", "1", "--nu", "0", "--s", "1.5",
                        "--out", str(tmp_path / "sw.csv")]) == 0
        assert run_cli(["invert", "--n", "1", "--nu", "0", "--s", "1.5",
                        "--out", str(tmp_path / "inv.csv")]) == 0

    def test_verify_all_lines_carry_criterion_time(self, tmp_path, capsys,
                                                   monkeypatch):
        # run_all reads perf_counter around each criterion; the time goes to
        # stderr only, so the CSV holds the results alone.  One CPU, so that
        # no forked worker reads its own copy of the fake clock
        def first(extended=False):
            return verify.CriterionResult("first", True, {"x": 1})

        def second(extended=False):
            return verify.CriterionResult("second", False, {"y": 2})

        ticks = iter([0.0, 1.0, 1.25, 2.0, 2.5, 3.0])
        monkeypatch.setattr(verify, "ALL_CRITERIA", (first, second))
        monkeypatch.setattr(verify, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        out = tmp_path / "va.csv"
        assert run_cli(["verify-all", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "[PASS] first: x=1  [0.25s]",
            "[FAIL] second: y=2  [0.50s]",
            "suite finished in 3.0s on 1 process",
        ]
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows == ["criterion,passed,details", "first,1,x=1",
                        "second,0,y=2"]

    def test_split_criterion_line_sums_its_task_times(self, tmp_path, capsys,
                                                      monkeypatch):
        # a criterion with ``tasks`` runs them as queue tasks and merges
        # their results; its line carries their summed time
        def split(extended=False, worsts=None):
            return verify.CriterionResult("split", True, {"worsts": worsts})

        split.tasks = (lambda: 1.0, lambda: 2.0)
        ticks = iter([0.0, 1.0, 1.25, 2.0, 2.5, 3.0])
        monkeypatch.setattr(verify, "ALL_CRITERIA", (split,))
        monkeypatch.setattr(verify, "time",
                            SimpleNamespace(perf_counter=lambda: next(ticks)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert run_cli(["verify-all", "--out", str(tmp_path / "va.csv")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "[PASS] split: worsts=[1.0, 2.0]  [0.75s]",
            "suite finished in 3.0s on 1 process",
        ]

    @pytest.mark.parametrize("order", ["guard_first", "overflow_first"])
    def test_first_failing_task_decides_the_criterion(self, monkeypatch,
                                                      order):
        # as in a serial loop over the tasks: a MatballError before any
        # other exception is the criterion's error row, and an exception
        # before any MatballError is raised
        def guard():
            raise GuardError("low rank")

        def overflow():
            raise OverflowError("high rank")

        def split(extended=False, worsts=None):
            raise AssertionError("merged despite a failed task")

        failing = (guard, overflow) if order == "guard_first" else (
            overflow, guard)
        split.tasks = (lambda: 1.0, *failing)
        monkeypatch.setattr(verify, "ALL_CRITERIA", (split,))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        if order == "overflow_first":
            with pytest.raises(OverflowError, match="high rank"):
                verify.run_all()
            return
        (res,), _, procs = verify.run_all()
        assert procs == 1
        assert res.name == "split" and not res.passed
        assert res.details == {"error": "GuardError: low rank"}


def _wait_for(path: Path, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.001)


def _untimed(lines):
    """stderr lines without the criterion times."""
    return [re.sub(r"  \[[0-9.]+s\]$", "", ln) for ln in lines]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="needs os.fork and CPU affinity")
class TestVerifyAllProcesses:
    """verify-all's criteria run in this process and in forked workers; the
    outcome must not depend on which process ran which criterion."""

    @staticmethod
    def _forking(monkeypatch) -> int:
        """Fork at least one worker, unpinned on a one-CPU machine; this
        process runs the first criterion.  Returns the process count for
        five criteria."""
        if len(os.sched_getaffinity(0)) < 2:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
        return min(len(os.sched_getaffinity(0)), 5)

    @pytest.mark.parametrize("extra", [[], ["--extended"]])
    def test_csv_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, extra):
        one_cpu = ("import os, sys; "
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                   "from matball.cli import main; sys.exit(main(sys.argv[1:]))")
        runs = {}
        for name, cmd in (("one", ["-c", one_cpu]), ("all", ["-m", "matball"])):
            out = tmp_path / f"{name}.csv"
            proc = subprocess.run(
                [sys.executable, *cmd, "verify-all", *extra, "--out", str(out)],
                capture_output=True, text=True, env=_child_env(), timeout=600)
            assert proc.returncode == 0, proc.stderr
            runs[name] = out.read_bytes(), proc.stderr.splitlines()
        assert runs["one"][0] == runs["all"][0]
        one, every = (_untimed(runs[name][1]) for name in ("one", "all"))
        assert one[:-1] == every[:-1]
        assert len(one) == len(verify.ALL_CRITERIA) + 1
        procs = min(len(os.sched_getaffinity(0)), len(verify._tasks()))
        assert one[-1].endswith(" on 1 process")
        assert every[-1].endswith(f" on {procs} process" + "es" * (procs > 1))

    @pytest.mark.parametrize("failing", [(3,), (3, 4)])
    def test_lowest_failing_rank_names_the_error(self, tmp_path, capsys,
                                                 monkeypatch, failing):
        # a singular draw (two equal p entries) at the failing ranks; with
        # two processes rank 3 fails only after rank 4's task has drawn, and
        # still names the error, as the serial loop did
        real_draw = verify.draw_appendix_params_batch
        drawn4 = tmp_path / "drawn4"

        def draw(rng, n, draws):
            if n == 4:
                drawn4.touch()
            elif n == 3 and wait:
                _wait_for(drawn4)
            aps = real_draw(rng, n, draws)
            if n in failing:
                ap = aps[7]
                aps[7] = AppendixParams(n, ap.alpha, ap.beta,
                                        (ap.p[0],) * 2 + ap.p[2:])
            return aps

        monkeypatch.setattr(verify, "draw_appendix_params_batch", draw)
        real = sorted(os.sched_getaffinity(0))
        if len(real) < 2:
            monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
            real = [0, 1]
        runs = []
        for cpus, wait in (({real[0]}, False), (set(real[:2]), True)):
            drawn4.unlink(missing_ok=True)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            out = tmp_path / f"{len(cpus)}.csv"
            assert run_cli(["verify-all", "--out", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            runs.append((out.read_bytes(), _untimed(err[:-1])))
            assert err[-1].endswith(f" on {len(cpus)} process"
                                    + "es" * (len(cpus) > 1))
        assert runs[0] == runs[1]
        row, = [row for row in csv.reader(runs[0][0].decode().splitlines())
                if row[0] == "lemma_a_identity"]
        assert row[1] == "0" and row[2].startswith("error=GuardError: Lemma A ")
        assert "AppendixParams(n=3," in row[2]
        _assert_no_child_left()

    def test_worker_overflow_exits_3_after_the_earlier_lines(
            self, tmp_path, capsys, monkeypatch):
        def first(extended=False):
            _wait_for(tmp_path / "second")
            return verify.CriterionResult("first", True, {"x": 1})

        def second(extended=False):
            (tmp_path / "second").write_text(str(os.getpid()))
            raise OverflowError("in a worker")

        def third(extended=False):
            return verify.CriterionResult("third", True, {})

        self._forking(monkeypatch)
        monkeypatch.setattr(verify, "ALL_CRITERIA", (first, second, third))
        out = tmp_path / "va.csv"
        assert run_cli(["verify-all", "--out", str(out)]) == 3
        assert int((tmp_path / "second").read_text()) != os.getpid()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("[PASS] first: x=1  [")
        assert err[1] == "numerical guard: OverflowError: in a worker"
        assert not out.exists()
        _assert_no_child_left()

    def test_rows_keep_their_order_when_the_first_is_slowest(
            self, tmp_path, capsys, monkeypatch):
        def slowest(extended=False):
            _wait_for(tmp_path / "4")
            return verify.CriterionResult("c0", True, {"pid": "parent"})

        def fast(i):
            def crit(extended=False):
                (tmp_path / str(i)).touch()
                return verify.CriterionResult(f"c{i}", i % 2 == 1, {"i": i})
            return crit

        procs = self._forking(monkeypatch)
        monkeypatch.setattr(verify, "ALL_CRITERIA",
                            (slowest, *(fast(i) for i in range(1, 5))))
        out = tmp_path / "va.csv"
        cpus = os.sched_getaffinity(0)
        assert run_cli(["verify-all", "--out", str(out)]) == 1
        assert os.sched_getaffinity(0) == cpus   # only workers are pinned
        rows = [ln for ln in out.read_text().splitlines()
                if not ln.startswith("#")]
        assert rows == ["criterion,passed,details", "c0,1,pid=parent",
                        "c1,1,i=1", "c2,0,i=2", "c3,1,i=3", "c4,0,i=4"]
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(":")[0] for ln in err[:-1]] == [
            "[PASS] c0", "[PASS] c1", "[FAIL] c2", "[PASS] c3", "[FAIL] c4"]
        assert err[-1].endswith(f" on {procs} processes")
        _assert_no_child_left()

    def test_caller_runs_criterion_1(self, monkeypatch):
        # even when the caller reaches the queue after its worker, as a
        # pinned worker would crowd criterion 1's BLAS threads onto one CPU
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two CPUs")
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                time.sleep(0.2)
            return pid

        def first(extended=False):
            return verify.CriterionResult("first", True, {"pid": os.getpid()})

        def other(extended=False):
            return verify.CriterionResult("other", True, {})

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(verify, "ALL_CRITERIA", (first, other, other))
        results, _, procs = verify.run_all()
        assert procs > 1
        assert results[0].details == {"pid": os.getpid()}
        _assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_workers(self, tmp_path,
                                                   monkeypatch):
        def first(extended=False):
            _wait_for(tmp_path / "second")
            raise KeyboardInterrupt

        def second(extended=False):
            (tmp_path / "second").touch()
            time.sleep(60)

        self._forking(monkeypatch)
        monkeypatch.setattr(verify, "ALL_CRITERIA", (first, second))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify.run_all()
        assert time.monotonic() - t0 < 30
        _assert_no_child_left()
