"""Golden CLI outputs: every subcommand's CSV bytes and exit code at its
default configuration and at a set of variants, pinned in tests/golden/.

A deliberate change to the output regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and names the change in CHANGES.md.  ``verify-all`` is compared inside
``test_acceptance.test_criterion_11_verify_all_gate``, which runs it anyway.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from matball.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(argv, out: Path) -> int:
    """Exit code of ``matball <argv> --out <out>``, usage errors included."""
    try:
        return main(list(argv) + ["--out", str(out)])
    except SystemExit as exc:
        return exc.code


def golden_csv(name: str) -> Path:
    return GOLDEN / f"{name}.csv"


@pytest.mark.parametrize(
    "case", [c for c in CASES if c["name"] != "verify-all"],
    ids=lambda c: c["name"])
def test_golden(case, tmp_path):
    out = tmp_path / "out.csv"
    assert run_case(case["argv"], out) == case["exit"]
    golden = golden_csv(case["name"])
    if golden.exists():
        assert out.read_bytes() == golden.read_bytes()
    else:
        assert not out.exists()


def data_lines(path: Path):
    """The non-'#' lines of a CSV, or None where none was written."""
    if not path.exists():
        return None
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")),
                         ids=lambda path: path.stem)
def test_rows_parse_at_the_header_width(path):
    # a field holding a comma is quoted, so csv.reader splits no field
    header, *rows = csv.reader(data_lines(path))
    assert rows and all(len(row) == len(header) for row in rows)


def regenerate() -> None:
    """Rewrite every golden, and report each case whose exit code or data
    lines changed: a change that only touches the '#' header reports none."""
    for case in CASES:
        out = golden_csv(case["name"])
        old_exit, old_data = case.get("exit"), data_lines(out)
        out.unlink(missing_ok=True)
        case["exit"] = run_case(case["argv"], out)
        if case["exit"] != old_exit:
            print(f"{case['name']}: exit {old_exit} -> {case['exit']}",
                  file=sys.stderr)
        if data_lines(out) != old_data:
            print(f"{case['name']}: data lines changed", file=sys.stderr)
    with open(GOLDEN / "cases.json", "w") as fh:
        fh.write("[\n")
        fh.write(",\n".join(" " + json.dumps(c) for c in CASES))
        fh.write("\n]\n")


if __name__ == "__main__":
    regenerate()
