"""Tests of the benchmark harness itself (not of matball)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import matball  # noqa: E402
import matball.cli as cli  # noqa: E402
import matball.special as special  # noqa: E402
import matball.verify as verify  # noqa: E402
from matball.errors import DegenerateConnection, MatballError  # noqa: E402

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BRANCH_TABLE = [
    # (a, b, c, x, branch)
    (1.5, 2.25, 3.1, 0.3, "series"),
    (1.5, 2.25, 3.1, 0.5, "series"),               # x = 1/2 edge
    (1.5, 2.25, 3.1, 0.5000001, "connection"),
    (0.5 + 1j, 1.25, 2.0 - 0.5j, 0.9, "connection"),
    (0.5, 1.5, 2.0, 0.7, "log"),                   # c - a - b = 0
    (0.5, 1.5, 4.0, 0.7, "log"),                   # c - a - b = 2
    (0.5, 1.5, 0.5, 0.7, "connection"),            # c - a - b = -1.5
    (0.75, 1.25, -1.0 + 1e-3j, 0.9, "connection"),
    (2.0, 1.5, 0.5 + 1e-13, 0.7, "log"),           # -3 within 1e-12
    (-3.0, 2.5, 1.25, 0.9, "terminating"),
    (2.5, -2.0 + 1e-13, 1.25, 0.9, "terminating"),
    (0.0, 2.5, 1.25, 0.2, "terminating"),
    (0.5, 1.5, 3.0 + 5e-11, 0.8, "degenerate"),    # ring around 1
    (0.5, 1.5, 3.0 + 5e-9, 0.8, "connection"),     # outside the ring
    (0.5, 1.5, 3.0 + 5e-11, 0.4, "series"),        # ring only matters at x > 1/2
    (0.5, 1.5, 2.0, 1.0, "domain"),
    (0.5, 1.5, -2.0, 0.3, "domain"),
]


def _taken_branch(monkeypatch, a, b, c, x):
    """The branch ``gauss_2f1`` really takes, seen through its private
    helpers."""
    seen = []
    for helper, label in (("_series_2f1_terminating", "terminating"),
                          ("_log_case_2f1", "log"), ("_series_2f1", None)):
        original = getattr(special, helper)

        def spy(*args, _original=original, _label=label):
            if _label is None:
                _label = "series" if args[3] == x else "connection"
            seen.append(_label)
            return _original(*args)

        monkeypatch.setattr(special, helper, spy)
    try:
        special.gauss_2f1(a, b, c, x)
    except DegenerateConnection:
        return "degenerate"
    except MatballError:
        return "domain"
    finally:
        monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("a,b,c,x,branch", BRANCH_TABLE)
def test_branch_classifier_matches_dispatch(monkeypatch, a, b, c, x, branch):
    assert layertrace.gauss_2f1_branch(a, b, c, x) == branch
    assert _taken_branch(monkeypatch, a, b, c, x) == branch


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "matball" or name.startswith("matball."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    return out


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    before = _bindings()
    tracer = layertrace.Tracer()
    with tracer:
        # `from .special import gauss_2f1` bindings are wrapped too
        assert matball.spherical.gauss_2f1 is not before[
            ("matball.spherical", "gauss_2f1")]
        assert matball.boundary.phi_scalar_core is not before[
            ("matball.boundary", "phi_scalar_core")]
        assert matball.verify.spherical_oracle is matball.boundary.spherical_oracle
        assert all(c.__name__ == n for c, n in
                   zip(verify.ALL_CRITERIA, workloads.CRITERIA))
        p = special.SpectralParams(2, 1, 3.5)
        matball.phi_big(p, (1, 0), 0.8)
        assert cli.main(["e9", "--out", str(tmp_path / "e9.csv")]) == 0
        with pytest.raises(MatballError):
            matball.spherical.phi_big(p, (0, 1), 0.5)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stats["spherical.phi_big"].calls == 2
    assert tracer.stats["identities.e9_identity_check"].calls == 84
    assert tracer.stats["special.gauss_2f1.connection"].calls == 4
    assert tracer.counts["cli.csv_bytes"] == (tmp_path / "e9.csv").stat().st_size
    # self times of all spans add up to the spans of the top-level calls
    total = sum(st.self_s for st in tracer.stats.values())
    top = (tracer.stats["cli.main"].total_s
           + tracer.stats["spherical.phi_big"].total_s)
    assert total == pytest.approx(top, rel=1e-9)


def test_traced_outputs_are_bit_identical(monkeypatch):
    monkeypatch.setattr(workloads.Pointwise, "UNITS", 1)
    wl = workloads.Pointwise(7, None)
    wl.references()
    plain = wl.run_pass()
    with layertrace.Tracer():
        traced = wl.run_pass()
    assert traced.digest == plain.digest
    assert traced.defect_misses == plain.defect_misses > 0
    assert traced.failed == plain.failed == 0
    assert not plain.unexpected


def test_known_defect_excuses_only_wrong_values():
    def raise_(exc):
        raise exc

    wl = workloads.CaseWorkload()
    wl.cases = [
        workloads.Case("wrong", lambda: 1.0, lambda out: (False, 0.5),
                       known_defect=True),
        workloads.Case("refused", lambda: raise_(DegenerateConnection("x")),
                       None, may_refuse=True, known_defect=True),
        workloads.Case("crashed", lambda: raise_(ZeroDivisionError()), None,
                       known_defect=True),
    ]
    res = wl.run_pass()
    assert (res.attempted, res.failed, res.refused) == (3, 1, 1)
    assert res.defect_misses == 1
    assert res.unexpected == ["crashed: raised ZeroDivisionError()"]


def test_pointwise_known_defects_are_the_measured_points():
    marked = set()
    for case in workloads.Pointwise(3, None).cases:
        if case.known_defect:
            n = int(case.kind.split(" n=")[1].split()[0])
            r = float(case.kind.rsplit("r=", 1)[1])
            marked.add((case.kind.split()[0], n, r))
    assert marked == {(kind, n, r)
                      for kind in ("phi_big", "key_lemma_ratio")
                      for n, r in ((3, 0.99), (3, 0.999), (3, 0.9999),
                                   (2, 0.999), (2, 0.9999))}


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    class Pass:
        wall_s = 1.0
        defect_misses = 0

    emitted = run.per_layer(layertrace.Tracer(), [Pass()], [Pass()])
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u, _ in
                                                      emitted.values()]
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.REPORTED


def test_tail_keeps_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = list(np.arange(40.0))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0


def test_host_speed_interpolates_between_samples():
    speed = hostspeed.HostSpeed()
    speed.t, speed.secs = [10.0, 20.0], [0.04, 0.12]
    assert speed.speed(5.0) == 0.04
    assert speed.speed(15.0) == pytest.approx(0.08)
    assert speed.speed(25.0) == 0.12
    assert speed.scale(15.0) == pytest.approx(hostspeed.REF_S / 0.08)
    fresh = hostspeed.HostSpeed()
    fresh.sample()
    fresh.sample()
    assert len(fresh.secs) == 2 and min(fresh.secs) > 0
