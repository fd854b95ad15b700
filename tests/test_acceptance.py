"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion.

Tolerances are pinned here and inside matball.verify:
  1. determinant formula vs quadrature oracle <= 1e-6 (n in {1,2,3},
     r in {0.1,0.3,0.5,0.7}, 5 signatures, 3 parameter points per rank,
     grid gate <= 1e-8);
  2. Phi_0(0) = 1 exactly, Phi_m(0) = 0 within 1e-10 for m != 0;
  3. |asymptotic ratio - 1| <= 5e-2 at r = 0.9999, deviations decreasing,
     uniformity band over >= 10 signatures;
  4. operator eigen-residuals <= 1e-4 at h = 1e-3 on >= 6 combinations,
     Richardson ratio 4 +/- 25%;
  5. determinant shift identity <= 1e-8 on 100 seeded draws per
     n in {2,3,4}, r in {0.3,0.6,0.9};
  6. determinant asymptotic ratio within 5e-2 at r = 1-1e-5, first-order
     convergence in (1-r^2) at every step, with the sign +1 at every rank;
  7. c-function factorization <= 1e-9, Pochhammer product <= 1e-11 and
     induction identity <= 1e-10;
  8. |c| ||f||_2 <= (1+1e-3) ||Pf||_{*,2} on >= 12 configurations; single
     K-type slice ratio within 5e-2 of |c| at r = 0.9999;
  9. inversion error decreasing over r in {0.9,...,0.9999}, final
     <= 1e-2 ||f||_2;
 10. kernel mass within a factor-10 band of its growth rate;
 11. the verify-all command exits 0 on the default (rank <= 2) suite and
     writes the CSV pinned in tests/golden/verify-all.csv.
"""

import time
from pathlib import Path

from matball import verify
from matball.cli import main


def _run(criterion, budget_seconds, **kw):
    t0 = time.time()
    res = criterion(**kw)
    elapsed = time.time() - t0
    print(f"{res.line()}  [{elapsed:.1f}s]")
    assert res.passed, res.line()
    assert elapsed <= budget_seconds, f"runtime {elapsed:.1f}s over budget"


def test_criterion_1_oracle_equivalence():
    _run(verify.oracle_equivalence, 300, extended=True)


def test_criterion_2_normalization_anchor():
    _run(verify.normalization_anchor, 60, extended=True)


def test_criterion_3_key_lemma():
    _run(verify.key_lemma_asymptotics, 60)


def test_criterion_4_hua_eigen_equation():
    _run(verify.hua_eigen_equation, 120)


def test_criterion_5_lemma_a():
    _run(verify.lemma_a_identity, 60)


def test_criterion_6_lemma_b():
    _run(verify.lemma_b_asymptotics, 60, extended=True)


def test_criterion_7_small_identities():
    _run(verify.small_identities, 60)


def test_criterion_8_norm_lower_bound():
    _run(verify.norm_lower_bound, 120)


def test_criterion_9_inversion():
    _run(verify.inversion_formula, 60)


def test_criterion_10_kernel_mass_growth():
    _run(verify.kernel_mass_growth, 120)


def test_criterion_11_verify_all_gate(tmp_path, capsys):
    t0 = time.time()
    out = tmp_path / "verify.csv"
    code = main(["verify-all", "--out", str(out)])
    elapsed = time.time() - t0
    err = capsys.readouterr().err
    print(f"[{'PASS' if code == 0 else 'FAIL'}] verify_all_gate: "
          f"exit={code}  [{elapsed:.1f}s]")
    assert code == 0, err
    assert elapsed <= 600.0
    golden = Path(__file__).parent / "golden" / "verify-all.csv"
    assert out.read_bytes() == golden.read_bytes()
