"""Reference finite-difference stencils for the tests: the per-point form
that the stacked stencils of ``matball.hua`` replace.

Every probe is a separate call of a field ``F`` that maps one n x n point
to one complex value, and every difference is taken where the probe is
made.  The tests compare the library's stencils with these bit for bit.
``stencil_probes`` lists the stacked stencils' probes with one copy of Z
per move, the form that the single probe array of ``matball.hua``
replaces.
"""

import itertools
import math

import numpy as np

from matball.boundary import ball_margin, validate_ball_point
from matball.errors import DomainError, MarginError
from matball.hua import DEFAULT_FD_STEP, HuaResult
from matball.special import SpectralParams


def _require_margin(Z: np.ndarray, h: float, factor: float) -> None:
    margin = ball_margin(Z)
    if margin < factor * h:
        raise MarginError(
            f"finite-difference probes need margin >= {factor}*h = {factor * h}; "
            f"point has margin {margin:.3e}")


def _entry_shift(Z: np.ndarray, entry, axis: str, step: float) -> np.ndarray:
    Zp = Z.copy()
    Zp[entry] += step if axis == "x" else 1j * step
    return Zp


def wirtinger_dbar(F, Z: np.ndarray, h: float = DEFAULT_FD_STEP):
    """Entrywise Wirtinger derivatives dbarF_{ij} = dF/dzbar_{ij} of a
    scalar field by central differences.  Truncation error is O(h^2).
    """
    n = Z.shape[0]
    dbarF = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            fx = (F(_entry_shift(Z, (i, j), "x", h))
                  - F(_entry_shift(Z, (i, j), "x", -h))) / (2.0 * h)
            fy = (F(_entry_shift(Z, (i, j), "y", h))
                  - F(_entry_shift(Z, (i, j), "y", -h))) / (2.0 * h)
            dbarF[i, j] = 0.5 * (fx + 1j * fy)
    return dbarF


def _wirtinger_hessian(F, Z: np.ndarray, h: float) -> np.ndarray:
    """Mixed Wirtinger second derivatives

        H[a, b, q, c] = d^2 F / (dzbar_{ab} dz_{qc})

    via 4-point cross stencils in the real/imaginary parts; each cross
    partial uses f(+,+) - f(+,-) - f(-,+) + f(-,-) over 4 h^2, which remains
    valid when the two entries coincide.
    """
    n = Z.shape[0]

    def cross(u, au, v, bv):
        def f(su, sv):
            return F(_entry_shift(_entry_shift(Z, u, au, su), v, bv, sv))
        return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h)

    H = np.empty((n, n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for q in range(n):
                for c in range(n):
                    u, v = (a, b), (q, c)
                    H[a, b, q, c] = 0.25 * (
                        cross(u, "x", v, "x") - 1j * cross(u, "x", v, "y")
                        + 1j * cross(u, "y", v, "x") + cross(u, "y", v, "y"))
    return H


def hua_apply(p: SpectralParams, F, Z: np.ndarray,
              h: float = DEFAULT_FD_STEP) -> HuaResult:
    """Apply the matrix operator to a scalar field at Z by finite differences.

    With A = I - Z Z*, B = I - Z*Z frozen at Z:

        top_{pq}    =  sum A_{pa} B_{bc} d2F/(dzbar_{ab} dz_{qc})
                       - nu sum A_{pa} (Z*)_{bq} dF/dzbar_{ab}
        bottom_{pq} = -sum A_{ab} B_{cq} d2F/(dz_{ap} dzbar_{bc})
                       + nu sum (Z*)_{pa} B_{bq} dF/dzbar_{ab}
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"finite-difference step must be finite and > 0, got {h}")
    Z = validate_ball_point(Z)
    if Z.shape[0] != p.n:
        raise DomainError(f"ball point size {Z.shape[0]} != rank {p.n}")
    _require_margin(Z, h, 4.0)
    n, nu = p.n, p.nu
    A = np.eye(n) - Z @ Z.conj().T
    B = np.eye(n) - Z.conj().T @ Z
    Zs = Z.conj().T
    dbarF = wirtinger_dbar(F, Z, h)
    H = _wirtinger_hessian(F, Z, h)

    # top: A_{pa} B_{bc} H[a,b,q,c] contracted over a, b, c
    top = np.einsum("pa,bc,abqc->pq", A, B, H)
    if nu != 0:
        top = top - nu * np.einsum("pa,bq,ab->pq", A, Zs, dbarF)

    # bottom second-order part: d2F/(dz_{ap} dzbar_{bc}) = H[b,c,a,p]
    bottom = -np.einsum("ab,cq,bcap->pq", A, B, H)
    if nu != 0:
        bottom = bottom + nu * np.einsum("pa,bq,ab->pq", Zs, B, dbarF)
    return HuaResult(top=top, bottom=bottom)


def stencil_probes(Z: np.ndarray, h: float):
    """The distinct probes of the stacked stencils, one copy of Z per move:
    the 4 n^2 gradient shifts, then the 16 n^4 cross shifts, each added in
    place to its own entry.  Returns the (M, n, n) stack of distinct probes
    in order of first use and, for each move, the index of its probe."""
    n = Z.shape[0]
    entries = list(itertools.product(range(n), repeat=2))
    moves = itertools.chain(
        ([(u, axis, step)] for u in entries for axis in "xy" for step in (h, -h)),
        ([(u, au, su), (v, bv, sv)] for u in entries for v in entries
         for au, bv in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))
         for su, sv in ((h, h), (h, -h), (-h, h), (-h, -h))))
    index, keys = {}, []
    for shifts in moves:
        W = Z
        for entry, axis, step in shifts:
            W = W.copy()
            W[entry] += step if axis == "x" else 1j * step
        keys.append(index.setdefault(W.tobytes(), len(index)))
    points = np.frombuffer(b"".join(index), dtype=complex).reshape(-1, n, n)
    return points, keys
