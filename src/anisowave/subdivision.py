"""Subdivision operators, cascade sampling of limit functions, and
multiple-subdivision limits.

Iterating a subdivision operator on the pulse produces samples of the
refinable limit function on the grid xi^-r Z^s; wavelet limits use one
highpass step followed by lowpass refinement.  Mixed dilation chains
(one lowpass step per digit, then a refinement tail) sample the jointly
refinable limit functions of a dilation family.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dictionary import AnisoFilterBank
from .errors import (
    BadDigitError,
    DimMismatchError,
    GridMismatchError,
    GridTooLargeError,
)
from .lattice import IntMatrix, determinant, inverse_unimodular
from .seqcore import (
    CoefSeq,
    Window,
    _check_dilation,
    _image_box,
    delta,
    downsample,
    max_abs_diff,
    polyphase_subdivision,
    reindex,
)

DEFAULT_CELL_CAP = 10 ** 8


def _cell_cap(cell_cap: int | None) -> int:
    if cell_cap is not None:
        return int(cell_cap)
    return int(os.environ.get("ANISO_CELL_CAP", DEFAULT_CELL_CAP))


@dataclass(frozen=True)
class SubdivisionOp:
    """Mask plus dilation matrix; application is mask-weighted spreading.

    The mask is a plain sequence: ``subdivide`` hands it to the
    polyphase kernel, which splits its nonzero taps on each call.
    """

    xi: IntMatrix
    mask: CoefSeq = field(repr=False)

    def __post_init__(self):
        _check_dilation(self.mask, self.xi)

    @classmethod
    def from_bank(cls, bank: AnisoFilterBank,
                  eta: Sequence[int] | None = None) -> "SubdivisionOp":
        """Operator of one bank filter (the lowpass by default)."""
        key = (0,) * bank.dim if eta is None else tuple(int(e) for e in eta)
        return cls(bank.xi, bank.filter_at(key))


def subdivide(op: SubdivisionOp, c: CoefSeq) -> CoefSeq:
    """One subdivision step: sum_alpha mask(. - xi alpha) c(alpha)."""
    if c.dim != op.mask.dim:
        raise DimMismatchError(f"data dim {c.dim} != mask dim {op.mask.dim}")
    return polyphase_subdivision(c, op.xi, op.mask)


def _next_cells(op: SubdivisionOp, window: Window) -> int:
    lo, hi = _image_box(op.xi, window)
    mw = op.mask.window
    return math.prod(h - l + 1 + (mh - ml)
                     for l, h, ml, mh in zip(lo, hi, mw.lo, mw.hi))


def _guarded_subdivide(op: SubdivisionOp, c: CoefSeq, cap: int) -> CoefSeq:
    cells = _next_cells(op, c.window)
    if cells > cap:
        raise GridTooLargeError(
            f"refinement would need {cells} cells (cap {cap})")
    return subdivide(op, c)


@dataclass(frozen=True)
class SampledFunction:
    """Limit-function samples: values[i] approximates f(xi_total^-1 (lo+i))."""

    level: int
    xi_total: IntMatrix
    window: Window
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if tuple(self.values.shape) != self.window.shape:
            raise ValueError("value array does not match window shape")

    def as_seq(self) -> CoefSeq:
        return CoefSeq(self.window.lo, self.values)

    def value(self, alpha: Sequence[int]) -> float:
        return self.as_seq().value(alpha)


def _matrix_power(m: IntMatrix, r: int) -> IntMatrix:
    out = IntMatrix.identity(m.dim)
    for _ in range(r):
        out = m @ out
    return out


def _as_sampled(c: CoefSeq, level: int, xi_total: IntMatrix) -> SampledFunction:
    return SampledFunction(level, xi_total, c.window, c.data)


def cascade(op: SubdivisionOp, r: int, cell_cap: int | None = None) -> SampledFunction:
    """Samples of the refinable limit on xi^-r Z^s via r pulse refinements."""
    if r < 0:
        raise ValueError("level must be >= 0")
    cap = _cell_cap(cell_cap)
    c = delta(op.xi.dim)
    for _ in range(r):
        c = _guarded_subdivide(op, c, cap)
    return _as_sampled(c, r, _matrix_power(op.xi, r))


def wavelet_samples(bank: AnisoFilterBank, eta: Sequence[int], r: int,
                    cell_cap: int | None = None) -> SampledFunction:
    """Samples of the wavelet for index eta on the grid xi^-r Z^s.

    One subdivision step with the eta filter followed by r-1 lowpass
    refinements; eta = 0 reproduces the scaling-function cascade.
    """
    if r < 1:
        raise ValueError("wavelet sampling needs r >= 1")
    cap = _cell_cap(cell_cap)
    c = bank.filter_at(eta)
    low = SubdivisionOp.from_bank(bank)
    for _ in range(r - 1):
        c = _guarded_subdivide(low, c, cap)
    return _as_sampled(c, r, _matrix_power(bank.xi, r))


def convergence_diagnostic(op: SubdivisionOp, r_max: int,
                           cell_cap: int | None = None) -> list[float]:
    """Sup-norm gaps d_r between consecutive refinements on nested grids.

    d_r compares level r against level r+1 restricted to the embedded
    coarse grid (alpha vs xi alpha), for r = 1 .. r_max-1.  A uniformly
    convergent scheme sends d_r to zero; growth flags divergence.
    """
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    cap = _cell_cap(cell_cap)
    gaps = []
    prev = _guarded_subdivide(op, delta(op.xi.dim), cap)
    for _ in range(1, r_max):
        nxt = _guarded_subdivide(op, prev, cap)
        gaps.append(max_abs_diff(prev, downsample(nxt, op.xi)))
        prev = nxt
    return gaps


def conjugation_check(bank: AnisoFilterBank, r: int,
                      cell_cap: int | None = None) -> float:
    """Agreement of the bank's scheme with its conjugated diagonal scheme.

    Compares r steps of the bank's lowpass scheme on the pulse against
    the same iteration run with the tensor mask under the dilation
    diag(sigma) . theta2 . theta1, mapped back through theta1.  The two
    sides agree exactly in exact arithmetic, so the return value is
    floating-point noise for a correctly built bank.  The comparison
    covers both supports.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    cap = _cell_cap(cell_cap)
    lhs = delta(bank.dim)
    op = SubdivisionOp.from_bank(bank)
    for _ in range(r):
        lhs = _guarded_subdivide(op, lhs, cap)

    theta1 = bank.fact.theta1
    theta1_inv = inverse_unimodular(theta1)
    h = reindex(bank.lowpass, theta1)
    lam = bank.fact.theta2 @ theta1
    sigma_lam = IntMatrix.diagonal(bank.fact.sigma) @ lam
    rhs = delta(bank.dim)
    conj_op = SubdivisionOp(sigma_lam, h)
    for _ in range(r):
        rhs = _guarded_subdivide(conj_op, rhs, cap)
    return max_abs_diff(lhs, reindex(rhs, theta1_inv))


def multiple_limit(banks: Sequence[AnisoFilterBank], mu: Sequence[int],
                   r_tail: int, cell_cap: int | None = None) -> SampledFunction:
    """Mixed-dilation limit samples for the digit word mu.

    Applies one lowpass step per digit (first digit first) and then
    r_tail refinements with bank 0; the total dilation is
    xi_0^r_tail . xi_{mu_n} ... xi_{mu_1}.
    """
    if r_tail < 0:
        raise ValueError("tail level must be >= 0")
    cap = _cell_cap(cell_cap)
    c = delta(banks[0].dim)
    total = IntMatrix.identity(banks[0].dim)
    for d in mu:
        if not 0 <= d < len(banks):
            raise BadDigitError(f"digit {d} outside range(0, {len(banks)})")
        bank = banks[d]
        c = _guarded_subdivide(SubdivisionOp.from_bank(bank), c, cap)
        total = bank.xi @ total
    tail = SubdivisionOp.from_bank(banks[0])
    for _ in range(r_tail):
        c = _guarded_subdivide(tail, c, cap)
    total = _matrix_power(banks[0].xi, r_tail) @ total
    return _as_sampled(c, r_tail + len(mu), total)


def joint_refinement_residual(banks: Sequence[AnisoFilterBank], j: int,
                              mu: Sequence[int], r_tail: int,
                              cell_cap: int | None = None) -> float:
    """Residual of the joint refinement relation on sampled grids.

    Checks that the limit samples for the word (j, mu) equal the
    lowpass-j combination of the shifted limit samples for mu, the two
    sides being evaluated on the common refined grid.
    """
    if not 0 <= j < len(banks):
        raise BadDigitError(f"digit {j} outside range(0, {len(banks)})")
    coarse = multiple_limit(banks, mu, r_tail, cell_cap)
    fine = multiple_limit(banks, (j,) + tuple(mu), r_tail, cell_cap)
    # sum_gamma lowpass_j(gamma) coarse(. - X gamma) is the subdivision
    # step with dilation X = coarse.xi_total whose mask is the coarse samples
    rhs = polyphase_subdivision(banks[j].lowpass, coarse.xi_total, coarse.as_seq())
    return max_abs_diff(fine.as_seq(), rhs)


def gram_check(f: SampledFunction, g: SampledFunction,
               shift: Sequence[int]) -> float:
    """Riemann-sum approximation of the inner product <f, g(. - shift)>.

    Both inputs must live on the same total-dilation grid; the cell
    volume 1/|det xi_total| weights the sum.
    """
    if f.xi_total != g.xi_total:
        raise GridMismatchError("sampled functions live on different grids")
    d = abs(determinant(f.xi_total))
    offset = f.xi_total.apply(tuple(int(x) for x in shift))
    lo = tuple(max(fl, gl + o) for fl, gl, o in zip(f.window.lo, g.window.lo, offset))
    hi = tuple(min(fh, gh + o) for fh, gh, o in zip(f.window.hi, g.window.hi, offset))
    if any(l > h for l, h in zip(lo, hi)):
        return 0.0
    f_sl = tuple(slice(l - wl, h - wl + 1)
                 for l, h, wl in zip(lo, hi, f.window.lo))
    g_sl = tuple(slice(l - o - wl, h - o - wl + 1)
                 for l, h, o, wl in zip(lo, hi, offset, g.window.lo))
    total = float((f.values[f_sl] * g.values[g_sl]).sum())
    return total / d
