"""Subdivision operators, cascade sampling of limit functions, and
multiple-subdivision limits.

Iterating a subdivision operator on the pulse produces samples of the
refinable limit function on the grid xi^-r Z^s; wavelet limits use one
highpass step followed by lowpass refinement.  Mixed dilation chains
(one lowpass step per digit, then a refinement tail) sample the jointly
refinable limit functions of a dilation family.

``wavelet_samples`` renders a bank whose Smith factorization is a
similarity (diagonal banks included) in its Smith frame, as a tensor
product of 1-D cascades written once into the grid (the conjugation
identity).  All else iterates the polyphase kernel on the full grid,
``conjugation_check`` included, so the identity stays checked.

Every iterate loop here, the 1-D cascades of the tensor route included,
is one refinement chain of the kernel (``seqcore._chain``): it splits
its mask once, and its iterates are bit for bit those of a loop of
``subdivide`` calls.  Sets trim their filters and keep their filters'
1-D chains as deep as renders have asked; banks keep their frame fact
and Smith factorizations theta1^-1, once.  ``subdivide`` stays the
one-step API.
The cell cap ANISO_CELL_CAP is read once per call, by ``_cell_cap``,
and no step may build a grid of more cells.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dictionary import AnisoFilterBank, _points_box, _pull_back
from .errors import BadDigitError, GridMismatchError
from .lattice import IntMatrix, _times, determinant
from .seqcore import (
    Box,
    CoefSeq,
    Window,
    _box_shape,
    _capped_image,
    _chain,
    _check_dilation,
    _image_box,
    _seq_box,
    _taps,
    delta,
    downsample,
    max_abs_diff,
    polyphase_subdivision,
    reindex,
)

DEFAULT_CELL_CAP = 10 ** 8


@dataclass(frozen=True)
class SubdivisionOp:
    """Mask plus dilation matrix; application is mask-weighted spreading.

    The mask is a plain sequence: ``subdivide`` hands it to the
    polyphase kernel, which splits its nonzero taps on each call, and a
    refinement chain splits them once for all of its steps.
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
    return polyphase_subdivision([c], op.xi, [op.mask])


def _cell_cap() -> int:
    """The refinement cell cap: ANISO_CELL_CAP when set, which must be a
    positive integer written in digits, else DEFAULT_CELL_CAP."""
    raw = os.environ.get("ANISO_CELL_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise ValueError(f"ANISO_CELL_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def _refine(c: CoefSeq, xi: IntMatrix, mask: CoefSeq, r: int, cap: int) -> CoefSeq:
    """The r-th iterate of the scheme (xi, mask) from c (c itself for r = 0)."""
    for c in itertools.islice(_chain(c, xi, mask, cap), r):
        pass
    return c


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
    """m^r by repeated squaring of row tuples in Python integers (exact at any size)."""
    power, square = None, m.entries
    while r:
        if r & 1:
            power = square if power is None else _times(power, square)
        r >>= 1
        square = _times(square, square) if r else square
    return IntMatrix.identity(m.dim) if power is None else IntMatrix(power)


def _as_sampled(c: CoefSeq, level: int, xi_total: IntMatrix) -> SampledFunction:
    return SampledFunction(level, xi_total, c.window, c.data)


def cascade(op: SubdivisionOp, r: int) -> SampledFunction:
    """Samples of the refinable limit on xi^-r Z^s via r pulse refinements."""
    if r < 0:
        raise ValueError("level must be >= 0")
    c = _refine(delta(op.xi.dim), op.xi, op.mask, r, _cell_cap())
    return _as_sampled(c, r, _matrix_power(op.xi, r))


def wavelet_samples(bank: AnisoFilterBank, eta: Sequence[int], r: int) -> SampledFunction:
    """Samples of the wavelet for index eta on the grid xi^-r Z^s.

    One subdivision step with the eta filter followed by r-1 lowpass
    refinements; eta = 0 reproduces the scaling-function cascade.  The
    window is the box those steps reach, and no step may exceed
    ANISO_CELL_CAP cells.

    Route: when the bank knows its sets and theta2 theta1 = I (the fact
    ``frame`` it keeps from its first render), every filter is
    g(theta1^-1 .) for a tensor filter g, and the iterate is the tensor
    product of one 1-D cascade per axis (scale sigma_j) composed with
    theta1^-1.  The 1-D cascades are multiplied out once, straight into
    the window's slice over the box of theta1's image of their support,
    in the window's C order (``_tensor_samples``); only a render whose
    image box is the window and every cell of it skips the zero fill.
    Each univariate set keeps its filters' 1-D chains as deep as renders
    have asked, read-only, so a later render of any bank sharing the set
    reuses them; an iterate kept for this route is no longer than one
    side of the window that asked for it.
    The scaling function then matches ``cascade`` of the lowpass to
    rounding (~1e-15), not bit for bit.  Otherwise the r-1 steps run on
    the full grid as one refinement chain: for non-similar banks, for
    banks read without trustworthy sets, and if the tensor support would
    not map into the window.
    ``conjugation_check`` never takes this route: it iterates the
    bank's scheme through the kernel, so the identity the route relies
    on stays checked rather than assumed.
    """
    if r < 1:
        raise ValueError("wavelet sampling needs r >= 1")
    c = bank.filter_at(eta)
    cap = _cell_cap()
    total = _matrix_power(bank.xi, r)
    if bank.frame:
        box = _seq_box(c)
        hull = _seq_box(bank.lowpass)
        for _ in range(r - 1):
            box = _capped_image(bank.xi, box, hull, cap)
        window = Window(*box)
        values = _tensor_samples(bank, tuple(int(e) for e in eta), r, window, cap)
        if values is not None:
            return SampledFunction(r, total, window, values)
    return _as_sampled(_refine(c, bank.xi, bank.lowpass, r - 1, cap), r, total)


def _tensor_samples(bank: AnisoFilterBank, eta: tuple[int, ...], r: int,
                    window: Window, cap: int) -> np.ndarray | None:
    """The level-r iterate of filter eta over window, built in the Smith frame.

    Axis j runs the 1-D cascade f_j of filter eta_j of bank.sets[j] with
    r-1 lowpass steps of dilation sigma_j: one refinement chain per axis
    (``seqcore._chain``), from the sets' trimmed filters and dilations.
    Each set keeps its filters' chains as deep as renders have asked
    (``UnivariateQMFSet.refined``), so a factor already built is read
    back, read-only, not run again; when the route is taken, it is no
    longer than one side of the window.
    With B their frame box, out(theta1 b) = f_1(b_1) ... f_s(b_s): each
    f_j is read through a view over the box I of theta1 B whose element
    strides are row j of theta1^-1, and the views are multiplied, in
    order, into I's slice of the window, in the window's C order.  Cells
    of I off theta1 B read a padded +0.0 and end +0.0, as in a zeroed
    window.  Such cells lie only in the leading and trailing rows of I
    along axis 0: the rows between, whose whole cross-section lies in
    theta1 B (``_inner_rows``), take the plain product.  On the edge
    rows +0.0 is added after the product, or, when an in-support product
    can be 0, inf or NaN, only their cells of theta1 B are multiplied.
    A window that is I, with as many cells as B (theta1 = I or a signed
    permutation), is not zeroed first.  Returns None unless theta1 maps
    every corner of B into the window, checked on I in integer
    tuples: a slice of the window past its edge would be clipped silently.
    """
    factors = [uset.refined(e, r - 1, cap) for uset, e in zip(bank.sets, eta)]
    lo = tuple(u.origin[0] for u in factors)
    hi = tuple(l + len(u.data) - 1 for l, u in zip(lo, factors))
    zero = ((0,) * bank.dim,) * 2
    image = _image_box(bank.fact.theta1, (lo, hi), zero)
    if not all(a <= b for a, b in zip(window.lo + image[1], image[0] + window.hi)):
        return None
    cells = math.prod(len(u.data) for u in factors)
    full = image == (window.lo, window.hi) and window.cells == cells
    out = (np.empty if full else np.zeros)(window.shape)
    box = out[tuple(slice(a - w, b - w + 1) for a, b, w in zip(*image, window.lo))]
    inverse = bank.fact.theta1_inverse
    (starts, stops), at = _image_box(inverse, image, zero), inverse.apply(image[0])

    def along(j, values):  # f_j's view over I, zero (False) off its support
        padded = np.zeros(stops[j] - starts[j] + 1, dtype=values.dtype)
        padded[lo[j] - starts[j]:hi[j] - starts[j] + 1] = values
        size = padded.itemsize
        return np.ndarray(box.shape, padded.dtype, padded, size * (at[j] - starts[j]),
                          tuple(size * a for a in inverse.entries[j]))
    views = [along(j, u.data) for j, u in enumerate(factors)]

    def product(rows, where=True):  # the views' product over rows of I
        part = box[rows]
        np.multiply(views[0][rows], views[1][rows] if len(views) > 1 else 1.0,
                    out=part, where=where)
        for view in views[2:]:
            np.multiply(part, view[rows], out=part, where=where)
        return part

    a, b = _inner_rows(inverse, image, (lo, hi))
    product(slice(a, b))
    edges = [rows for rows in (slice(0, a), slice(b, box.shape[0])) if rows.start < rows.stop]
    if edges:
        # rounding is monotone: the products of each factor's least and
        # greatest magnitudes bound those of every cell of theta1 B
        mags = [np.abs(u.data) for u in factors]
        clear_signs = (0 < math.prod(float(m.min()) for m in mags)
                       and math.prod(float(m.max()) for m in mags) < math.inf)
        for rows in edges:
            if clear_signs:
                part = product(rows)
                np.add(part, 0.0, out=part)
            else:
                product(rows, np.logical_and.reduce([
                    along(j, np.ones(len(u.data), dtype=bool))[rows]
                    for j, u in enumerate(factors)]))
    return out


def _inner_rows(inverse: IntMatrix, image: Box, frame: Box) -> tuple[int, int]:
    """The rows [a, b) of the box image, counted along axis 0 from its
    first, whose whole cross-section inverse maps into the frame box.

    Row t's cross-section maps into the frame box when, for each row
    (c, rest) of inverse, c t plus the least and the greatest value of
    rest over the cross-section's other axes stays inside the frame on
    that axis: two integer bounds on t per row.  a == b when no row does.
    """
    (first, *others), (last, *ends) = image
    low, high = _image_box(inverse, ((0, *others), (0, *ends)), ((0,) * len(image[0]),) * 2)
    t_lo, t_hi = first, last
    for (c, *_), l, h, f_lo, f_hi in zip(inverse.entries, low, high, *frame):
        # f_lo <= c t + l and c t + h <= f_hi
        if c > 0:
            t_lo, t_hi = max(t_lo, -((l - f_lo) // c)), min(t_hi, (f_hi - h) // c)
        elif c < 0:
            t_lo, t_hi = max(t_lo, -((f_hi - h) // -c)), min(t_hi, (l - f_lo) // -c)
        elif not (f_lo <= l and h <= f_hi):
            return 0, 0
    a = min(t_lo, last + 1) - first
    return a, max(a, t_hi + 1 - first)


def convergence_diagnostic(op: SubdivisionOp, r_max: int) -> list[float]:
    """Sup-norm gaps d_r between consecutive refinements on nested grids.

    d_r compares level r against level r+1 restricted to the embedded
    coarse grid (alpha vs xi alpha), for r = 1 .. r_max-1.  A uniformly
    convergent scheme sends d_r to zero; growth flags divergence.
    """
    if r_max < 2:
        raise ValueError("need r_max >= 2")
    gaps = []
    chain = _chain(delta(op.xi.dim), op.xi, op.mask, _cell_cap())
    prev = next(chain)
    for nxt in itertools.islice(chain, r_max - 1):
        gaps.append(max_abs_diff(prev, downsample(nxt, op.xi)))
        prev = nxt
    return gaps


def conjugation_check(bank: AnisoFilterBank, r: int) -> float:
    """Agreement of the bank's scheme with its conjugated diagonal scheme.

    Compares r steps of the bank's lowpass scheme on the pulse against
    the same iteration run with the tensor mask under the dilation
    diag(sigma) . theta2 . theta1, mapped back through theta1.  The two
    sides agree exactly in exact arithmetic, so the return value is
    floating-point noise for a correctly built bank.  The comparison
    covers both supports.  The conjugated mask h = lowpass(theta1 .) is
    built from the lowpass's taps pulled back to theta1^-1 beta
    (``dictionary._pull_back``), over the box of those points alone:
    the taps, box and values of ``reindex(lowpass, theta1)``, without
    its lag box.  That box is the grid of the chain's first step; the
    chain from h and the lag box theta1 R of its last iterate are sized
    before anything is built, against the cap.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    cap = _cell_cap()
    theta1 = bank.fact.theta1
    sigma_lam = IntMatrix.diagonal(bank.fact.sigma) @ bank.fact.theta2 @ theta1
    positions, weights = _taps(bank.lowpass.origin, bank.lowpass.data)
    points = _pull_back(bank.fact, positions)
    box = zero = ((0,) * bank.dim,) * 2
    hull = _points_box(points)
    for _ in range(r):
        box = _capped_image(sigma_lam, box, hull, cap)
    _capped_image(theta1, box, zero, cap)
    h = np.zeros(_box_shape(hull))
    h[tuple((points - hull[0]).T)] = weights
    lhs = _refine(delta(bank.dim), bank.xi, bank.lowpass, r, cap)
    rhs = _refine(delta(bank.dim), sigma_lam, CoefSeq(hull[0], h), r, cap)
    return max_abs_diff(lhs, reindex(rhs, bank.fact.theta1_inverse))


def multiple_limit(banks: Sequence[AnisoFilterBank], mu: Sequence[int],
                   r_tail: int) -> SampledFunction:
    """Mixed-dilation limit samples for the digit word mu.

    Applies one lowpass step per digit (first digit first) and then
    r_tail refinements with bank 0; the total dilation is
    xi_0^r_tail . xi_{mu_n} ... xi_{mu_1}.
    """
    if r_tail < 0:
        raise ValueError("tail level must be >= 0")
    cap = _cell_cap()
    c = delta(banks[0].dim)
    total = IntMatrix.identity(banks[0].dim)
    for d in mu:
        if not 0 <= d < len(banks):
            raise BadDigitError(f"digit {d} outside range(0, {len(banks)})")
        bank = banks[d]
        c = _refine(c, bank.xi, bank.lowpass, 1, cap)
        total = bank.xi @ total
    c = _refine(c, banks[0].xi, banks[0].lowpass, r_tail, cap)
    total = _matrix_power(banks[0].xi, r_tail) @ total
    return _as_sampled(c, r_tail + len(mu), total)


def joint_refinement_residual(banks: Sequence[AnisoFilterBank], j: int,
                              mu: Sequence[int], r_tail: int) -> float:
    """Residual of the joint refinement relation on sampled grids.

    Checks that the limit samples for the word (j, mu) equal the
    lowpass-j combination of the shifted limit samples for mu, the two
    sides being evaluated on the common refined grid.
    """
    if not 0 <= j < len(banks):
        raise BadDigitError(f"digit {j} outside range(0, {len(banks)})")
    coarse = multiple_limit(banks, mu, r_tail)
    fine = multiple_limit(banks, (j,) + tuple(mu), r_tail)
    # sum_gamma lowpass_j(gamma) coarse(. - X gamma) is the subdivision
    # step with dilation X = coarse.xi_total whose mask is the coarse samples
    rhs = polyphase_subdivision([banks[j].lowpass], coarse.xi_total, [coarse.as_seq()])
    return max_abs_diff(fine.as_seq(), rhs)


def gram_check(f: SampledFunction, g: SampledFunction,
               shift: Sequence[int]) -> float:
    """Riemann-sum approximation of the inner product <f, g(. - shift)>.

    Both inputs must live on the same total-dilation grid; the cell
    volume 1/|det xi_total| weights the sum.  A sum of samples is no
    certificate: a bank whose samples do not converge to its limit can
    read orthonormal when it is not (the stretched Haar set (1, 0, 0, 1)
    tensored with cl3 reads <phi, phi> = 1.0; the exact value is 1/3).
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
