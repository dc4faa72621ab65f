"""Univariate orthogonal filter families and the anisotropic bank builder.

Ships three univariate sets (Haar, Daubechies order 2, and the ternary
Chui-Lian orthogonal filters) with coefficients materialized from their
closed forms, and assembles multivariate filterbanks for an arbitrary
dilation matrix by tensoring the univariate filters over a compatible
diagonal and reindexing with the unimodular Smith factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import BadIndexError, ScaleMismatchError, WindowTooSmallError
from .lattice import (
    IntMatrix,
    SmithFactorization,
    determinant,
    inverse_unimodular,
    smith_with_target,
)
from .seqcore import (
    CoefSeq,
    Window,
    _image_box,
    _preimage_box,
    _qmf_gap,
    cross_qmf_residual,
    embed,
    polyphase_analysis,
    polyphase_subdivision,
    reindex,
    sample_polynomial,
    tensor,
)

MOMENT_TOL = 1e-10


@dataclass(frozen=True)
class UnivariateQMFSet:
    """Orthogonal filters for one integer scale: filters[0] is the lowpass."""

    scale: int
    filters: tuple[CoefSeq, ...]

    def __post_init__(self):
        if self.scale < 2:
            raise ScaleMismatchError("scale must be >= 2")
        if len(self.filters) != self.scale:
            raise ScaleMismatchError(
                f"need {self.scale} filters, got {len(self.filters)}")
        if any(f.dim != 1 for f in self.filters):
            raise ScaleMismatchError("univariate filters must be 1-D")

    def qmf_residuals(self) -> dict[tuple[int, int], float]:
        """Residual of every ordered filter pair against the QMF identity."""
        xi = IntMatrix.from_rows([[self.scale]])
        return {(k, l): cross_qmf_residual(self.filters[k], self.filters[l], xi, k == l)
                for k in range(self.scale) for l in range(self.scale)}


def haar() -> UnivariateQMFSet:
    """Two-band Haar pair (1, 1) / (1, -1)."""
    g0 = CoefSeq((0,), np.array([1.0, 1.0]))
    g1 = CoefSeq((0,), np.array([1.0, -1.0]))
    return UnivariateQMFSet(2, (g0, g1))


def daubechies2() -> UnivariateQMFSet:
    """Orthogonal two-band filters of order 2, normalized to sum 2."""
    r3 = math.sqrt(3.0)
    g0 = CoefSeq((0,), np.array([1 + r3, 3 + r3, 3 - r3, 1 - r3]) / 4.0)
    g1 = CoefSeq((0,), np.array([1 - r3, -3 + r3, 3 + r3, -1 - r3]) / 4.0)
    return UnivariateQMFSet(2, (g0, g1))


def chui_lian_ternary() -> UnivariateQMFSet:
    """Orthogonal three-band filters with two vanishing moments."""
    r57 = math.sqrt(57.0)
    r2 = math.sqrt(2.0)
    g0 = CoefSeq((0,), np.array(
        [3 + r57, 9 + r57, 15 + r57, 15 - r57, 9 - r57, 3 - r57]) / 18.0)
    g1 = CoefSeq((0,), np.array([-r2 / 2, r2, -r2 / 2, 0.0, 0.0, 0.0]))
    lead = math.sqrt(11.0 - r57) / 144.0
    g2 = CoefSeq((0,), lead * np.array(
        [-21 + r57, -6 - 2 * r57, 9 - 5 * r57, 48 + 8 * r57, 6 + 2 * r57,
         -36 - 4 * r57]))
    return UnivariateQMFSet(3, (g0, g1, g2))


#: named families accepted by the CLI and config files
FAMILIES = {"haar": haar, "db2": daubechies2, "cl3": chui_lian_ternary}


def univariate_sets_from_names(names: Sequence[str]) -> tuple[UnivariateQMFSet, ...]:
    """Resolve named built-in families or JSON files holding custom sets."""
    import os

    sets = []
    for name in names:
        if name in FAMILIES:
            sets.append(FAMILIES[name]())
        elif os.path.isfile(name):
            from .formats import read_json, univariate_set_from_json

            sets.append(read_json(name, univariate_set_from_json))
        else:
            raise ScaleMismatchError(
                f"unknown filter family {name!r} (known: {sorted(FAMILIES)})")
    return tuple(sets)


def moment_order(f: CoefSeq, tol: float = MOMENT_TOL) -> int:
    """Number of leading vanishing discrete moments of a 1-D sequence.

    Largest n such that sum_alpha alpha^k f(alpha) vanishes for all
    k < n; zero when the plain sum is nonzero.
    """
    if f.dim != 1:
        raise ScaleMismatchError("moment_order expects a 1-D sequence")
    positions = np.arange(f.origin[0], f.origin[0] + f.shape[0], dtype=np.float64)
    for k in range(f.shape[0] + 2):
        if abs(float((positions ** k * f.data).sum())) > tol:
            return k
    return f.shape[0] + 2


def moment_order_nd(f: CoefSeq, tol: float = MOMENT_TOL, cap: int = 16) -> int:
    """Multivariate analogue: moments over all exponents of total degree < n."""
    grids = np.meshgrid(*[np.arange(o, o + n, dtype=np.float64)
                          for o, n in zip(f.origin, f.shape)], indexing="ij")
    for k in range(cap):
        for expo in itertools.product(range(k + 1), repeat=f.dim):
            if sum(expo) != k:
                continue
            term = f.data
            for g, e in zip(grids, expo):
                if e:
                    term = term * g ** e
            if abs(float(term.sum())) > tol:
                return k
    return cap


@dataclass(frozen=True)
class AnisoFilterBank:
    """Critically sampled QMF filterbank for one dilation matrix.

    filters maps each index eta in Z_sigma1 x ... x Z_sigmas to its
    filter; the all-zero index is the lowpass mask.  The filters are the
    tensor filters of the univariate sets composed with theta1^-1 from
    the stored Smith factorization.
    """

    xi: IntMatrix
    fact: SmithFactorization
    sigma: tuple[int, ...]
    filters: Mapping[tuple[int, ...], CoefSeq] = field(repr=False)

    @property
    def dim(self) -> int:
        return self.xi.dim

    @property
    def det(self) -> int:
        return abs(determinant(self.xi))

    @property
    def lowpass(self) -> CoefSeq:
        return self.filters[(0,) * self.dim]

    def indices(self) -> list[tuple[int, ...]]:
        """All filter indices in lexicographic order (lowpass first)."""
        return sorted(self.filters.keys())

    def highpass_indices(self) -> list[tuple[int, ...]]:
        return [eta for eta in self.indices() if any(eta)]

    def filter_at(self, eta: Sequence[int]) -> CoefSeq:
        key = tuple(int(e) for e in eta)
        if key not in self.filters:
            raise BadIndexError(f"no filter with index {key}")
        return self.filters[key]

    def support_hull(self) -> Window:
        """Smallest box containing every filter's support."""
        lo = tuple(min(f.origin[i] for f in self.filters.values())
                   for i in range(self.dim))
        hi = tuple(max(f.origin[i] + f.shape[i] - 1 for f in self.filters.values())
                   for i in range(self.dim))
        return Window(lo, hi)

    def residual_matrix(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
        """Cross-QMF residual for every ordered pair of filters."""
        out = {}
        indices = self.indices()
        for eta in indices:
            lagged = polyphase_analysis(self.filters[eta], self.xi,
                                        [self.filters[eta2] for eta2 in indices])
            for eta2, lag in zip(indices, lagged):
                out[(eta, eta2)] = _qmf_gap(lag, self.det, eta == eta2)
        return out


def build_bank(xi: IntMatrix, target_sigma: Sequence[int],
               sets: Sequence[UnivariateQMFSet]) -> AnisoFilterBank:
    """Assemble the |det xi| filters for xi from univariate QMF sets.

    target_sigma must be a diagonal with the same Smith normal form as
    xi, and sets[j] must carry scale target_sigma[j].  Each filter is
    the tensor product of one univariate filter per axis, composed with
    theta1^-1 so the bank satisfies the QMF identities for xi itself.
    """
    sigma = tuple(int(t) for t in target_sigma)
    if len(sets) != len(sigma):
        raise ScaleMismatchError("one univariate set per diagonal entry required")
    for j, (s_j, uset) in enumerate(zip(sigma, sets)):
        if uset.scale != s_j:
            raise ScaleMismatchError(
                f"set {j} has scale {uset.scale}, diagonal wants {s_j}")
    fact = smith_with_target(xi, sigma)
    theta1_inv = inverse_unimodular(fact.theta1)
    identity = theta1_inv == IntMatrix.identity(xi.dim)

    filters: dict[tuple[int, ...], CoefSeq] = {}
    for eta in itertools.product(*[range(s_j) for s_j in sigma]):
        g_eta = tensor([sets[j].filters[eta[j]] for j in range(len(sigma))])
        filters[eta] = g_eta if identity else reindex(g_eta, theta1_inv)
    return AnisoFilterBank(xi, fact, sigma, filters)


@dataclass(frozen=True)
class ReproductionRow:
    exponent: tuple[int, ...]
    detail_max: float
    fit_residual: float


@dataclass(frozen=True)
class ReproductionReport:
    """Polynomial reproduction diagnostics for a bank."""

    degree: int
    window: Window
    rows: tuple[ReproductionRow, ...]

    @property
    def max_detail(self) -> float:
        return max(r.detail_max for r in self.rows)

    @property
    def max_fit_residual(self) -> float:
        return max(r.fit_residual for r in self.rows)


def analysis_core(window: Window, xi: IntMatrix, support: Window) -> list[tuple[int, ...]]:
    """Lags gamma whose analysis taps xi*gamma + support stay inside window."""
    return [tuple(g) for g in _core_lags(window, xi, support).tolist()]


def _core_lags(window: Window, xi: IntMatrix, support: Window) -> np.ndarray:
    """``analysis_core`` as an (n, s) integer array, rows in the same order."""
    lo = tuple(wl - sl for wl, sl in zip(window.lo, support.lo))
    hi = tuple(wh - sh for wh, sh in zip(window.hi, support.hi))
    box = None
    if all(l <= h for l, h in zip(lo, hi)):
        box = _preimage_box(xi, Window(lo, hi))
    if box is None:
        return np.zeros((0, xi.dim), dtype=np.int64)
    shape = tuple(h - l + 1 for l, h in zip(*box))
    lags = np.indices(shape, dtype=np.int64).reshape(xi.dim, -1).T + np.array(box[0])
    image = lags @ np.array(xi.entries, dtype=np.int64).T
    return lags[np.all((image >= np.array(lo)) & (image <= np.array(hi)), axis=1)]


def _subdivision_core(window: Window, xi: IntMatrix, mask: CoefSeq) -> np.ndarray:
    """Output cells of one subdivision step fed only by in-window data.

    A cell qualifies when some mask tap reaches it from a point of the
    window and none reaches it from a point outside.  Subdividing
    indicators counts the (point, tap) pairs reaching each cell.
    Returns the cells as (n, s) integer rows in lexicographic order.
    """
    indicator = CoefSeq(mask.origin, mask.data != 0).trimmed()
    if not indicator.sum():
        raise WindowTooSmallError("empty subdivision output")
    img_lo, img_hi = _image_box(xi, window)
    taps = indicator.window
    # every point whose taps can reach a cell that the window feeds
    near = Window(*_preimage_box(xi, Window(
        tuple(i + t - m for i, t, m in zip(img_lo, taps.lo, mask.window.hi)),
        tuple(i + t - m for i, t, m in zip(img_hi, taps.hi, mask.window.lo)))))
    fed_all = polyphase_subdivision(CoefSeq(near.lo, np.ones(near.shape)), xi, indicator)
    fed_inside = polyphase_subdivision(CoefSeq(window.lo, np.ones(window.shape)), xi,
                                       indicator)
    fed_inside = embed(fed_inside, fed_all.origin, fed_all.window.hi)
    clean = np.argwhere((fed_inside > 0) & (fed_inside == fed_all.data))
    if not len(clean):
        raise WindowTooSmallError("no boundary-free subdivision output cells")
    return clean + np.array(fed_all.origin)


def _fit_polynomial(points: np.ndarray, values: np.ndarray, degree: int) -> float:
    """Max residual of a least-squares polynomial fit of the given degree."""
    dim = points.shape[1]
    scale = max(1.0, float(np.abs(points).max()))
    cols = []
    for expo in itertools.product(range(degree + 1), repeat=dim):
        if sum(expo) > degree:
            continue
        col = np.ones(len(points))
        for d, e in enumerate(expo):
            if e:
                col = col * (points[:, d] / scale) ** e
        cols.append(col)
    vand = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(vand, values, rcond=None)
    return float(np.abs(vand @ coef - values).max())


def reproduction_check(bank: AnisoFilterBank, degree: int,
                       window: Window) -> ReproductionReport:
    """Verify that the bank annihilates / reproduces polynomials.

    For every monomial of total degree <= degree, the analysis details
    must vanish on the boundary-unaffected core of the window, and one
    lowpass subdivision step applied to the samples must stay a
    polynomial of the same degree (reported as a fit residual).
    """
    from . import mmra
    from .subdivision import SubdivisionOp, subdivide

    core = _core_lags(window, bank.xi, bank.support_hull())
    if not len(core):
        raise WindowTooSmallError(
            f"window {window.lo}..{window.hi} has no boundary-free core")
    out_core = _subdivision_core(window, bank.xi, bank.lowpass)

    rows = []
    for expo in itertools.product(range(degree + 1), repeat=bank.dim):
        if sum(expo) > degree:
            continue
        samples = sample_polynomial([(1.0, expo)], window)
        parts = mmra.analyze(bank, samples)
        detail_max = max(float(np.abs(parts[eta].values_at(core)).max())
                         for eta in bank.highpass_indices())

        refined = subdivide(SubdivisionOp.from_bank(bank), samples)
        fit = _fit_polynomial(out_core.astype(np.float64), refined.values_at(out_core),
                              sum(expo))
        rows.append(ReproductionRow(expo, detail_max, fit))
    return ReproductionReport(degree, window, tuple(rows))
