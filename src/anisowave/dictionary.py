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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import BadIndexError, ScaleMismatchError, WindowTooSmallError
from .lattice import (
    IntMatrix,
    SmithFactorization,
    _as_int,
    _integer_inverse,
    determinant,
    smith_with_target,
)
from .seqcore import (
    CoefSeq,
    Window,
    _analysis,
    _box_hull,
    _box_shape,
    _chain,
    _image_box,
    _lag_box,
    _preimage,
    _refuse_over,
    _seq_box,
    _taps,
    _trimmed,
    cross_qmf_residual,
    tensor,
)

MOMENT_TOL = 1e-10


@dataclass(frozen=True)
class UnivariateQMFSet:
    """Orthogonal filters for one integer scale: filters[0] is the lowpass.

    A set works out its render facts once and keeps them, none as a
    field, so equality ignores them: its trimmed filters, its 1-D
    dilation, and each filter's refinement chain as deep as renders of
    2-D and 3-D banks have asked (``refined``; a 1-D bank's render is its
    one factor and keeps none).  The kept iterates are read-only; one
    kept for a tensor render is no longer than one side of that render's
    window.
    """

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

    @cached_property
    def trimmed_filters(self) -> tuple[CoefSeq, ...]:
        """The filters cut to their nonzero support, computed on first use.

        Renders read these; ``filters`` stay as given for bank filters,
        bank files and config digests, and building a set trims nothing.
        """
        return tuple(f.trimmed() for f in self.filters)

    @cached_property
    def dilation(self) -> IntMatrix:
        """The 1-D dilation [[scale]], built on first use."""
        return IntMatrix(((self.scale,),))

    @cached_property
    def chains(self) -> dict[tuple[int, int], CoefSeq]:
        """The kept iterates of ``refined``, by (filter, step); empty at first."""
        return {}

    def refined(self, e: int, steps: int, cap: int) -> CoefSeq:
        """The steps-th iterate of trimmed_filters[e] under the mask
        trimmed_filters[0] and ``dilation`` (trimmed_filters[e] for 0).

        Iterates are kept in ``chains``, read-only: a request no deeper
        than the kept ones returns one of them, a deeper one resumes
        ``seqcore._chain`` from the last.  Each is that chain's step bit
        for bit, as a chain's next step reads only the previous iterate.
        A kept step over cap cells is refused, as the chain refuses it
        before building it, with the same message.  An e outside
        range(scale) raises ``BadIndexError``, and steps < 0 ``ValueError``.
        """
        if not 0 <= e < self.scale:
            raise BadIndexError(f"no filter with index {e} (scale {self.scale})")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        kept, have = self.chains, steps
        while have and (e, have) not in kept:
            have -= 1
        for k in range(1, have + 1):
            _refuse_over(kept[e, k].data.size, cap)
        c = kept[e, have] if have else self.trimmed_filters[e]
        chain = _chain(c, self.dilation, self.trimmed_filters[0], cap)
        for k, c in zip(range(have + 1, steps + 1), chain):
            c.data.flags.writeable = False
            kept[e, k] = c
        return c

    def qmf_residuals(self) -> dict[tuple[int, int], float]:
        """Residual of every ordered filter pair against the QMF identity."""
        xi = self.dilation
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
    return moment_order_nd(f, tol, cap=f.shape[0] + 2)


def moment_order_nd(f: CoefSeq, tol: float = MOMENT_TOL, cap: int = 16) -> int:
    """Multivariate analogue: moments over all exponents of total degree < n.

    The moments sum over the nonzero taps of f only.
    """
    positions, weights = _taps(f.origin, f.data)
    for k in range(cap):
        expos = _exponents(f.dim, k)
        moments = weights @ _monomials(positions, expos[expos.sum(axis=1) == k])
        if np.any(np.abs(moments) > tol):
            return k
    return cap


@dataclass(frozen=True)
class AnisoFilterBank:
    """Critically sampled QMF filterbank for one dilation matrix.

    filters maps each index eta in Z_sigma1 x ... x Z_sigmas to its
    filter; the all-zero index is the lowpass mask.  The filters are the
    tensor filters of the univariate sets composed with theta1^-1 from
    the stored Smith factorization.  sets holds those univariate sets
    when they are known to build every filter (None otherwise).
    """

    xi: IntMatrix
    fact: SmithFactorization
    sigma: tuple[int, ...]
    filters: Mapping[tuple[int, ...], CoefSeq] = field(repr=False)
    sets: tuple[UnivariateQMFSet, ...] | None = field(default=None, repr=False,
                                                      compare=False)

    @property
    def dim(self) -> int:
        return self.xi.dim

    @property
    def det(self) -> int:
        return abs(determinant(self.xi))

    @property
    def lowpass(self) -> CoefSeq:
        return self.filters[(0,) * self.dim]

    @cached_property
    def frame(self) -> bool:
        """Whether the bank renders in its Smith frame (sets known, theta2
        theta1 = I), worked out once.  Not a field, so equality ignores it."""
        fact = self.fact
        return self.sets is not None and fact.theta2 @ fact.theta1 == IntMatrix.identity(self.dim)

    def indices(self) -> list[tuple[int, ...]]:
        """All filter indices in lexicographic order (lowpass first)."""
        return sorted(self.filters.keys())

    def highpass_indices(self) -> list[tuple[int, ...]]:
        return [eta for eta in self.indices() if any(eta)]

    def filter_at(self, eta: Sequence[int]) -> CoefSeq:
        """The filter of index eta; an entry that is not an integer is a ValueError."""
        key = tuple(map(_as_int, eta))
        if key not in self.filters:
            raise BadIndexError(f"no filter with index {key}")
        return self.filters[key]

    def support_hull(self) -> Window:
        """Smallest box containing every filter's support."""
        return Window(*_box_hull(map(_seq_box, self.filters.values())))

    def residual_matrix(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], float]:
        """Cross-QMF residual for every ordered pair of filters.

        The residual of (eta, eta2) is the sup distance of the lags of
        filter eta correlated with filter eta2 from |det xi| delta at
        eta = eta2 and from zero otherwise (``cross_qmf_residual``).
        The lags are taken in the Smith frame xi = theta1 D theta2: with
        F = f(theta1 .), sum_beta f(beta) g(beta + xi gamma) is
        sum_beta F(beta) G(beta + D theta2 gamma), and theta2 gamma runs
        over all of Z^s, so the pull-backs under D = diag sigma have the
        same lags.  The pull-back permutes the stored nonzero taps
        (theta1^-1 beta, in integers) into one stack over the frame's
        hull; one kernel call correlates that stack, the filters as
        channels, with every filter: the polyphase matrix of the bank
        times its adjoint.  Taps that fill a sheared box (noise, hand
        edits) can pull back into a far larger box; the stored taps are
        correlated under xi instead when the kernel pads them less.
        Every stored number is checked; a NaN makes its residuals NaN.
        """
        indices = self.indices()
        filters = [self.filters[eta] for eta in indices]
        hull = _box_hull(map(_seq_box, filters))
        taps = [np.nonzero(f.data) for f in filters]
        rows = np.repeat(np.arange(len(filters)), [len(nz[0]) for nz in taps])
        positions = np.concatenate([np.transpose(nz) + f.origin for nz, f in zip(taps, filters)])
        frame, dilation = _pull_back(self.fact, positions), IntMatrix.diagonal(self.fact.sigma)
        box = _points_box(frame)
        # tensor-built filters pull back into a box no larger than their own
        if (math.prod(_box_shape(box)) > math.prod(_box_shape(hull))
                and _source_cells(self.xi, hull) < _source_cells(dilation, box)):
            frame, dilation, box = positions, self.xi, hull
        lo = box[0]
        stack = np.zeros((len(filters), *_box_shape(box)))
        stack[(rows, *(frame - lo).T)] = np.concatenate([f.data[nz] for nz, f in zip(taps, filters)])
        lag_lo, lagged = _analysis(lo, stack, dilation, [CoefSeq(lo, row) for row in stack])
        # lagged[k, j] correlates filter j with filter k; the lag box of a
        # stack over the hull always holds the zero lag
        diagonal = np.arange(len(filters))
        lagged[(diagonal, diagonal, *(-o for o in lag_lo))] -= self.det
        gaps = np.abs(lagged).max(axis=tuple(range(2, self.dim + 2)))
        return {(eta, eta2): float(gaps[k, j])
                for j, eta in enumerate(indices) for k, eta2 in enumerate(indices)}


def _pull_back(fact: SmithFactorization, positions: np.ndarray) -> np.ndarray:
    """The (n, s) lattice points theta1^-1 beta of the rows beta of positions."""
    return positions @ np.array(fact.theta1_inverse.entries, dtype=np.int64).T


def _points_box(points: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (lo, hi) box of (n, s) lattice points; the origin's cell for none."""
    if not len(points):
        return ((0,) * points.shape[1],) * 2
    return tuple(points.min(axis=0).tolist()), tuple(points.max(axis=0).tolist())


def _source_cells(xi: IntMatrix, box: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """Cells of the box that ``_analysis`` reads to correlate a stack over
    the box with itself under xi."""
    return math.prod(_box_shape(_image_box(xi, _lag_box(xi, box, box), box)))


def build_bank(xi: IntMatrix, target_sigma: Sequence[int],
               sets: Sequence[UnivariateQMFSet]) -> AnisoFilterBank:
    """Assemble the |det xi| filters for xi from univariate QMF sets.

    target_sigma must be a diagonal with the same Smith normal form as
    xi, and sets[j] must carry scale target_sigma[j].  Each filter is
    the tensor product of one univariate filter per axis, composed with
    theta1^-1 so the bank satisfies the QMF identities for xi itself.
    """
    sigma = tuple(int(t) for t in target_sigma)
    fact = smith_with_target(xi, sigma)
    sets = tuple(sets)
    return AnisoFilterBank(xi, fact, sigma, tensor_filters(fact, sets), sets)


def tensor_filters(fact: SmithFactorization,
                   sets: Sequence[UnivariateQMFSet]) -> dict[tuple[int, ...], CoefSeq]:
    """The filters g_eta(theta1^-1 .) of the sets under the factorization.

    g_eta is the tensor product of filter eta_j of sets[j]; sets[j] must
    carry scale fact.sigma[j].  Under theta1 = I the tensors are the
    filters as they are.  Otherwise every cell b of every tensor, zeros
    and their signs included, is written to theta1 b of one zeroed stack
    over the box of those points, the filters as channels, and one trim
    cuts each channel to its nonzero support, so each filter is bit for
    bit its own ``reindex``.
    """
    sigma = fact.sigma
    if len(sets) != len(sigma):
        raise ScaleMismatchError("one univariate set per diagonal entry required")
    for j, (s_j, uset) in enumerate(zip(sigma, sets)):
        if uset.scale != s_j:
            raise ScaleMismatchError(
                f"set {j} has scale {uset.scale}, diagonal wants {s_j}")
    etas = list(itertools.product(*[range(s_j) for s_j in sigma]))
    tensors = [tensor([sets[j].filters[eta[j]] for j in range(len(sigma))])
               for eta in etas]
    if fact.theta1 != IntMatrix.identity(len(sigma)):
        cells = np.concatenate([np.argwhere(np.ones(g.shape, bool)) + g.origin for g in tensors])
        points = cells @ np.array(fact.theta1.entries, dtype=np.int64).T
        box = _points_box(points)
        stack = np.zeros((len(tensors), *_box_shape(box)))
        rows = np.repeat(np.arange(len(tensors)), [g.data.size for g in tensors])
        stack[(rows, *(points - box[0]).T)] = np.concatenate([g.data.ravel() for g in tensors])
        tensors = _trimmed(box[0], stack)
    return dict(zip(etas, tensors))


@dataclass(frozen=True)
class ReproductionRow:
    exponent: tuple[int, ...]
    detail_max: float
    sum_rule_gap: float


@dataclass(frozen=True)
class ReproductionReport:
    """Polynomial reproduction diagnostics for a bank."""

    degree: int
    window: Window
    rows: tuple[ReproductionRow, ...]

    @property
    def max_detail(self) -> float:
        """Largest detail maximum; NaN when any row holds NaN."""
        return float(np.max([r.detail_max for r in self.rows]))

    @property
    def max_sum_rule_gap(self) -> float:
        """Largest sum-rule gap; NaN when any row holds NaN."""
        return float(np.max([r.sum_rule_gap for r in self.rows]))


def analysis_core(window: Window, xi: IntMatrix, support: Window) -> list[tuple[int, ...]]:
    """Lags gamma whose analysis taps xi*gamma + support stay inside window."""
    return [tuple(g) for g in _core_lags(window, xi, support).tolist()]


def _core_lags(window: Window, xi: IntMatrix, support: Window) -> np.ndarray:
    """``analysis_core`` as an (n, s) integer array, rows in the same order."""
    lo = tuple(wl - sl for wl, sl in zip(window.lo, support.lo))
    hi = tuple(wh - sh for wh, sh in zip(window.hi, support.hi))
    box = None
    if all(l <= h for l, h in zip(lo, hi)):
        box = _preimage(xi, lo, hi)
    if box is None:
        return np.zeros((0, xi.dim), dtype=np.int64)
    lags = np.indices(_box_shape(box), dtype=np.int64).reshape(xi.dim, -1).T + np.array(box[0])
    image = lags @ np.array(xi.entries, dtype=np.int64).T
    return lags[np.all((image >= np.array(lo)) & (image <= np.array(hi)), axis=1)]


def _has_core_lag(window: Window, xi: IntMatrix, support: Window) -> bool:
    """Whether ``analysis_core`` is nonempty, mostly without enumerating it.

    With B = [window.lo - support.lo, window.hi - support.hi], the lag
    gamma = floor(xi^-1 B.hi) is a core lag when xi gamma lies in B, an
    integer test; only when it fails are the lags enumerated.
    """
    lo = [wl - sl for wl, sl in zip(window.lo, support.lo)]
    hi = [wh - sh for wh, sh in zip(window.hi, support.hi)]
    adj, den = _integer_inverse(xi)
    gamma = [sum(a * h for a, h in zip(row, hi)) // den for row in adj]
    if all(l <= x <= h for l, x, h in zip(lo, xi.apply(gamma), hi)):
        return True
    return len(_core_lags(window, xi, support)) > 0


def _exponents(dim: int, degree: int) -> np.ndarray:
    """The exponents of total degree <= degree as (E, dim) rows, in
    lexicographic order."""
    return np.array([expo for expo in itertools.product(range(degree + 1), repeat=dim)
                     if sum(expo) <= degree], dtype=np.int64).reshape(-1, dim)


def _monomials(points: np.ndarray, expos: np.ndarray) -> np.ndarray:
    """(n, E) values x^e of each exponent row e at each point row x."""
    return np.prod(points[:, None, :].astype(np.float64) ** expos, axis=2)


def reproduction_check(bank: AnisoFilterBank, degree: int,
                       window: Window) -> ReproductionReport:
    """Verify that the bank annihilates / reproduces polynomials.

    For every monomial x^alpha of total degree <= degree, the analysis
    details must vanish on the boundary-unaffected core of the window,
    and the lowpass must satisfy the sum rule for alpha.  Both come from
    the stored taps, not from sampled grids.  With the discrete moments
    m_delta(g) = sum_beta g(beta) beta^delta of a highpass filter g over
    its nonzero taps, the detail of x^alpha at a core lag gamma is

        (1 / |det xi|) sum_{delta <= alpha} C(alpha, delta) (xi gamma)^(alpha - delta) m_delta(g),

    what ``mmra.analyze`` of the sampled monomial gives there, up to rounding.
    The sum-rule gap is the spread over the |det xi| cosets rho of
    sum_nu a(xi nu + rho) (xi nu + rho)^alpha for the lowpass a, a coset
    without taps summing to 0; it vanishes when one lowpass subdivision
    step maps every polynomial of degree |alpha| to one.  A NaN tap
    makes the report's maxima NaN.
    """
    xi = bank.xi
    core = _core_lags(window, xi, bank.support_hull())
    if not len(core):
        raise WindowTooSmallError(
            f"window {window.lo}..{window.hi} has no boundary-free core")
    expos = _exponents(bank.dim, degree)
    highpass = [bank.filters[eta] for eta in bank.highpass_indices()]
    moments = np.array([w @ _monomials(p, expos) for p, w in
                        (_taps(g.origin, g.data) for g in highpass)])
    powers = _monomials(core @ np.array(xi.entries, dtype=np.int64).T, expos)

    # beta and beta' share a coset of xi Z^s = theta1 D Z^s exactly when
    # theta1^-1 beta and theta1^-1 beta' agree modulo sigma
    positions, taps = _taps(bank.lowpass.origin, bank.lowpass.data)
    sigma = bank.fact.sigma
    coset = np.ravel_multi_index(tuple((_pull_back(bank.fact, positions) % sigma).T), sigma)
    det = bank.det
    sums = np.zeros((det, len(expos)))
    np.add.at(sums, coset, taps[:, None] * _monomials(positions, expos))

    index = {expo: k for k, expo in enumerate(map(tuple, expos.tolist()))}
    rows = []
    for alpha, k in index.items():
        # the column of (xi gamma)^rest holds C(alpha, delta) m_delta, rest = alpha - delta
        coef = np.zeros((len(highpass), len(expos)))
        for delta in itertools.product(*(range(a + 1) for a in alpha)):
            rest = tuple(a - d for a, d in zip(alpha, delta))
            coef[:, index[rest]] = math.prod(map(math.comb, alpha, delta)) * moments[:, index[delta]]
        details = np.abs((coef @ powers.T) * (1.0 / det))
        rows.append(ReproductionRow(alpha, float(np.max(details)),
                                    float(np.max(sums[:, k]) - np.min(sums[:, k]))))
    return ReproductionReport(degree, window, tuple(rows))
