"""Oracles for the bank checks: the routes the library took before it
checked banks from their taps.

``grid_rows`` is the grid check of polynomial reproduction: it samples
every monomial on a window, runs one stacked analysis over all filters
and one lowpass subdivision per monomial, reads the analysis details on
the boundary-free core and fits a polynomial to the refined samples on
the subdivision's boundary-free output cells.  ``direct_residuals`` is
the cross-QMF residual matrix of the stored filters under xi itself,
stacked over their bounding box (no Smith frame).
``dense_moment_order`` sums the moments of a filter over its whole box.
"""

import itertools

import numpy as np

from anisowave.dictionary import _core_lags
from anisowave.errors import WindowTooSmallError
from anisowave.lattice import _integer_inverse
from anisowave.seqcore import (
    CoefSeq,
    _analysis,
    _box_hull,
    _box_shape,
    _image_box,
    _lag_box,
    _seq_box,
    _shifted_views,
    _stacked,
    _taps,
    _values_at,
    polyphase_subdivision,
    sample_polynomial,
)


def subdivision_core(window, xi, mask):
    """Output cells of one subdivision step fed only by in-window data.

    A cell qualifies when some mask tap reaches it from a point of the
    window and none reaches it from a point outside.  A tap
    beta = xi nu + rho (nu = floor(xi^-1 beta)) reaches the cells of
    coset rho only, the cell xi gamma + rho from the point gamma - nu.
    So in coset rho, with N the nu of its taps, the qualifying cells are
    xi gamma + rho for gamma in the box [window.lo + max N,
    window.hi + min N] (componentwise).  Returns the cells as (n, s)
    integer rows in lexicographic order.
    """
    positions, _ = _taps(mask.origin, mask.data)
    if not len(positions):
        raise WindowTooSmallError("empty subdivision output")
    adj, den = _integer_inverse(xi)
    mat = np.array(xi.entries, dtype=np.int64)
    nu = positions @ np.array(adj, dtype=np.int64).T // den
    rho = positions - nu @ mat.T
    order = np.lexsort(rho.T[::-1])
    rho, nu = rho[order], nu[order]
    starts = np.flatnonzero(np.r_[True, np.any(rho[1:] != rho[:-1], axis=1)])
    lo = np.add(window.lo, np.maximum.reduceat(nu, starts))
    shapes = np.add(window.hi, np.minimum.reduceat(nu, starts)) - lo + 1
    image_lo, image_hi = _image_box(xi, window,
                                    (tuple(positions.min(axis=0)), tuple(positions.max(axis=0))))
    clean = np.zeros(_box_shape((image_lo, image_hi)), dtype=bool)
    shifts = lo @ mat.T + rho[starts]
    for shape in set(map(tuple, shapes.tolist())):
        if min(shape) > 0:
            view, rows = _shifted_views(clean, image_lo, xi, (0,) * xi.dim, shape,
                                        shifts[(shapes == shape).all(axis=1)])
            view[rows] = True
    cells = np.argwhere(clean)
    if not len(cells):
        raise WindowTooSmallError("no boundary-free subdivision output cells")
    return cells + np.array(image_lo)


def fit_residual(points, values, degree):
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


def grid_rows(bank, degree, window):
    """(exponent, detail max, lowpass fit residual) for every monomial of
    total degree <= degree, from samples on the window."""
    core = _core_lags(window, bank.xi, bank.support_hull())
    if not len(core):
        raise WindowTooSmallError(
            f"window {window.lo}..{window.hi} has no boundary-free core")
    out_core = subdivision_core(window, bank.xi, bank.lowpass)
    expos = [expo for expo in itertools.product(range(degree + 1), repeat=bank.dim)
             if sum(expo) <= degree]
    samples = np.stack([sample_polynomial([(1.0, expo)], window).data
                        for expo in expos])
    lo, parts = _analysis(window.lo, samples, bank.xi, list(bank.filters.values()))
    highpass = [k for k, eta in enumerate(bank.filters) if any(eta)]
    details = np.abs(_values_at(lo, parts[highpass], core) * (1.0 / bank.det))
    fitted = [polyphase_subdivision([CoefSeq(window.lo, sample)], bank.xi,
                                    [bank.lowpass]).values_at(out_core)
              for sample in samples]
    points = out_core.astype(np.float64)
    return [(expo, float(details[:, k].max()), fit_residual(points, fitted[k], sum(expo)))
            for k, expo in enumerate(expos)]


def direct_cells(bank):
    """Cells of the padded source box the direct residual call reads, per filter."""
    hull = _box_hull(map(_seq_box, bank.filters.values()))
    box = _lag_box(bank.xi, hull, hull)
    return int(np.prod(_box_shape(_image_box(bank.xi, box, hull))))


def direct_residuals(bank):
    """``residual_matrix`` with every lag taken under xi over the filters' hull."""
    indices = bank.indices()
    filters = [bank.filters[eta] for eta in indices]
    hull = _box_hull(map(_seq_box, filters))
    stack = _stacked([(f.origin, f.data) for f in filters], hull)
    lo, lagged = _analysis(hull[0], stack, bank.xi, filters)
    diagonal = np.arange(len(filters))
    lagged[(diagonal, diagonal, *(-o for o in lo))] -= bank.det
    gaps = np.abs(lagged).max(axis=tuple(range(2, bank.dim + 2)))
    return {(eta, eta2): float(gaps[k, j])
            for j, eta in enumerate(indices) for k, eta2 in enumerate(indices)}


def dense_moment_order(f, tol=1e-10, cap=16):
    """``moment_order_nd`` summed over meshgrids of f's whole box."""
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
