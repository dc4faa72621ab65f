"""Finitely supported multivariate sequences and multirate lattice operations.

A ``CoefSeq`` stores a dense array over an integer support box together
with the box's lowest corner; lookups outside the box are zero.  The
operations here (convolution, correlation, lattice up/downsampling,
unimodular reindexing, tensor products) are the raw material for masks,
filters and signals alike.

Every lattice operation runs through one polyphase kernel with two
directions.  Filters and masks are passed as plain sequences; the kernel
splits each into its nonzero taps on every call.  A tap
beta = xi nu + rho of a filter belongs to the phase f_rho of the coset
rho + xi Z^s; in a dense array the points xi gamma + beta form a
strided view, so analysis (``polyphase_analysis``: correlate, then keep
the lags on xi Z^s) reads one such view per tap, and subdivision
(``polyphase_subdivision``: spread onto xi Z^s, then convolve) adds into
one per tap.  Every multiply-add pairs a nonzero tap with a sample on
the coarse lattice: nothing is computed and then thrown away, and no
upsampled grid of zeros is built.  The public operations are special
cases: ``convolve`` is subdivision with xi = I, ``upsample`` is
subdivision with the pulse as mask, and ``downsample`` and ``reindex``
are analysis with the pulse as the only filter.  Only numpy is needed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimMismatchError, NotUnimodularError, SingularMatrixError
from .lattice import IntMatrix, determinant, is_unimodular, rational_inverse

Vec = tuple[int, ...]


@dataclass(frozen=True)
class Window:
    """Inclusive integer box [lo, hi] in Z^s."""

    lo: Vec
    hi: Vec

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("window corners must share dimension")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty window {self.lo}..{self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Vec:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def cells(self) -> int:
        return math.prod(self.shape)

    def contains(self, point: Sequence[int]) -> bool:
        return all(l <= p <= h for l, p, h in zip(self.lo, point, self.hi))

    def points(self):
        return itertools.product(*[range(l, h + 1) for l, h in zip(self.lo, self.hi)])


class CoefSeq:
    """Finitely supported real sequence on Z^s (dense box storage)."""

    __slots__ = ("origin", "data")

    def __init__(self, origin: Sequence[int], data: np.ndarray):
        data = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if data.ndim != len(origin):
            raise ValueError("origin length must match array rank")
        self.origin: Vec = tuple(int(x) for x in origin)
        self.data = data

    @property
    def dim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> Vec:
        return self.data.shape

    @property
    def window(self) -> Window:
        return Window(self.origin,
                      tuple(o + n - 1 for o, n in zip(self.origin, self.shape)))

    def value(self, alpha: Sequence[int]) -> float:
        idx = tuple(int(a) - o for a, o in zip(alpha, self.origin))
        if any(i < 0 or i >= n for i, n in zip(idx, self.shape)):
            return 0.0
        return float(self.data[idx])

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """``value`` at every row of an (n, dim) integer array."""
        rel = np.asarray(points, dtype=np.int64) - np.asarray(self.origin)
        inside = np.all((rel >= 0) & (rel < np.asarray(self.shape)), axis=1)
        out = np.zeros(len(rel))
        out[inside] = self.data[tuple(rel[inside].T)]
        return out

    def scaled(self, factor: float) -> "CoefSeq":
        return CoefSeq(self.origin, self.data * factor)

    def reversed(self) -> "CoefSeq":
        """The sequence alpha -> value(-alpha)."""
        flipped = self.data[tuple(slice(None, None, -1) for _ in range(self.dim))]
        origin = tuple(-(o + n - 1) for o, n in zip(self.origin, self.shape))
        return CoefSeq(origin, flipped.copy())

    def trimmed(self) -> "CoefSeq":
        """Shrink the box to the exact nonzero support (keeps one cell if all zero)."""
        nz = self.data != 0
        if not nz.any():
            return CoefSeq((0,) * self.dim, np.zeros((1,) * self.dim))
        axes = range(self.dim)
        hits = [np.flatnonzero(nz.any(axis=tuple(b for b in axes if b != a)))
                for a in axes]
        sl = tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)
        origin = tuple(o + s.start for o, s in zip(self.origin, sl))
        return CoefSeq(origin, self.data[sl].copy())

    def sum(self) -> float:
        return float(self.data.sum())

    def linf(self) -> float:
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def l2(self) -> float:
        return float(np.sqrt((self.data ** 2).sum()))

    def __repr__(self):
        return f"CoefSeq(dim={self.dim}, origin={self.origin}, shape={self.shape})"


def delta(s: int) -> CoefSeq:
    """The pulse: 1 at the origin of Z^s, 0 elsewhere."""
    if s < 1:
        raise ValueError("dimension must be >= 1")
    data = np.zeros((1,) * s)
    data[(0,) * s] = 1.0
    return CoefSeq((0,) * s, data)


def _check_dims(a: CoefSeq, b: CoefSeq):
    if a.dim != b.dim:
        raise DimMismatchError(f"dimensions {a.dim} and {b.dim} differ")


def convolve(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    """(a*b)(gamma) = sum_alpha a(alpha) b(gamma - alpha): subdivision with xi = I."""
    _check_dims(a, b)
    return polyphase_subdivision(a, IntMatrix.identity(a.dim), b)


def correlate(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    """(a x b)(gamma) = sum_alpha a(alpha) b(alpha - gamma)."""
    return convolve(a, b.reversed())


@functools.lru_cache(maxsize=256)
def _integer_inverse(m: IntMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, den) with m^-1 = adj / den and den = |det m| > 0; once per matrix."""
    d = determinant(m)
    if d == 0:
        raise SingularMatrixError("dilation matrix is singular")
    inv = rational_inverse(m)
    adj = tuple(tuple(int(x * abs(d)) for x in row) for row in inv.entries)
    return adj, abs(d)


def _preimage_box(m: IntMatrix, window: Window) -> tuple[Vec, Vec] | None:
    """Integer bounding box of m^-1 applied to the window (None if empty)."""
    adj, den = _integer_inverse(m)
    corners = [tuple(sum(a * x for a, x in zip(row, c)) for row in adj)
               for c in itertools.product(*zip(window.lo, window.hi))]
    lo = tuple(-(-min(c[i] for c in corners) // den) for i in range(m.dim))
    hi = tuple(max(c[i] for c in corners) // den for i in range(m.dim))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    return lo, hi


def _image_box(m: IntMatrix, window: Window) -> tuple[Vec, Vec]:
    """Integer bounding box of m applied to the window."""
    lo = tuple(sum(min(a * l, a * h) for a, l, h in zip(row, window.lo, window.hi))
               for row in m.entries)
    hi = tuple(sum(max(a * l, a * h) for a, l, h in zip(row, window.lo, window.hi))
               for row in m.entries)
    return lo, hi


def _shifted_views(arr: np.ndarray, lo: Sequence[int], m: IntMatrix,
                   box_lo: Sequence[int], shape: Sequence[int],
                   shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strided views of the lattice points m (box_lo + i) + shifts[k] of arr.

    arr is a C-contiguous array over the box with lowest corner lo.
    Returns (view, rows): view[rows[k]][i] is the cell of arr at
    m (box_lo + i) + shifts[k].  Every such point must lie in arr's box
    (numpy refuses a view reaching outside arr's buffer).  No index
    arrays are built: the map i -> m i is the stride vector m^T e,
    where e holds arr's element strides.
    """
    e = np.asarray(arr.strides, dtype=np.int64) // arr.itemsize
    mat = np.asarray(m.entries, dtype=np.int64)
    base = int((mat @ np.asarray(box_lo, dtype=np.int64)
                - np.asarray(lo, dtype=np.int64)) @ e)
    offsets = np.asarray(shifts, dtype=np.int64).reshape(-1, m.dim) @ e + base
    first = int(offsets.min())
    steps = (mat.T @ e) * arr.itemsize
    view = np.ndarray((int(offsets.max()) - first + 1, *shape), dtype=arr.dtype,
                      buffer=arr, offset=first * arr.itemsize,
                      strides=(arr.itemsize, *(int(x) for x in steps)))
    return view, offsets - first


def _check_dilation(c: CoefSeq, xi: IntMatrix):
    if xi.dim != c.dim:
        raise DimMismatchError(f"matrix dim {xi.dim} != sequence dim {c.dim}")
    if determinant(xi) == 0:
        raise SingularMatrixError("dilation matrix is singular")


def downsample(c: CoefSeq, xi: IntMatrix) -> CoefSeq:
    """Keep the sublattice samples: result(alpha) = c(xi alpha)."""
    _check_dilation(c, xi)
    return polyphase_analysis(c, xi, [delta(c.dim)])[0]


def upsample(c: CoefSeq, xi: IntMatrix) -> CoefSeq:
    """Spread onto the sublattice: result(xi alpha) = c(alpha), zero off it."""
    _check_dilation(c, xi)
    return polyphase_subdivision(c, xi, delta(c.dim))


def reindex(c: CoefSeq, theta: IntMatrix) -> CoefSeq:
    """Unimodular change of variables: result(alpha) = c(theta alpha)."""
    if theta.dim != c.dim:
        raise DimMismatchError(f"matrix dim {theta.dim} != sequence dim {c.dim}")
    if not is_unimodular(theta):
        raise NotUnimodularError("reindexing requires a unimodular matrix")
    return polyphase_analysis(c, theta, [delta(c.dim)])[0]


def tensor(factors: Sequence[CoefSeq]) -> CoefSeq:
    """Tensor product of univariate sequences: h(alpha) = prod h_j(alpha_j)."""
    if not factors:
        raise ValueError("tensor needs at least one factor")
    if any(f.dim != 1 for f in factors):
        raise DimMismatchError("tensor factors must be one-dimensional")
    data = factors[0].data
    for f in factors[1:]:
        data = np.multiply.outer(data, f.data)
    origin = tuple(f.origin[0] for f in factors)
    return CoefSeq(origin, data)


# -- the polyphase multirate kernel -----------------------------------------

#: cells of stacked shifted copies that one analysis step may hold at once
_STACK_CELLS = 1 << 20


def _taps(f: CoefSeq) -> tuple[np.ndarray, np.ndarray]:
    """(positions, weights) of the nonzero taps of f.

    positions[k] is the lattice point beta_k of the k-th nonzero tap and
    weights[k] its value.  Grouped by the coset of beta under a dilation
    xi, the taps are the filter's polyphase components
    f_rho(nu) = f(xi nu + rho).
    """
    nz = f.data != 0
    return np.argwhere(nz) + np.asarray(f.origin, dtype=np.int64), f.data[nz]


def polyphase_analysis(c: CoefSeq, xi: IntMatrix,
                       filters: Sequence[CoefSeq]) -> list[CoefSeq]:
    """The correlation of c with each filter f, kept on the lags xi Z^s.

    Component(gamma) = sum_beta f(beta) c(xi gamma + beta)
    = sum_rho (c_rho x f_rho)(gamma): each tap beta = xi nu + rho reads
    the phase c_rho(mu) = c(xi mu + rho), shifted by nu, as a strided
    view of c.  The lags run over one box holding every lag of every
    filter, and each result is trimmed to its nonzero support.
    """
    s, cw = c.dim, c.window
    hull_lo = tuple(min(f.origin[i] for f in filters) for i in range(s))
    hull_hi = tuple(max(f.origin[i] + f.shape[i] - 1 for f in filters) for i in range(s))
    box = _preimage_box(xi, Window(tuple(a - b for a, b in zip(cw.lo, hull_hi)),
                                   tuple(a - b for a, b in zip(cw.hi, hull_lo))))
    if box is None:
        return [CoefSeq((0,) * s, np.zeros((1,) * s)) for _ in filters]
    lo, hi = box
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    img_lo, img_hi = _image_box(xi, Window(lo, hi))
    src_lo = tuple(a + b for a, b in zip(img_lo, hull_lo))
    src = embed(c, src_lo, tuple(a + b for a, b in zip(img_hi, hull_hi)))
    cells = math.prod(shape)
    chunk = max(1, _STACK_CELLS // cells)
    out = []
    for f in filters:
        positions, weights = _taps(f)
        acc = np.zeros(cells)
        if len(weights):
            view, rows = _shifted_views(src, src_lo, xi, lo, shape, positions)
            for k in range(0, len(weights), chunk):
                stack = view[rows[k:k + chunk]].reshape(-1, cells)
                acc += weights[k:k + chunk] @ stack
        out.append(CoefSeq(lo, acc.reshape(shape)).trimmed())
    return out


def polyphase_subdivision(c: CoefSeq, xi: IntMatrix, mask: CoefSeq) -> CoefSeq:
    """c spread onto xi Z^s and convolved with the mask, computed polyphase.

    out(beta) = sum_alpha mask(beta - xi alpha) c(alpha), so
    out(xi gamma + rho) = (m_rho * c)(gamma): each mask tap
    beta = xi nu + rho adds beta's weight times c into the strided view
    of the output at xi alpha + beta, which lies in coset rho.  The
    loop runs over the operand with fewer nonzeros: when c has fewer
    than the mask (a few samples spread by a large dilation), each
    nonzero c(alpha) adds a scaled copy of the mask at xi alpha
    instead.  The output box is the image box of c's window widened by
    the mask window, untrimmed.
    """
    img_lo, img_hi = _image_box(xi, c.window)
    lo = tuple(a + b for a, b in zip(img_lo, mask.window.lo))
    hi = tuple(a + b for a, b in zip(img_hi, mask.window.hi))
    out = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)))
    if np.count_nonzero(c.data) < np.count_nonzero(mask.data):
        positions, weights = _taps(c)
        shifts = positions @ np.asarray(xi.entries, dtype=np.int64).T
        src, step = mask, IntMatrix.identity(c.dim)
    else:
        shifts, weights = _taps(mask)
        src, step = c, xi
    if len(weights):
        view, rows = _shifted_views(out, lo, step, src.origin, src.shape, shifts)
        scaled = np.empty(src.shape)
        for row, w in zip(rows, weights):
            target = view[row]
            target += np.multiply(src.data, w, out=scaled)
    return CoefSeq(lo, out)


def qmf_residual(a: CoefSeq, xi: IntMatrix) -> float:
    """Deviation of a mask from the orthonormality (QMF) identity.

    Computes max over lattice lags gamma of
    |sum_alpha a(alpha) a(alpha - xi gamma) - |det xi| delta(gamma)|;
    zero means the mask is orthonormal for the dilation xi.
    """
    return cross_qmf_residual(a, a, xi, same=True)


def cross_qmf_residual(b: CoefSeq, b2: CoefSeq, xi: IntMatrix, same: bool) -> float:
    """Deviation of a filter pair from |det xi| . delta_{same} . delta."""
    _check_dims(b, b2)
    _check_dilation(b, xi)
    return _qmf_gap(polyphase_analysis(b, xi, [b2])[0], abs(determinant(xi)), same)


def _qmf_gap(lagged: CoefSeq, det: int, same: bool) -> float:
    """Sup distance of the lagged correlation of a filter pair from its QMF target.

    lagged(gamma) = sum_alpha b(alpha) b2(alpha - xi gamma); the target
    is det at gamma = 0 when the pair is one filter twice, else zero.
    """
    if not same:
        return lagged.linf()
    arr = lagged.data.copy()
    idx = tuple(-o for o in lagged.origin)
    if all(0 <= i < n for i, n in zip(idx, lagged.shape)):
        arr[idx] -= det
        return float(np.abs(arr).max())
    return max(lagged.linf(), float(det))


def sample_polynomial(terms: Iterable[tuple[float, Sequence[int]]],
                      window: Window) -> CoefSeq:
    """Restrict a polynomial sum(coef * x^expo) to the integer window."""
    grids = np.meshgrid(*[np.arange(l, h + 1, dtype=np.float64)
                          for l, h in zip(window.lo, window.hi)], indexing="ij")
    out = np.zeros(window.shape)
    for coef, expo in terms:
        term = np.full(window.shape, float(coef))
        for g, e in zip(grids, expo):
            if e:
                term = term * g ** int(e)
        out += term
    return CoefSeq(window.lo, out)


# -- value-aligned arithmetic helpers ---------------------------------------

def _union_box(a: CoefSeq, b: CoefSeq) -> tuple[Vec, Vec]:
    lo = tuple(min(x, y) for x, y in zip(a.origin, b.origin))
    hi = tuple(max(x + n - 1, y + m - 1)
               for x, n, y, m in zip(a.origin, a.shape, b.origin, b.shape))
    return lo, hi


def embed(c: CoefSeq, lo: Vec, hi: Vec) -> np.ndarray:
    """Dense copy of c on the box [lo, hi] (zero padded, cropped to the box)."""
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    out = np.zeros(shape)
    a = [max(o, l) for o, l in zip(c.origin, lo)]
    b = [min(o + n, l + m) for o, n, l, m in zip(c.origin, c.shape, lo, shape)]
    if all(x < y for x, y in zip(a, b)):
        out[tuple(slice(x - l, y - l) for x, y, l in zip(a, b, lo))] = \
            c.data[tuple(slice(x - o, y - o) for x, y, o in zip(a, b, c.origin))]
    return out


def seq_add(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    _check_dims(a, b)
    lo, hi = _union_box(a, b)
    return CoefSeq(lo, embed(a, lo, hi) + embed(b, lo, hi))


def seq_sub(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    _check_dims(a, b)
    lo, hi = _union_box(a, b)
    return CoefSeq(lo, embed(a, lo, hi) - embed(b, lo, hi))


def max_abs_diff(a: CoefSeq, b: CoefSeq) -> float:
    """Sup-norm distance treating both sequences as elements of l(Z^s)."""
    return seq_sub(a, b).linf()
