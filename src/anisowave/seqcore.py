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
one per tap.  The two directions are adjoint: analysis takes every
filter of a bank in one call, and subdivision sums every (component,
filter) pair into one output in one call.  Like a polyphase filterbank,
a call works per tap for all of its operands at once: analysis gathers
the view of each tap of the filters' union once and takes every
filter's lags from that one stack, and subdivision combines all parts
at each tap of the masks' union with one product and adds them into
the output with one strided add.  Every multiply-add pairs a tap with a
sample on the coarse lattice: nothing is computed and then thrown away,
and no upsampled grid of zeros is built.  The public operations are
special cases with one operand: ``convolve`` is subdivision with
xi = I, ``upsample`` is subdivision with the pulse as mask, and
``downsample`` and ``reindex`` are analysis with the pulse as the only
filter.  The box of a step is computed here only, on plain (lo, hi)
tuples; a ``Window`` unpacks as one, so other modules call the box
helpers directly.  Padding, point reads, strided views and strided adds
have one routine each: ``_stacked``, ``_read``, ``_shifted_views`` and
``_add_taps``.  Only numpy is needed.

Iterating one scheme (a cascade, a render, a diagnostic) is a refinement
chain: ``_chain`` yields the successive iterates of one (xi, mask) pair,
splits the mask's taps once for the whole chain, walks each step's box
in Python integers and refuses a step over the cell cap before it
allocates.  Every subdivision pair, in a chain step or in a
``polyphase_subdivision`` call, picks its route by one rule
(``_loops_mask``), and every add runs one strided-add loop
(``_add_taps``), in any dimension, so every iterate is bit for bit that
of a loop of ``polyphase_subdivision`` calls, NaN and inf included.

Inside the library analysis also carries a stack of inputs: ``_analysis``
takes an array whose last s axes lie on the lattice and whose leading
axes are channels.  Every gathered view and dot product then serves all
channels, and each channel gets exactly the arithmetic of a call on it
alone: analysis splits its taps into the chunks of a one-channel call
and hands each channel's gathered taps to its product as one contiguous
block, so the two agree bit for bit.  The public calls on ``CoefSeq``
are the case without channels.  The cross-QMF residuals of a bank are
one such call: they correlate every filter, stacked as channels, with
every filter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    GridTooLargeError,
    NotUnimodularError,
    SingularMatrixError,
)
from .lattice import IntMatrix, _integer_inverse, determinant, is_unimodular

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

    def __iter__(self):
        """Unpack as the kernel's (lo, hi) box."""
        return iter((self.lo, self.hi))


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
        return _values_at(self.origin, self.data, points)

    def scaled(self, factor: float) -> "CoefSeq":
        return CoefSeq(self.origin, self.data * factor)

    def reversed(self) -> "CoefSeq":
        """The sequence alpha -> value(-alpha)."""
        flipped = self.data[tuple(slice(None, None, -1) for _ in range(self.dim))]
        origin = tuple(-(o + n - 1) for o, n in zip(self.origin, self.shape))
        return CoefSeq(origin, flipped.copy())

    def trimmed(self) -> "CoefSeq":
        """Shrink the box to the exact nonzero support (keeps one cell if all zero).

        The result never shares memory with self.
        """
        out = _trimmed(self.origin, self.data[None])[0]
        return out if out.data.base is None else CoefSeq(out.origin, out.data.copy())

    def sum(self) -> float:
        return float(self.data.sum())

    def linf(self) -> float:
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def l2(self) -> float:
        return float(np.sqrt((self.data ** 2).sum()))

    def __repr__(self):
        return f"CoefSeq(dim={self.dim}, origin={self.origin}, shape={self.shape})"


def _values_at(origin: Sequence[int], data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Values of an array over the box at origin at every row of an (n, s)
    integer array, zero outside the box, by ``_read``.  Axes of data ahead
    of its last s (lattice) axes are channels: the result is (*channels, n)."""
    rel = np.asarray(points, dtype=np.int64) - np.asarray(origin)
    return _read(data, len(origin), (len(rel),), rel.T)


def delta(s: int) -> CoefSeq:
    """The pulse: 1 at the origin of Z^s, 0 elsewhere."""
    if s < 1:
        raise ValueError("dimension must be >= 1")
    data = np.zeros((1,) * s)
    data[(0,) * s] = 1.0
    return CoefSeq((0,) * s, data)


def _check_dims(a: CoefSeq, b: CoefSeq, xi: IntMatrix | None = None):
    if a.dim != b.dim:
        raise DimMismatchError(f"dimensions {a.dim} and {b.dim} differ")
    if xi is not None and xi.dim != a.dim:
        raise DimMismatchError(f"matrix dim {xi.dim} != sequence dim {a.dim}")


def convolve(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    """(a*b)(gamma) = sum_alpha a(alpha) b(gamma - alpha): subdivision with xi = I."""
    return polyphase_subdivision([a], IntMatrix.identity(a.dim), [b])


def correlate(a: CoefSeq, b: CoefSeq) -> CoefSeq:
    """(a x b)(gamma) = sum_alpha a(alpha) b(alpha - gamma)."""
    return convolve(a, b.reversed())


# Boxes inside the kernel are plain (lo, hi) tuples of inclusive corners:
# the kernel builds several per call, and a validated ``Window`` costs
# about a microsecond each.  ``Window`` stays the type at the API, and
# unpacks as such a tuple, so every box helper takes either.
Box = tuple[Vec, Vec]


def _seq_box(c: CoefSeq) -> Box:
    return _array_box(c.origin, c.data)


def _array_box(origin: Vec, data: np.ndarray) -> Box:
    """Box of an array whose last len(origin) axes lie over the box at origin."""
    shape = data.shape[data.ndim - len(origin):]
    return origin, tuple(o + n - 1 for o, n in zip(origin, shape))


def _box_hull(boxes: Iterable[Box]) -> Box:
    """Smallest box containing every box."""
    los, his = zip(*boxes)
    return tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))


def _box_shape(box: Box) -> Vec:
    return tuple(h - l + 1 for l, h in zip(*box))


def _preimage(m: IntMatrix, lo: Sequence[int], hi: Sequence[int]) -> Box | None:
    """Integer bounding box of m^-1 applied to the box [lo, hi] (None if empty);
    each row of adj(m) is least and greatest at the corner its signs pick."""
    adj, den = _integer_inverse(m)
    ends = [(sum(min(a * l, a * h) for a, l, h in zip(row, lo, hi)),
             sum(max(a * l, a * h) for a, l, h in zip(row, lo, hi))) for row in adj]
    lo = tuple(-(-least // den) for least, _ in ends)
    hi = tuple(most // den for _, most in ends)
    return None if any(l > h for l, h in zip(lo, hi)) else (lo, hi)


def _lag_box(xi: IntMatrix, window: Box, hull: Box) -> Box | None:
    """Lags gamma of one analysis step at which a filter tap can meet data.

    The box of xi^-1 (window - hull): every gamma with xi gamma + beta in
    the window for some beta in the filters' hull (None if empty).
    """
    (wlo, whi), (hlo, hhi) = window, hull
    return _preimage(xi, tuple(w - h for w, h in zip(wlo, hhi)),
                     tuple(w - h for w, h in zip(whi, hlo)))


def _image_box(xi: IntMatrix, window: Box, hull: Box) -> Box:
    """Output box of one subdivision step: xi applied to the window, plus the hull."""
    (wlo, whi), (hlo, hhi) = window, hull
    lo, hi = [], []
    for row, l, h in zip(xi.entries, hlo, hhi):
        for a, x, y in zip(row, wlo, whi):
            if a < 0:  # a x is least at the window's high corner
                x, y = y, x
            l += a * x
            h += a * y
        lo.append(l)
        hi.append(h)
    return tuple(lo), tuple(hi)


def _shifted_views(arr: np.ndarray, lo: Sequence[int], m: IntMatrix,
                   box_lo: Sequence[int], shape: Sequence[int],
                   shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strided views of the lattice points m (box_lo + i) + shifts[k] of arr.

    arr is a C-contiguous array whose last m.dim axes lie over the box
    with lowest corner lo; any axes ahead of them are channels.  Returns
    (view, rows): view[rows[k]][..., i] is the cell of arr at
    m (box_lo + i) + shifts[k], with arr's channel axes first.  Every
    such point must lie in arr's box (numpy refuses a view reaching
    outside arr's buffer).  No index arrays are built: the map i -> m i
    is the stride vector m^T e, where e holds arr's element strides
    along its lattice axes, and the channel axes keep arr's own strides.
    The strides, the base offset and the steps are Python integers; the
    shifts' offsets are one product.
    """
    s = m.dim
    size = arr.itemsize
    channels = arr.ndim - s
    e = [x // size for x in arr.strides[channels:]]
    rows = m.entries
    base = sum(ei * (sum(a * b for a, b in zip(row, box_lo)) - l)
               for ei, row, l in zip(e, rows, lo))
    steps = [size * sum(row[j] * ei for row, ei in zip(rows, e)) for j in range(s)]
    offsets = np.asarray(shifts, dtype=np.int64).reshape(-1, s) @ np.array(e, dtype=np.int64)
    listed = offsets.tolist()
    first = min(listed)
    view = np.ndarray((max(listed) - first + 1, *arr.shape[:channels], *shape),
                      dtype=arr.dtype, buffer=arr, offset=(base + first) * size,
                      strides=(size, *arr.strides[:channels], *steps))
    return view, offsets - first


def _check_dilation(c: CoefSeq, xi: IntMatrix):
    _check_dims(c, c, xi)
    if determinant(xi) == 0:
        raise SingularMatrixError("dilation matrix is singular")


def downsample(c: CoefSeq, xi: IntMatrix) -> CoefSeq:
    """Keep the sublattice samples: result(alpha) = c(xi alpha)."""
    _check_dilation(c, xi)
    return polyphase_analysis(c, xi, [delta(c.dim)])[0]


def upsample(c: CoefSeq, xi: IntMatrix) -> CoefSeq:
    """Spread onto the sublattice: result(xi alpha) = c(alpha), zero off it."""
    _check_dilation(c, xi)
    return polyphase_subdivision([c], xi, [delta(c.dim)])


def reindex(c: CoefSeq, theta: IntMatrix) -> CoefSeq:
    """Unimodular change of variables: result(alpha) = c(theta alpha)."""
    _check_dims(c, c, theta)
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


def _taps(origin: Vec, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(positions, weights) of the nonzero taps of an array over the box at origin.

    positions[k] is the lattice point beta_k of the k-th nonzero tap and
    weights[k] its value.  Grouped by the coset of beta under a dilation
    xi, the taps are the filter's polyphase components
    f_rho(nu) = f(xi nu + rho).
    """
    nz = data != 0
    return np.argwhere(nz) + np.asarray(origin, dtype=np.int64), data[nz]


def _union_taps(seqs: Sequence[CoefSeq], hull: Box) -> tuple[np.ndarray, np.ndarray]:
    """(positions, weights) of the taps that are nonzero in some sequence.

    positions[k] runs over the union of the sequences' nonzero taps
    within their hull, in lexicographic order, and weights[j, k] is
    seqs[j]'s value there (zero where only other sequences have a tap).
    For one sequence these are ``_taps``'s positions and weights.
    """
    dense = _stacked([(f.origin, f.data) for f in seqs], hull)
    nz = (dense != 0).any(axis=0)
    # C order keeps each weight row contiguous
    weights = np.ascontiguousarray(dense[:, nz])
    return np.argwhere(nz) + np.asarray(hull[0], dtype=np.int64), weights


def _stacked(arrays: Sequence[tuple[Vec, np.ndarray]], box: Box) -> np.ndarray:
    """The arrays as rows of one array over the box, zero-padded and cropped to it.

    box is (lo, hi).  Each array's last len(lo) axes lie over the box at
    its origin; axes ahead of them are channels, the same in every
    array.  Row k holds array k where the two boxes meet, zeros elsewhere.
    """
    lo, hi = box
    s = len(lo)
    channels = arrays[0][1].shape[:-s]
    shape = _box_shape(box)
    out = np.zeros((len(arrays), *channels, *shape))
    for row, (origin, data) in zip(out, arrays):
        at = [slice(o - l, o - l + n) for o, l, n in zip(origin, lo, data.shape[-s:])]
        if any(x.start < 0 or x.stop > n for x, n in zip(at, shape)):
            # crop to the part of data in the box (empty slices where none is)
            data = data[(..., *[slice(max(l - o, 0), max(h + 1 - o, 0))
                                for o, l, h in zip(origin, lo, hi)])]
            at = [slice(max(o - l, 0), max(o - l, 0) + n)
                  for o, l, n in zip(origin, lo, data.shape[-s:])]
        row[(..., *at)] = data
    return out


def polyphase_analysis(c: CoefSeq, xi: IntMatrix,
                       filters: Sequence[CoefSeq]) -> list[CoefSeq]:
    """The correlation of c with each filter f, kept on the lags xi Z^s.

    Component(gamma) = sum_beta f(beta) c(xi gamma + beta)
    = sum_rho (c_rho x f_rho)(gamma): each tap beta = xi nu + rho reads
    the phase c_rho(mu) = c(xi mu + rho), shifted by nu, as a strided
    view of c.  The filters share their input phases: the taps of all
    filters are split once into their union, each union tap's view is
    gathered once into one stack, and each filter's lags are its own
    weight row (zero at the taps it lacks) times that stack.  The lags
    run over one box holding every lag of every filter, and one nonzero
    test over all filters trims each result to its nonzero support.
    The views read c's own array when every point they reach lies in
    c's box; only otherwise is c copied into a zero-padded box.  A
    one-tap filter (``downsample``, ``reindex``) scales its single view
    when it lies in c's box, and otherwise a gather of the lag box's
    points alone: a shear never pads c to the image of the lag box.
    This is ``_analysis`` of c's array with no channel axis.
    """
    for f in filters:
        _check_dims(c, f, xi)
    return _trimmed(*_analysis(c.origin, c.data, xi, filters))


def _analysis(origin: Vec, data: np.ndarray, xi: IntMatrix,
              filters: Sequence[CoefSeq]) -> tuple[Vec, np.ndarray]:
    """``polyphase_analysis`` of an array, untrimmed, with channels riding along.

    The last xi.dim axes of data lie over the box at origin; axes ahead
    of them are channels, a stack of inputs that share every gathered
    view.  Returns (lo, out): out[k] holds filter k's lags over the one
    lag box with lowest corner lo, shaped (*channels, *box), and lags
    that no tap reaches hold exact zeros.  Each channel of each filter
    takes the matrix-vector products of a call on that channel alone:
    the same lag box, the same chunks of taps, and each channel's
    gathered taps as one contiguous matrix, so the two agree bit for
    bit.  A chunk holds up to _STACK_CELLS cells per channel.
    """
    s = xi.dim
    channels = data.shape[:-s]
    width = math.prod(channels)
    hull = _box_hull(map(_seq_box, filters))
    c_box = _array_box(origin, data)
    box = _lag_box(xi, c_box, hull)
    if box is None:
        return (0,) * s, np.zeros((len(filters), *channels, *(1,) * s))
    lo = box[0]
    src_lo, src_hi = _image_box(xi, box, hull)
    c_lo, c_hi = c_box
    in_box = all(a <= b for a, b in zip(c_lo + src_hi, src_lo + c_hi))
    shape = _box_shape(box)
    cells = math.prod(shape)
    positions, weights = _union_taps(filters, hull)
    scale = weights.reshape(-1, *(1,) * (len(channels) + s))
    if len(positions) == 1 and not in_box:
        return lo, _gather(origin, data, xi, box, positions[0]) * scale
    if in_box:
        src, src_lo = data, c_lo
    else:
        src = _stacked([(origin, data)], (src_lo, src_hi))[0]
    if len(positions):
        view, rows = _shifted_views(src, src_lo, xi, lo, shape, positions)
    if len(positions) == 1:
        # C order, as the other routes give it: a sheared view's own
        # layout would make ``_trimmed`` copy a row it keeps whole
        return lo, np.multiply(view[rows[0]], scale, order="C")
    out = np.zeros((len(filters), width, cells))
    # a one-channel call's chunks, and each channel's (taps, cells) block
    # copied contiguous: every ``w @ layer`` is that call's product
    chunk = max(1, _STACK_CELLS // cells)
    for k in range(0, len(positions), chunk):
        stack = view[rows[k:k + chunk]].reshape(-1, width, cells)
        layers = np.ascontiguousarray(stack.transpose(1, 0, 2))
        for acc, w in zip(out, weights[:, k:k + chunk]):
            for acc_j, layer in zip(acc, layers):
                acc_j += w @ layer
    return lo, out.reshape(len(filters), *channels, *shape)


def _gather(origin: Vec, data: np.ndarray, m: IntMatrix, box: Box,
            shift: Sequence[int]) -> np.ndarray:
    """The cells of data at m gamma + shift for every gamma in box, zero
    where that point leaves data's box.

    The last m.dim axes of data lie over the box at origin; axes ahead
    of them are channels, and the result is (*channels, *box shape).
    This is ``_read`` of one coordinate array per row of m, each over
    the box alone, however far m shears its image.
    """
    s = m.dim
    axes = [np.arange(l, h + 1).reshape([-1 if j == i else 1 for j in range(s)])
            for i, (l, h) in enumerate(zip(*box))]
    return _read(data, s, _box_shape(box),
                 (sum(a * axis for a, axis in zip(row, axes)) + (int(b) - o)
                  for row, b, o in zip(m.entries, shift, origin)))


def _read(data: np.ndarray, s: int, shape: Sequence[int],
          rel: Iterable[np.ndarray]) -> np.ndarray:
    """The cells of data at points given axis by axis, zero off its box.

    The last s axes of data lie over a box, after any channel axes.  rel
    yields, axis by axis, the points' coordinates relative to the box's
    lowest corner as integer arrays of the given shape; one flat index is
    built from them in place.  The result is (*channels, *shape).
    """
    lattice = data.shape[-s:]
    flat = np.zeros(shape, dtype=np.int64)
    inside = np.ones(shape, dtype=bool)
    stride = math.prod(lattice)
    for point, n in zip(rel, lattice):
        inside &= (point >= 0) & (point < n)
        stride //= n
        point *= stride
        flat += point
    # a point off the box reads a clipped index, then the exact zero
    cells = data.reshape(*data.shape[:-s], -1).take(flat, axis=-1, mode="clip")
    return np.where(inside, cells, 0.0)


def _trimmed(lo: Vec, out: np.ndarray) -> list[CoefSeq]:
    """The rows of out, lags over the box at lo, each cut to its nonzero support.

    One nonzero test covers every row.  The boxes are those of
    ``CoefSeq.trimmed``: an all-zero row becomes the one-cell zero
    sequence at the origin, and a row with a nonzero on every face of
    the box keeps its array without a copy.
    """
    s = out.ndim - 1
    nz = out != 0
    spans = []
    for a in range(1, s + 1):
        hit = nz.any(axis=tuple(b for b in range(1, s + 1) if b != a))
        spans.append((hit.argmax(axis=1).tolist(),
                      (hit.shape[1] - hit[:, ::-1].argmax(axis=1)).tolist()))
    found = hit.any(axis=1).tolist()
    seqs = []
    for k, row in enumerate(out):
        if not found[k]:
            seqs.append(CoefSeq((0,) * s, np.zeros((1,) * s)))
            continue
        sl = tuple(slice(first[k], stop[k]) for first, stop in spans)
        if all(x.start == 0 and x.stop == n for x, n in zip(sl, row.shape)):
            seqs.append(CoefSeq(lo, row))
        else:
            seqs.append(CoefSeq(tuple(o + x.start for o, x in zip(lo, sl)),
                                row[sl].copy()))
    return seqs


def polyphase_subdivision(parts: Sequence[CoefSeq], xi: IntMatrix,
                          masks: Sequence[CoefSeq]) -> CoefSeq:
    """Sum over k of parts[k] spread onto xi Z^s and convolved with masks[k].

    The adjoint of ``polyphase_analysis``: for one pair (c, mask),
    out(beta) = sum_alpha mask(beta - xi alpha) c(alpha), so
    out(xi gamma + rho) = (m_rho * c)(gamma): each mask tap
    beta = xi nu + rho adds beta's weight times c into the strided view
    of the output at xi alpha + beta, which lies in coset rho.  A sparse
    pair, whose c has fewer nonzeros than its mask has taps
    (``_loops_mask``), adds instead the mask scaled by c(alpha) at
    xi alpha, in pair order and first.  The other pairs are one dense
    group: per tap of the union of their masks, one product combines
    their parts (embedded in the parts' hull) and one strided add writes
    it (``_add_taps``).  The output is the sum over the hull of the
    pairs' boxes (xi applied to c's window, widened by the mask window),
    untrimmed.
    """
    boxes = []
    for c, mask in zip(parts, masks, strict=True):
        _check_dims(c, mask, xi)
        boxes.append(_image_box(xi, _seq_box(c), _seq_box(mask)))
    if not boxes:
        raise ValueError("no components to subdivide")
    box = out_box = _box_hull(boxes)
    group = [k for k, (c, mask) in enumerate(zip(parts, masks))
             if _loops_mask(c.data, np.count_nonzero(mask.data))]
    if group:
        part_hull, mask_hull = (_box_hull(_seq_box(seqs[k]) for k in group)
                                for seqs in (parts, masks))
        # the parts' hull can reach cells outside every pair's box; those
        # receive only zeros and are cut off below
        out_box = _box_hull((box, _image_box(xi, part_hull, mask_hull)))
    out = np.zeros(_box_shape(out_box))
    for k, (c, mask) in enumerate(zip(parts, masks)):
        if k not in group:
            _spread(out, out_box[0], xi, c.origin, c.data, mask, None)
    if group:
        layers = _stacked([(parts[k].origin, parts[k].data) for k in group], part_hull)
        _add_taps(out, out_box[0], xi, part_hull[0], layers,
                  *_union_taps([masks[k] for k in group], mask_hull))
    if out_box != box:
        out = out[tuple(slice(l - o, h - o + 1)
                        for l, h, o in zip(*box, out_box[0]))]
    return CoefSeq(box[0], out)


def _loops_mask(data: np.ndarray, mask_taps: int) -> bool:
    """The route of one subdivision pair: loop over the mask's taps unless
    data has fewer nonzero cells than that."""
    return np.count_nonzero(data) >= mask_taps


def _spread(out: np.ndarray, out_lo: Vec, xi: IntMatrix, origin: Vec,
            data: np.ndarray, mask: CoefSeq,
            taps: tuple[np.ndarray, np.ndarray] | None):
    """Add one pair's subdivision into out (over the box at out_lo) by
    ``_loops_mask``'s route, as ``_add_taps`` of data at the mask's taps
    (shifts, weights), or given None, of the mask at m = I, shifts
    xi alpha and weights data(alpha) for the nonzero cells alpha."""
    if taps is None:
        positions, weights = _taps(origin, data)
        taps = positions @ np.asarray(xi.entries, dtype=np.int64).T, weights
        origin, data, xi = mask.origin, mask.data, IntMatrix.identity(xi.dim)
    _add_taps(out, out_lo, xi, origin, data[None], taps[0], taps[1][None])


def _add_taps(out: np.ndarray, out_lo: Vec, m: IntMatrix, lo: Vec,
              layers: np.ndarray, shifts: np.ndarray, weights: np.ndarray):
    """Add weights[:, k] . layers into out at m (lo + i) + shifts[k], each tap k.

    layers stacks arrays over the box at lo; out lies over the box at
    out_lo and holds every point reached.  Per tap, one layer is scaled
    (``np.multiply``) and several are combined (``np.dot``) into one
    scratch buffer, which one strided add writes.
    """
    if not len(shifts):
        return
    shape = layers.shape[1:]
    view, rows = _shifted_views(out, out_lo, m, lo, shape, shifts)
    scaled = np.empty(shape)
    if len(layers) == 1:
        product, operand, weights, buffer = np.multiply, layers[0], weights[0], scaled
    else:
        product, operand, buffer = np.dot, layers.reshape(len(layers), -1), scaled.reshape(-1)
        weights = np.ascontiguousarray(weights.T)
    for row, w in zip(rows.tolist(), weights):
        product(w, operand, out=buffer)
        target = view[row]
        target += scaled


def _capped_image(xi: IntMatrix, window: Box, hull: Box, cap: int) -> Box:
    """``_image_box``, refused when it would hold more than cap cells."""
    box = _image_box(xi, window, hull)
    _refuse_over(math.prod(_box_shape(box)), cap)
    return box


def _refuse_over(cells: int, cap: int):
    if cells > cap:
        raise GridTooLargeError(f"refinement would need {cells} cells (cap {cap})")


def _chain(c: CoefSeq, xi: IntMatrix, mask: CoefSeq, cap: int) -> Iterator[CoefSeq]:
    """The iterates c_1, c_2, ... of one subdivision scheme from c, without end.

    Each iterate is polyphase_subdivision([previous], xi, [mask]) bit for
    bit.  The mask is split once for the whole chain, and each step's box
    is walked in Python integers; a step whose box would hold more than
    cap cells raises ``GridTooLargeError`` before anything is allocated.
    Every step zeroes its box and adds into it by ``_loops_mask``'s
    route through ``_spread``.  Iterates wrap the kernel's own float64
    C-contiguous arrays, unchecked.
    """
    if not c.dim == mask.dim == xi.dim:
        raise DimMismatchError(f"dimensions {c.dim}, {mask.dim} and {xi.dim} differ")
    hull = _seq_box(mask)
    taps = _taps(mask.origin, mask.data)
    origin, data, box = c.origin, c.data, _seq_box(c)
    while True:
        box = _capped_image(xi, box, hull, cap)
        out = np.zeros(_box_shape(box))
        _spread(out, box[0], xi, origin, data, mask,
                taps if _loops_mask(data, len(taps[1])) else None)
        origin, data = box[0], out
        step = object.__new__(CoefSeq)
        step.origin, step.data = origin, data
        yield step


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

def embed(c: CoefSeq, lo: Vec, hi: Vec) -> np.ndarray:
    """Dense copy of c on the box [lo, hi] (zero padded, cropped to the box)."""
    return _stacked([(c.origin, c.data)], (lo, hi))[0]


def max_abs_diff(a: CoefSeq, b: CoefSeq) -> float:
    """Sup-norm distance treating both sequences as elements of l(Z^s).

    a is embedded in the hull of both boxes once and b subtracted in
    place over its own box, one array in all; a NaN propagates.
    """
    _check_dims(a, b)
    box = _box_hull((_seq_box(a), _seq_box(b)))
    out = embed(a, *box)
    part = out[tuple(slice(o - l, o - l + n) for o, l, n in zip(b.origin, box[0], b.shape))]
    np.subtract(part, b.data, out=part)
    return float(np.abs(out, out=out).max())
