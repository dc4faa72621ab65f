"""The polyphase multirate kernel against the direct compositions.

The oracle below is the direct path the library used before the
polyphase kernel: a full correlation followed by downsampling for
analysis, and a convolution of the upsampled grid for subdivision,
with the lattice resampling done by index arrays over boxes computed
in exact rationals.  Its convolutions are scipy's direct N-D
convolution, called here, since the library's own ``convolve`` is the
kernel under test.  Property tests compare the kernel with it over
random expansive dilations in two and three dimensions.  The boundary
cores that verification uses, and the kernel's point reads and padding,
are checked against point loops the same way, and a bank's one-call
tensor filters against one ``reindex`` per filter.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import convolve as scipy_convolve
from scipy.signal import correlate as scipy_correlate

import anisowave as aw
from anisowave.dictionary import (
    FAMILIES,
    _core_lags,
    _has_core_lag,
    analysis_core,
    tensor_filters,
)
from anisowave.errors import DimMismatchError, InconclusiveError
from anisowave.lattice import IntMatrix, determinant, rational_inverse
from anisowave.seqcore import (
    CoefSeq,
    Window,
    _gather,
    _image_box,
    _lag_box,
    _stacked,
    _values_at,
    max_abs_diff,
    polyphase_analysis,
    polyphase_subdivision,
)
from anisowave.subdivision import SubdivisionOp

# -- the direct oracle -------------------------------------------------------

def direct_convolve(a, b):
    data = scipy_convolve(a.data, b.data, mode="full", method="direct")
    return CoefSeq(tuple(x + y for x, y in zip(a.origin, b.origin)), data)


def direct_correlate(a, b):
    """sum_alpha a(alpha) b(alpha - gamma); the full box starts at a.lo - b.hi."""
    data = scipy_correlate(a.data, b.data, mode="full", method="direct")
    return CoefSeq(tuple(x - y for x, y in zip(a.origin, b.window.hi)), data)


def oracle_gather(c, m):
    """result(alpha) = c(m alpha) on the box of m^-1(support), then trimmed."""
    inv = rational_inverse(m)
    corners = [inv.apply(p) for p in itertools.product(*zip(c.window.lo, c.window.hi))]
    lo = [math.ceil(min(p[i] for p in corners)) for i in range(m.dim)]
    hi = [math.floor(max(p[i] for p in corners)) for i in range(m.dim)]
    if any(l > h for l, h in zip(lo, hi)):
        return CoefSeq((0,) * c.dim, np.zeros((1,) * c.dim))
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    idx = np.indices(shape).reshape(c.dim, -1) + np.array(lo)[:, None]
    rel = np.array(m.entries) @ idx - np.array(c.origin)[:, None]
    ok = np.all((rel >= 0) & (rel < np.array(c.shape)[:, None]), axis=0)
    out = np.zeros(idx.shape[1])
    out[ok] = c.data[tuple(rel[:, ok])]
    return CoefSeq(lo, out.reshape(shape)).trimmed()


def oracle_upsample(c, m):
    corners = [m.apply(p) for p in itertools.product(*zip(c.window.lo, c.window.hi))]
    lo = [min(p[i] for p in corners) for i in range(m.dim)]
    hi = [max(p[i] for p in corners) for i in range(m.dim)]
    out = np.zeros([h - l + 1 for l, h in zip(lo, hi)])
    idx = np.indices(c.shape).reshape(c.dim, -1) + np.array(c.origin)[:, None]
    out[tuple(np.array(m.entries) @ idx - np.array(lo)[:, None])] = c.data.reshape(-1)
    return CoefSeq(lo, out)


def oracle_analysis(c, f, xi):
    return oracle_gather(direct_convolve(c, f.reversed()), xi)


def oracle_subdivision(c, mask, xi):
    return direct_convolve(mask, oracle_upsample(c, xi))


def oracle_sum(pieces):
    """The pieces added on the smallest box holding all of them."""
    lo = np.min([p.origin for p in pieces], axis=0)
    hi = np.max([np.add(p.origin, p.shape) for p in pieces], axis=0)
    out = np.zeros(hi - lo)
    for p in pieces:
        out[tuple(slice(o - l, o - l + n)
                  for o, l, n in zip(p.origin, lo, p.shape))] += p.data
    return CoefSeq(tuple(int(x) for x in lo), out)


def oracle_cross_qmf(b, b2, xi, same):
    lagged = oracle_analysis(b, b2, xi)
    arr = lagged.data.copy()
    idx = tuple(-o for o in lagged.origin)
    d = abs(determinant(xi))
    if not same:
        return lagged.linf()
    if all(0 <= i < n for i, n in zip(idx, lagged.shape)):
        arr[idx] -= d
        return float(np.abs(arr).max())
    return max(lagged.linf(), float(d))


def loop_preimage_points(m, lo, hi):
    """Lattice points alpha with m alpha in the box [lo, hi], by scanning."""
    inv = rational_inverse(m)
    corners = [inv.apply(p) for p in itertools.product(*zip(lo, hi))]
    box = [range(math.ceil(min(p[i] for p in corners)),
                 math.floor(max(p[i] for p in corners)) + 1) for i in range(m.dim)]
    return [a for a in itertools.product(*box)
            if all(l <= x <= h for l, x, h in zip(lo, m.apply(a), hi))]


def oracle_analysis_core(window, xi, support):
    lo = tuple(w - s for w, s in zip(window.lo, support.lo))
    hi = tuple(w - s for w, s in zip(window.hi, support.hi))
    if any(l > h for l, h in zip(lo, hi)):
        return []
    return loop_preimage_points(xi, lo, hi)


def scale_of(c, f):
    """Size of the largest possible output: the rounding reference."""
    return max(c.linf() * float(np.abs(f.data).sum()), 1e-300)


def assert_same(got, expect, scale, tol=1e-13):
    assert got.origin == expect.origin and got.shape == expect.shape
    assert max_abs_diff(got, expect) <= tol * scale


# -- strategies ----------------------------------------------------------------

def _unimodular(draw, s):
    u = IntMatrix.identity(s)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.sampled_from(
            [(i, j) for i in range(s) for j in range(s) if i != j]))
        rows = [[1 if a == b else 0 for b in range(s)] for a in range(s)]
        rows[i][j] = draw(st.sampled_from([-1, 1]))
        u = IntMatrix.from_rows(rows) @ u
    return u


@st.composite
def expansive(draw, s):
    """U diag(sigma) V with small unimodular U, V; kept only if expansive."""
    sigma = [draw(st.sampled_from([2, 3])) for _ in range(s)]
    u = _unimodular(draw, s)
    v = aw.inverse_unimodular(u) if draw(st.booleans()) else _unimodular(draw, s)
    xi = u @ IntMatrix.diagonal(sigma) @ v
    try:
        assume(aw.is_expansive(xi))
    except InconclusiveError:
        assume(False)
    return xi


@st.composite
def sequences(draw, s, max_side, sparse=False):
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(s))
    origin = tuple(draw(st.integers(-4, 4)) for _ in range(s))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.RandomState(seed)
    data = rng.randn(*shape)
    if sparse or draw(st.booleans()):
        data[rng.rand(*shape) < draw(st.sampled_from([0.3, 0.7, 0.95]))] = 0.0
    return CoefSeq(origin, data)


@st.composite
def cases(draw, sparse_signal=False, dims=(2, 3)):
    s = draw(st.sampled_from(dims))
    if s == 1:
        xi = IntMatrix.from_rows([[draw(st.sampled_from([-3, -2, 2, 3]))]])
    else:
        xi = draw(expansive(s))
    side = 7 if s <= 2 else 4
    c = draw(sequences(s, side, sparse=sparse_signal))
    f = draw(sequences(s, 3 if s <= 2 else 2))
    return xi, c, f


@st.composite
def subdivision_sums(draw):
    """1-4 (part, mask) pairs at their own origins, dense or sparse parts."""
    s = draw(st.sampled_from([1, 2, 3]))
    if s == 1:
        xi = IntMatrix.from_rows([[draw(st.sampled_from([-3, -2, 2, 3]))]])
    else:
        xi = draw(expansive(s))
    side, mask_side = {1: (12, 5), 2: (7, 3), 3: (4, 2)}[s]
    pairs = [(draw(sequences(s, side, sparse=draw(st.booleans()))),
              draw(sequences(s, mask_side)))
             for _ in range(draw(st.integers(1, 4)))]
    return xi, pairs


@st.composite
def filter_sets(draw):
    """A signal and 1-3 filters with their own origins and shapes.

    Sparse filters leave some taps of the union of their supports to
    the others; half of the draws give every filter the first one's
    nonzero support instead, so each fills the union.
    """
    s = draw(st.sampled_from([2, 3]))
    xi = draw(expansive(s))
    c = draw(sequences(s, 7 if s == 2 else 4))
    side = 3 if s == 2 else 2
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        first = draw(sequences(s, side))
        rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
        others = [CoefSeq(first.origin, rng.randn(*first.shape) * (first.data != 0))
                  for _ in range(count - 1)]
        return xi, c, [first] + others
    return xi, c, [draw(sequences(s, side, sparse=draw(st.booleans())))
                   for _ in range(count)]


def nonzero_taps(f):
    return {tuple(p) for p in np.argwhere(f.data != 0) + f.origin}


PROPERTY = settings(max_examples=80, deadline=None)


# -- properties ----------------------------------------------------------------

@PROPERTY
@given(cases())
def test_analysis_matches_oracle(case):
    xi, c, f = case
    got = polyphase_analysis(c, xi, [f])[0]
    assert_same(got, oracle_analysis(c, f, xi), scale_of(c, f))


@PROPERTY
@given(filter_sets())
def test_multi_filter_analysis_matches_oracle_and_single_calls(case):
    # the filters share one stack of union taps, a filter lacking a tap
    # weighs it with zero; with no such zeros the sums are the same
    xi, c, filters = case
    got = polyphase_analysis(c, xi, filters)
    fills = all(nonzero_taps(f) == nonzero_taps(filters[0]) for f in filters)
    for f, part in zip(filters, got, strict=True):
        assert_same(part, oracle_analysis(c, f, xi), scale_of(c, f))
        single = polyphase_analysis(c, xi, [f])[0]
        if fills:
            assert part.origin == single.origin and np.array_equal(part.data, single.data)
        else:
            assert_same(part, single, scale_of(c, f), tol=1e-15)


@PROPERTY
@given(cases())
def test_subdivision_matches_oracle_on_the_same_box(case):
    xi, c, mask = case
    got = aw.subdivide(SubdivisionOp(xi, mask), c)
    assert_same(got, oracle_subdivision(c, mask, xi), scale_of(c, mask))


@PROPERTY
@given(cases(sparse_signal=True))
def test_subdivision_of_sparse_data_matches_oracle(case):
    # fewer data samples than mask taps runs the loop over the samples
    xi, c, mask = case
    got = aw.subdivide(SubdivisionOp(xi, mask), c)
    assert_same(got, oracle_subdivision(c, mask, xi), scale_of(c, mask))


# one dense pair, then a sparse one (one nonzero against four taps): the
# sparse pair is added first, so only such calls round differently from
# adding the pairs in order
@PROPERTY
@given(subdivision_sums())
@example((IntMatrix.from_rows([[3, -1], [0, 2]]),
          [(CoefSeq((0, -1), np.arange(1.0, 10.0).reshape(3, 3) / 7),
            CoefSeq((1, 0), [[0.3, -1.1], [2.5, 0.7]])),
           (CoefSeq((2, 1), [[0.0, 1.3], [0.0, 0.0]]),
            CoefSeq((-1, 0), [[1.9, 0.1], [-0.6, 3.1]]))]))
def test_summed_subdivision_matches_oracle(case):
    # one kernel call adds every pair into one output over the pairs' hull
    xi, pairs = case
    parts, masks = zip(*pairs)
    got = polyphase_subdivision(parts, xi, masks)
    expect = oracle_sum([oracle_subdivision(c, mask, xi) for c, mask in pairs])
    assert_same(got, expect, sum(scale_of(c, mask) for c, mask in pairs))


@pytest.mark.parametrize("rows", [[[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[2]]])
def test_kernel_refuses_a_dilation_of_another_dimension(rows):
    c = CoefSeq((0, 0), np.ones((3, 3)))
    xi = IntMatrix.from_rows(rows)
    with pytest.raises(DimMismatchError):
        polyphase_analysis(c, xi, [c])
    with pytest.raises(DimMismatchError):
        polyphase_subdivision([c], xi, [c])


@PROPERTY
@given(cases(), st.booleans())
def test_cross_qmf_residual_matches_oracle(case, same):
    xi, b, b2 = case
    got = aw.cross_qmf_residual(b, b2, xi, same)
    expect = oracle_cross_qmf(b, b2, xi, same)
    assert abs(got - expect) <= 1e-13 * (scale_of(b, b2) + abs(determinant(xi)))


@st.composite
def operand_pairs(draw):
    s = draw(st.sampled_from([2, 3]))
    side = 6 if s == 2 else 4
    return tuple(draw(sequences(s, side, sparse=draw(st.booleans()))) for _ in range(2))


@PROPERTY
@given(operand_pairs())
def test_convolve_and_correlate_match_direct(pair):
    # both operand orders: the kernel loops over the operand with fewer
    # nonzeros, so unequal counts run both of its loop orientations
    a, b = pair
    for x, y in (a, b), (b, a):
        assert_same(aw.convolve(x, y), direct_convolve(x, y), scale_of(x, y))
        assert_same(aw.correlate(x, y), direct_correlate(x, y), scale_of(x, y))


@PROPERTY
@given(cases())
def test_resampling_matches_oracle(case):
    xi, c, _ = case
    assert_same(aw.downsample(c, xi), oracle_gather(c, xi), 1.0, tol=0.0)
    assert_same(aw.upsample(c, xi), oracle_upsample(c, xi), 1.0, tol=0.0)


@PROPERTY
@given(cases(), st.data())
def test_reindex_matches_oracle_exactly(case, data):
    # one-tap analysis scales a strided view of c, read in place when it fits
    _, c, _ = case
    theta = _unimodular(data.draw, c.dim)
    got = aw.reindex(c, theta)
    assert_same(got, oracle_gather(c, theta), 1.0, tol=0.0)
    assert not np.shares_memory(got.data, c.data)


def leaves_box(c, xi, f):
    """Whether the views of a one-tap analysis of c would reach past c's box."""
    box = (c.window.lo, c.window.hi)
    hull = (f.window.lo, f.window.hi)
    lags = _lag_box(xi, box, hull)
    if lags is None:
        return False
    lo, hi = _image_box(xi, lags, hull)
    return not (Window(*box).contains(lo) and Window(*box).contains(hi))


@PROPERTY
@given(cases(), st.data())
def test_sheared_one_tap_analysis_matches_oracle(case, data):
    # the view leaves c's box: the lags are gathered with zeros off it, exactly
    xi, c, _ = case
    s = c.dim
    theta = IntMatrix.identity(s)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.permutations(range(s)))[:2]
        rows = [[int(a == b) for b in range(s)] for a in range(s)]
        rows[i][j] = data.draw(st.sampled_from([-2, -1, 1, 2]))
        theta = IntMatrix.from_rows(rows) @ theta
    beta = tuple(data.draw(st.integers(-3, 3)) for _ in range(s))
    unit = CoefSeq(beta, np.ones((1,) * s))
    tap = unit.scaled(data.draw(st.sampled_from([1.0, -2.5])))
    pulse = aw.delta(s)
    assume(leaves_box(c, theta, pulse) or leaves_box(c, xi, tap))
    assert_same(aw.reindex(c, theta), oracle_analysis(c, pulse, theta), 1.0, tol=0.0)
    assert_same(aw.downsample(c, xi), oracle_analysis(c, pulse, xi), 1.0, tol=0.0)
    got = polyphase_analysis(c, xi, [tap])[0]
    assert_same(got, oracle_analysis(c, tap, xi), 1.0, tol=0.0)
    shifted = polyphase_analysis(c, theta, [unit])[0]
    assert_same(shifted, oracle_analysis(c, unit, theta), 1.0, tol=0.0)


#: theta1 of a composed Smith branch (xi = U diag(3, 2, 3) V)
WIDE_THETA1 = IntMatrix.from_rows([[1, -1, 0], [4, -5, -4], [-7, 9, 7]])


def test_sheared_reindex_memory():
    # reindex of a 6x2x6 array by theta1^-1 has a 7x46x80 lag box, whose
    # image under the shear is a 638x632x176 (541 MiB) box
    theta = aw.inverse_unimodular(WIDE_THETA1)
    c = CoefSeq((0, 0, 0), np.random.RandomState(5).randn(6, 2, 6))
    pulse = ((0, 0, 0), (0, 0, 0))
    box = _lag_box(theta, (c.window.lo, c.window.hi), pulse)
    assert Window(*box).shape == (7, 46, 80)
    assert Window(*_image_box(theta, box, pulse)).shape == (638, 632, 176)
    tracemalloc.start()
    try:
        got = aw.reindex(c, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert_same(got, oracle_gather(c, theta), 1.0, tol=0.0)


# -- point reads and padding against point loops ---------------------------------

@st.composite
def channel_arrays(draw, s, side):
    """(origin, data): data has 0-2 channel axes ahead of s lattice axes."""
    channels = tuple(draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, 2))))
    shape = tuple(draw(st.integers(1, side)) for _ in range(s))
    origin = tuple(draw(st.integers(-3, 3)) for _ in range(s))
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    return origin, rng.randn(*channels, *shape)


def channel_seqs(origin, data, s):
    """Each channel of data as its own sequence, in C order of the channels."""
    return [CoefSeq(origin, data[ch]) for ch in np.ndindex(*data.shape[:-s])]


def exact_rows(got, expect):
    """Bit equality of each channel's values with its point-loop values."""
    assert got.shape == (len(expect), len(expect[0]))
    for row, values in zip(got, expect):
        assert row.tobytes() == np.array(values, dtype=np.float64).tobytes()


@PROPERTY
@given(st.data())
def test_point_reads_match_value_loop(data):
    # _values_at at points in and around the box, and _gather of a lag box
    # whose image under a shear or a dilation leaves the box in part
    s = data.draw(st.sampled_from([2, 3]))
    origin, arr = data.draw(channel_arrays(s, 5 if s == 2 else 3))
    seqs = channel_seqs(origin, arr, s)
    count = data.draw(st.integers(0, 30))
    points = np.array([[data.draw(st.integers(o - 3, o + n + 2))
                        for o, n in zip(origin, arr.shape[-s:])] for _ in range(count)],
                      dtype=np.int64).reshape(count, s)
    got = _values_at(origin, arr, points)
    assert got.shape == (*arr.shape[:-s], count)
    exact_rows(got.reshape(len(seqs), count),
               [[c.value(p) for p in points.tolist()] for c in seqs])

    m = _unimodular(data.draw, s) if data.draw(st.booleans()) else data.draw(expansive(s))
    lo = tuple(data.draw(st.integers(-3, 2)) for _ in range(s))
    box = Window(lo, tuple(l + data.draw(st.integers(0, 3)) for l in lo))
    shift = tuple(data.draw(st.integers(-2, 2)) for _ in range(s))
    got = _gather(origin, arr, m, box, shift)
    assert got.shape == (*arr.shape[:-s], *box.shape)
    exact_rows(got.reshape(len(seqs), box.cells),
               [[c.value(np.add(m.apply(g), shift)) for g in box.points()] for c in seqs])


@PROPERTY
@given(st.data())
def test_stacked_pads_and_crops_like_a_point_loop(data):
    s = data.draw(st.sampled_from([1, 2, 3]))
    channels = tuple(data.draw(st.integers(1, 2)) for _ in range(data.draw(st.integers(0, 1))))
    side = 5 if s < 3 else 3
    rng = np.random.RandomState(data.draw(st.integers(0, 2 ** 32 - 1)))
    arrays = []
    for _ in range(data.draw(st.integers(1, 3))):
        shape = tuple(data.draw(st.integers(1, side)) for _ in range(s))
        origin = tuple(data.draw(st.integers(-side, side)) for _ in range(s))
        arrays.append((origin, rng.randn(*channels, *shape)))
    lo = tuple(data.draw(st.integers(-2, 2)) for _ in range(s))
    box = Window(lo, tuple(l + data.draw(st.integers(0, side)) for l in lo))
    got = _stacked(arrays, box)
    assert got.shape == (len(arrays), *channels, *box.shape)
    seqs = [c for origin, arr in arrays for c in channel_seqs(origin, arr, s)]
    exact_rows(got.reshape(len(seqs), box.cells),
               [[c.value(p) for p in box.points()] for c in seqs])


# -- the worked sheared bank -------------------------------------------------

def test_sheared_bank_analysis_and_synthesis(bank1):
    rng = np.random.RandomState(11)
    c = CoefSeq((-3, 5), rng.randn(23, 17))
    parts = aw.analyze(bank1, c)
    for eta, f in bank1.filters.items():
        expect = oracle_analysis(c, f, bank1.xi).scaled(1.0 / bank1.det)
        assert_same(parts[eta], expect, scale_of(c, f) / bank1.det)
    pieces = []
    for eta, part in parts.items():
        f = bank1.filters[eta]
        pieces.append(oracle_subdivision(part, f, bank1.xi))
        got = aw.subdivide(SubdivisionOp.from_bank(bank1, eta), part)
        assert_same(got, pieces[-1], scale_of(part, f))
    scale = sum(scale_of(parts[eta], f) for eta, f in bank1.filters.items())
    assert_same(aw.synthesize(bank1, parts), oracle_sum(pieces), scale)


def test_sheared_bank_residual_matrix(bank1):
    got = bank1.residual_matrix()
    for (eta, eta2), r in got.items():
        expect = oracle_cross_qmf(bank1.filters[eta], bank1.filters[eta2], bank1.xi,
                                  eta == eta2)
        assert r == pytest.approx(expect, abs=1e-13)


def test_sheared_bank_cascade_steps(bank1):
    op = SubdivisionOp(bank1.xi, bank1.lowpass)
    c = aw.delta(2)
    for _ in range(4):
        expect = oracle_subdivision(c, op.mask, op.xi)
        c = aw.subdivide(op, c)
        assert_same(c, expect, expect.linf())


def test_large_dilation_with_few_samples(bank0, bank1):
    # the joint refinement shape: a small filter spread by a long product
    xi = bank0.xi @ bank0.xi @ bank1.xi
    mask = aw.cascade(SubdivisionOp(bank1.xi, bank1.lowpass), 2).as_seq()
    c = bank1.lowpass
    got = aw.subdivide(SubdivisionOp(xi, mask), c)
    assert_same(got, oracle_subdivision(c, mask, xi), scale_of(c, mask))


# -- boundary cores against point loops ----------------------------------------

@PROPERTY
@given(cases(dims=(1, 2, 3)))
def test_analysis_core_matches_point_loop(case):
    xi, c, f = case
    window = Window(c.window.lo, tuple(h + 3 for h in c.window.hi))
    expect = oracle_analysis_core(window, xi, f.window)
    assert analysis_core(window, xi, f.window) == expect


@PROPERTY
@given(cases(dims=(1, 2, 3)), st.data())
def test_core_box_test_matches_enumeration(case, data):
    xi, c, f = case
    grow = data.draw(st.lists(st.integers(0, 6), min_size=c.dim, max_size=c.dim))
    window = Window(c.window.lo, tuple(h + g for h, g in zip(c.window.hi, grow)))
    assert _has_core_lag(window, xi, f.window) == bool(len(_core_lags(window, xi, f.window)))


# -- bank pieces -----------------------------------------------------------------

@st.composite
def smith_sets(draw):
    """A Smith factorization of U diag(sigma) V, similar (V = U^-1) or not,
    with univariate sets of the matching scales, some with trimmed filters."""
    s = draw(st.sampled_from([2, 3]))
    sigma = tuple(draw(st.sampled_from([2, 3])) for _ in range(s))
    u = _unimodular(draw, s)
    v = aw.inverse_unimodular(u) if draw(st.booleans()) else _unimodular(draw, s)
    fact = aw.smith_with_target(u @ IntMatrix.diagonal(sigma) @ v, sigma)
    sets = []
    for k in sigma:
        uset = FAMILIES[draw(st.sampled_from(["haar", "db2"])) if k == 2 else "cl3"]()
        if draw(st.booleans()):
            uset = aw.UnivariateQMFSet(k, tuple(g.trimmed() for g in uset.filters))
        sets.append(uset)
    return fact, tuple(sets)


def reindex_reference(g, theta):
    """``reindex(g, theta)``; the index oracle stands in past 2**22 padded cells.

    Some composed Smith factors shear g's lag box onto an image of
    gigabytes; there ``oracle_gather`` reads the same cells through its
    own index arrays (and equals ``reindex`` bit for bit,
    ``test_reindex_matches_oracle_exactly``).
    """
    pulse = ((0,) * g.dim, (0,) * g.dim)
    lo, hi = _image_box(theta, _lag_box(theta, (g.window.lo, g.window.hi), pulse), pulse)
    if math.prod(h - l + 1 for l, h in zip(lo, hi)) > 2 ** 22:
        return oracle_gather(g, theta)
    return aw.reindex(g, theta)


#: the worked sheared bank Xi_1 = [[3, -1], [0, 2]]: cl3's g_1 ends in three
#: zeros, so its tensors hold -0.0 cells, and some stay inside the filters'
#: trimmed boxes
WORKED = (aw.smith_with_target(IntMatrix.from_rows([[3, -1], [0, 2]]), (3, 2)),
          (aw.chui_lian_ternary(), aw.daubechies2()))


@PROPERTY
@given(smith_sets())
@example(WORKED)
def test_tensor_filters_match_reindex_per_filter(case):
    fact, sets = case
    theta1_inv = fact.theta1_inverse
    got = tensor_filters(fact, sets)
    if case is WORKED:
        # a scatter of the nonzero taps alone would write +0.0 there
        assert any(np.signbit(f.data[f.data == 0]).any() for f in got.values())
    assert list(got) == list(itertools.product(*[range(k) for k in fact.sigma]))
    for eta, f in got.items():
        g = aw.tensor([sets[j].filters[e] for j, e in enumerate(eta)])
        expect = (g if theta1_inv == IntMatrix.identity(len(eta))
                  else reindex_reference(g, theta1_inv))
        assert f.origin == expect.origin
        assert f.data.shape == expect.data.shape
        assert f.data.tobytes() == expect.data.tobytes()
