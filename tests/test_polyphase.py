"""The polyphase multirate kernel against the direct compositions.

The oracle below is the direct path the library used before the
polyphase kernel: a full correlation followed by downsampling for
analysis, and a convolution of the upsampled grid for subdivision,
with the lattice resampling done by index arrays over boxes computed
in exact rationals.  Its convolutions are scipy's direct N-D
convolution, called here, since the library's own ``convolve`` is the
kernel under test.  Property tests compare the kernel with it over
random expansive dilations in two and three dimensions.  The boundary
cores that verification uses are checked against point loops the same
way.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import convolve as scipy_convolve
from scipy.signal import correlate as scipy_correlate

import anisowave as aw
from anisowave.dictionary import _subdivision_core, analysis_core
from anisowave.errors import InconclusiveError, WindowTooSmallError
from anisowave.lattice import IntMatrix, determinant, rational_inverse
from anisowave.seqcore import CoefSeq, Window, max_abs_diff, polyphase_analysis
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


def oracle_subdivision_core(window, xi, mask):
    supp = [m for m in mask.window.points() if mask.value(m) != 0.0]
    fed = {tuple(x + y for x, y in zip(xi.apply(a), m))
           for a in window.points() for m in supp}
    if not fed:
        raise WindowTooSmallError("empty subdivision output")
    lo = [min(b[i] - mask.window.hi[i] for b in fed) for i in range(xi.dim)]
    hi = [max(b[i] - mask.window.lo[i] for b in fed) for i in range(xi.dim)]
    for a in loop_preimage_points(xi, lo, hi):
        if not window.contains(a):
            fed -= {tuple(x + y for x, y in zip(xi.apply(a), m)) for m in supp}
    if not fed:
        raise WindowTooSmallError("no boundary-free subdivision output cells")
    return sorted(fed)


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
def cases(draw, sparse_signal=False):
    s = draw(st.sampled_from([2, 3]))
    xi = draw(expansive(s))
    side = 7 if s == 2 else 4
    c = draw(sequences(s, side, sparse=sparse_signal))
    f = draw(sequences(s, 3 if s == 2 else 2))
    return xi, c, f


PROPERTY = settings(max_examples=80, deadline=None)


# -- properties ----------------------------------------------------------------

@PROPERTY
@given(cases())
def test_analysis_matches_oracle(case):
    xi, c, f = case
    got = polyphase_analysis(c, xi, [f])[0]
    assert_same(got, oracle_analysis(c, f, xi), scale_of(c, f))


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


# -- the worked sheared bank -------------------------------------------------

def test_sheared_bank_analysis_and_synthesis(bank1):
    rng = np.random.RandomState(11)
    c = CoefSeq((-3, 5), rng.randn(23, 17))
    parts = aw.analyze(bank1, c)
    for eta, f in bank1.filters.items():
        expect = oracle_analysis(c, f, bank1.xi).scaled(1.0 / bank1.det)
        assert_same(parts[eta], expect, scale_of(c, f) / bank1.det)
    for eta, part in parts.items():
        f = bank1.filters[eta]
        got = aw.subdivide(SubdivisionOp.from_bank(bank1, eta), part)
        assert_same(got, oracle_subdivision(part, f, bank1.xi), scale_of(part, f))


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
@given(cases())
def test_analysis_core_matches_point_loop(case):
    xi, c, f = case
    window = Window(c.window.lo, tuple(h + 3 for h in c.window.hi))
    expect = oracle_analysis_core(window, xi, f.window)
    assert analysis_core(window, xi, f.window) == expect


@PROPERTY
@given(cases())
def test_subdivision_core_matches_point_loop(case):
    xi, c, mask = case
    try:
        expect = oracle_subdivision_core(c.window, xi, mask)
    except WindowTooSmallError:
        with pytest.raises(WindowTooSmallError):
            _subdivision_core(c.window, xi, mask)
        return
    got = _subdivision_core(c.window, xi, mask)
    assert [tuple(row) for row in got.tolist()] == expect
