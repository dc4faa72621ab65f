import dataclasses
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave import dictionary, seqcore, subdivision
from anisowave.dictionary import reproduction_check, univariate_sets_from_names
from anisowave.errors import (
    BadIndexError,
    GridMismatchError,
    GridTooLargeError,
    InconclusiveError,
)
from anisowave.lattice import IntMatrix, inverse_unimodular
from anisowave.seqcore import (
    CoefSeq,
    Window,
    _chain,
    _image_box,
    _loops_mask,
    max_abs_diff,
    polyphase_subdivision,
    reindex,
)
from anisowave.subdivision import SubdivisionOp, _matrix_power
from test_random_dilations import unimodular


def seq1(values, origin=0):
    return CoefSeq((origin,), np.array(values, dtype=float))


@pytest.fixture(scope="module")
def op0(bank0):
    return SubdivisionOp(bank0.xi, bank0.lowpass)


@pytest.fixture(scope="module")
def op1(bank1):
    return SubdivisionOp(bank1.xi, bank1.lowpass)


class TestSubdivide:
    def test_pulse_gives_mask(self, op0, bank0):
        assert max_abs_diff(aw.subdivide(op0, aw.delta(2)), bank0.lowpass) == 0.0

    def test_haar_1d(self):
        op = SubdivisionOp(IntMatrix.from_rows([[2]]), seq1([1.0, 1.0]))
        out = aw.subdivide(op, aw.delta(1))
        assert out.data.tolist() == [1.0, 1.0]

    def test_support_box_arithmetic(self, op0, bank0):
        two = aw.subdivide(op0, aw.subdivide(op0, aw.delta(2))).trimmed()
        mask = bank0.lowpass.window
        lo = tuple(m + 3 * m2 if i == 0 else m + 2 * m2
                   for i, (m, m2) in enumerate(zip(mask.lo, mask.lo)))
        hi = tuple(m + 3 * m2 if i == 0 else m + 2 * m2
                   for i, (m, m2) in enumerate(zip(mask.hi, mask.hi)))
        assert two.window.lo == lo and two.window.hi == hi

    def test_operator_composition(self, op0, bank0):
        # r steps with xi equal one step with xi^r and the iterated mask
        rng = np.random.RandomState(9)
        c = CoefSeq((0, 0), rng.randn(5, 4))
        for r in (2, 3, 4):
            iterated = c
            for _ in range(r):
                iterated = aw.subdivide(op0, iterated)
            mask_r = aw.cascade(op0, r).as_seq()
            one_shot = aw.subdivide(
                SubdivisionOp(_matrix_power(op0.xi, r), mask_r), c)
            assert max_abs_diff(iterated, one_shot) <= 1e-11 * c.linf()

    def test_mass_preservation(self, op0, op1):
        for op, det in ((op0, 6), (op1, 6)):
            c = aw.delta(2)
            for r in range(1, 6):
                c = aw.subdivide(op, c)
                assert c.sum() == pytest.approx(float(det) ** r, rel=1e-13)


class TestCascade:
    def test_level_zero(self, op0):
        sf = aw.cascade(op0, 0)
        assert sf.values.shape == (1, 1) and sf.values[0, 0] == 1.0
        assert sf.xi_total == IntMatrix.identity(2)

    def test_haar_indicator(self):
        op = SubdivisionOp(IntMatrix.from_rows([[2]]), seq1([1.0, 1.0]))
        sf = aw.cascade(op, 5)
        assert sf.window.shape == (32,)
        assert np.all(sf.values == 1.0)

    def test_grid_bookkeeping(self, op0):
        sf = aw.cascade(op0, 3)
        assert sf.xi_total == IntMatrix.diagonal([27, 8])
        assert sf.level == 3

    def test_cell_cap(self, op0, monkeypatch):
        monkeypatch.setenv("ANISO_CELL_CAP", "1000")
        with pytest.raises(GridTooLargeError):
            aw.cascade(op0, 8)


class TestWaveletSamples:
    def test_zero_index_is_scaling_function(self, bank0, op0):
        # the diagonal bank renders as a tensor product of 1-D cascades,
        # which matches the 2-D cascade to rounding (~1e-15), not bit for bit
        for r in range(1, 7):
            sf = aw.wavelet_samples(bank0, (0, 0), r)
            ref = aw.cascade(op0, r)
            assert sf.window == ref.window
            assert sf.xi_total == ref.xi_total
            assert max_abs_diff(sf.as_seq(), ref.as_seq()) <= 1e-13 * ref.as_seq().linf()

    def test_haar_checkerboard(self, haar_bank):
        sf = aw.wavelet_samples(haar_bank, (1, 1), 4)
        vals = sf.as_seq().trimmed()
        n = 2 ** 4
        assert vals.window.shape == (n, n)
        half = n // 2
        assert np.all(vals.data[:half, :half] == 1.0)
        assert np.all(vals.data[half:, :half] == -1.0)
        assert np.all(vals.data[:half, half:] == -1.0)
        assert np.all(vals.data[half:, half:] == 1.0)

    def test_renders_all_indices(self, bank1):
        for eta in bank1.indices():
            sf = aw.wavelet_samples(bank1, eta, 3)
            assert np.isfinite(sf.values).all()
            assert sf.as_seq().linf() > 0


class TestConvergenceDiagnostic:
    def test_haar_exact(self):
        op = SubdivisionOp(IntMatrix.from_rows([[2]]), seq1([1.0, 1.0]))
        assert aw.convergence_diagnostic(op, 5) == [0.0] * 4

    def test_worked_mask_decreasing(self, op0):
        d = aw.convergence_diagnostic(op0, 6)
        assert all(d[i] > d[i + 1] for i in range(1, 4))

    def test_unnormalized_mask_diverges(self):
        op = SubdivisionOp(IntMatrix.from_rows([[2]]), seq1([1.0, 2.0, 1.0]))
        d = aw.convergence_diagnostic(op, 5)
        assert all(d[i] < d[i + 1] for i in range(len(d) - 1))


class TestConjugation:
    def test_diagonal_bank_exact_zero(self, bank0):
        for r in (1, 2, 3):
            assert aw.conjugation_check(bank0, r) == 0.0

    def test_sheared_bank(self, bank1):
        assert aw.conjugation_check(bank1, 1) == 0.0
        for r in (2, 3):
            assert aw.conjugation_check(bank1, r) <= 1e-12

    def test_composed_branch_bank_refused_before_allocating(self):
        # theta1 = [[7,-9,-6],[-4,5,3],[-4,5,4]] shears the conjugated
        # iterate's lag box at r = 2 to 9237 x 5167 x 5264 cells
        bank = aw.build_bank(IntMatrix.from_rows([[3, -3, 0], [-2, 4, -2], [-2, 4, 0]]),
                             (3, 2, 2), univariate_sets_from_names(["cl3", "db2", "db2"]))
        tracemalloc.start()
        try:
            with pytest.raises(GridTooLargeError, match="251237975856 cells"):
                aw.conjugation_check(bank, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_composed_branch_bank_at_level_one(self):
        # h = lowpass(theta1 .) has 96 taps; built by reindexing, it took
        # the 806 x 638 x 92 lag box of theta1^-1 applied to the lowpass's box
        bank = aw.build_bank(IntMatrix.from_rows([[3, -3, 0], [-2, 4, -2], [-2, 4, 0]]),
                             (3, 2, 2), univariate_sets_from_names(["cl3", "db2", "db2"]))
        tracemalloc.start()
        try:
            gap = aw.conjugation_check(bank, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gap <= 1e-12
        assert peak < 64 * 2 ** 20


class TestMultipleLimit:
    def test_empty_word_is_cascade(self, bank0, bank1, op0):
        banks = (bank0, bank1)
        sf = aw.multiple_limit(banks, (), 4)
        ref = aw.cascade(op0, 4)
        assert max_abs_diff(sf.as_seq(), ref.as_seq()) == 0.0

    def test_total_dilation_bookkeeping(self, bank0, bank1, family):
        banks = (bank0, bank1)
        sf = aw.multiple_limit(banks, (1, 1), 4)
        expect = _matrix_power(bank0.xi, 4) @ aw.xi_product(family, (1, 1))
        assert sf.xi_total == expect

    def test_joint_refinement(self, bank0, bank1):
        banks = (bank0, bank1)
        for mu in [(), (0,), (1,), (0, 1), (1, 1), (1, 0), (0, 0)]:
            for j in (0, 1):
                assert aw.joint_refinement_residual(banks, j, mu, 3) <= 1e-10


class TestGram:
    def test_haar_indicator(self, haar_bank):
        op = SubdivisionOp(haar_bank.xi, haar_bank.lowpass)
        f = aw.cascade(op, 4)
        assert aw.gram_check(f, f, (0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert aw.gram_check(f, f, (1, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_grid_mismatch(self, op0, haar_bank):
        f = aw.cascade(op0, 2)
        g = aw.cascade(SubdivisionOp(haar_bank.xi, haar_bank.lowpass), 2)
        with pytest.raises(GridMismatchError):
            aw.gram_check(f, g, (0, 0))

    def test_scaling_wavelet_orthogonality(self, bank0):
        phi = aw.wavelet_samples(bank0, (0, 0), 5)
        psi = aw.wavelet_samples(bank0, (1, 0), 5)
        assert abs(aw.gram_check(phi, psi, (0, 0))) < 1e-10


# -- the Smith-frame (tensor) route of wavelet_samples -------------------------

#: diagonals of the similarity banks under test, with fitting families
SIMILAR = {(3, 2): ("cl3", "db2"), (3, 2, 2): ("cl3", "db2", "haar")}


def kernel_samples(bank, eta, r):
    """The oracle: the eta filter, then r-1 plain lowpass steps of the kernel."""
    c = bank.filter_at(eta)
    for _ in range(r - 1):
        c = polyphase_subdivision([c], bank.xi, [bank.lowpass])
    return c


def assert_matches_kernel(bank, eta, r):
    sf = aw.wavelet_samples(bank, eta, r)
    expect = kernel_samples(bank, eta, r)
    assert sf.window == expect.window
    assert sf.xi_total == _matrix_power(bank.xi, r)
    gap = float(np.abs(sf.values - expect.data).max())
    assert gap <= 1e-13 * expect.linf(), f"xi {bank.xi.entries}, eta {eta}, r {r}"


#: cells a drawn render may reach: wide shears need up to ~4e9 cells at level 5
RENDER_CELLS = 4_000_000


def render_cells(bank, eta, r):
    """Cells of the level-r window of filter eta, by box arithmetic alone."""
    window = bank.filter_at(eta).window
    for _ in range(r - 1):
        window = Window(*_image_box(bank.xi, window, bank.lowpass.window))
    return window.cells


def renders_in_frame(bank, eta, r):
    """Whether wavelet_samples takes the tensor route for this render."""
    window = kernel_samples(bank, eta, r).window
    return (bank.frame
            and subdivision._tensor_samples(bank, tuple(eta), r, window,
                                            subdivision.DEFAULT_CELL_CAP) is not None)


@st.composite
def similarity_banks(draw):
    """Banks for xi = U diag(sigma) U^-1 whose renders take the tensor route.

    No shear leaves xi = diag(sigma), a diagonal bank with theta1 = I.
    """
    sigma = draw(st.sampled_from(sorted(SIMILAR)))
    s = len(sigma)
    u = IntMatrix.identity(s)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(s)))[:2]
        rows = [[int(a == b) for b in range(s)] for a in range(s)]
        rows[i][j] = draw(st.sampled_from([-1, 1]))
        u = IntMatrix.from_rows(rows) @ u
    xi = u @ IntMatrix.diagonal(sigma) @ inverse_unimodular(u)
    bank = aw.build_bank(xi, sigma, univariate_sets_from_names(SIMILAR[sigma]))
    assume(bank.frame)
    return bank


def reindexed_conjugation_gap(bank, r):
    """The oracle: conjugation_check with h = reindex(lowpass, theta1)."""
    theta1 = bank.fact.theta1
    sigma_lam = IntMatrix.diagonal(bank.fact.sigma) @ bank.fact.theta2 @ theta1
    lhs = aw.cascade(SubdivisionOp(bank.xi, bank.lowpass), r).as_seq()
    rhs = aw.cascade(SubdivisionOp(sigma_lam, reindex(bank.lowpass, theta1)), r).as_seq()
    return max_abs_diff(lhs, reindex(rhs, inverse_unimodular(theta1)))


@settings(max_examples=30, deadline=None)
@given(similarity_banks(), st.integers(0, 3))
def test_conjugation_check_equals_reindexed_mask(bank, r):
    assert aw.conjugation_check(bank, r) == reindexed_conjugation_gap(bank, r)


def draw_render(bank, data):
    """(eta, r) of a drawn render of the bank within RENDER_CELLS."""
    eta = data.draw(st.sampled_from(bank.indices()))
    r = data.draw(st.integers(1, 5 if bank.dim == 2 else 4))
    assume(render_cells(bank, eta, r) <= RENDER_CELLS)
    return eta, r


@settings(max_examples=40, deadline=None)
@given(similarity_banks(), st.data())
def test_tensor_route_matches_kernel(bank, data):
    eta, r = draw_render(bank, data)
    assert renders_in_frame(bank, eta, r)
    assert_matches_kernel(bank, eta, r)


def subdivide_loop_render(bank, eta, r, window):
    """The oracle: each axis a loop of plain 1-D subdivide calls from the
    set's trimmed filter, the factors multiplied out by ``tensor``, and
    each frame point b written to theta1 b of a zeroed window by index
    arithmetic."""
    factors = []
    for uset, e in zip(bank.sets, eta):
        op = SubdivisionOp(IntMatrix.from_rows([[uset.scale]]), uset.trimmed_filters[0])
        c = uset.trimmed_filters[e]
        for _ in range(r - 1):
            c = aw.subdivide(op, c)
        factors.append(c)
    t = seqcore.tensor(factors)
    frame = np.stack(np.meshgrid(*[np.arange(o, o + n) for o, n in zip(t.origin, t.shape)],
                                 indexing="ij"), axis=-1).reshape(-1, bank.dim)
    at = frame @ np.array(bank.fact.theta1.entries).T - np.array(window.lo)
    assert (at >= 0).all() and (at < np.array(window.shape)).all()
    expect = np.zeros(window.shape)
    expect[tuple(at.T)] = t.data.reshape(-1)
    return expect


@settings(max_examples=40, deadline=None)
@given(similarity_banks(), st.data())
def test_tensor_route_is_the_product_of_subdivide_loops(bank, data):
    eta, r = draw_render(bank, data)
    sf = aw.wavelet_samples(bank, eta, r)
    assert sf.values.tobytes() == subdivide_loop_render(bank, eta, r, sf.window).tobytes()


def stretched_haar_bank():
    """The stretched Haar pair (1, 0, 0, +-1) / sqrt 2 at scale 2, tensored
    with cl3 under xi = [[2, 1], [0, 3]]: its renders hold exact zeros
    inside the frame box, some of them -0.0."""
    r2 = 1 / math.sqrt(2)
    pair = aw.UnivariateQMFSet(2, (CoefSeq((0,), np.array([r2, 0.0, 0.0, r2])),
                                   CoefSeq((0,), np.array([r2, 0.0, 0.0, -r2]))))
    return aw.build_bank(IntMatrix.from_rows([[2, 1], [0, 3]]), (2, 3),
                         (pair, aw.chui_lian_ternary()))


def family_member_bank():
    """The sheared member [[3, 0, -1], [0, 3, 0], [0, 0, 2]] of the s = 3 family."""
    return aw.build_bank(IntMatrix.from_rows([[3, 0, -1], [0, 3, 0], [0, 0, 2]]), (3, 3, 2),
                         univariate_sets_from_names(["cl3", "cl3", "db2"]))


def rotated_bank():
    """diag(2, 3) on the target (3, 2): theta1 = [[0, -1], [1, 0]] maps each
    frame box onto its window, which is then not zeroed first."""
    return aw.build_bank(IntMatrix.diagonal([2, 3]), (3, 2),
                         univariate_sets_from_names(["cl3", "db2"]))


@pytest.mark.parametrize("make", [stretched_haar_bank, family_member_bank, rotated_bank])
def test_named_renders_are_the_product_of_subdivide_loops(make):
    # the stretched Haar bank's -0.0 cells must keep their sign; the
    # padding of theta1's image box around them must read +0.0
    bank = make()
    assert bank.frame and bank.fact.theta1 != IntMatrix.identity(bank.dim)
    negative_zeros = 0
    for r in (1, 2, 3, 4):
        for eta in bank.indices():
            sf = aw.wavelet_samples(bank, eta, r)
            assert sf.values.tobytes() == subdivide_loop_render(bank, eta, r, sf.window).tobytes()
            negative_zeros += np.count_nonzero((sf.values == 0) & np.signbit(sf.values))
    assert (negative_zeros > 0) == (make is stretched_haar_bank)


def test_level_7_render_is_the_product_of_subdivide_loops(bank1):
    # a 11643 x 382 window, past the cells the drawn renders may reach
    sf = aw.wavelet_samples(bank1, (0, 0), 7)
    assert sf.window.cells > RENDER_CELLS
    assert sf.values.tobytes() == subdivide_loop_render(bank1, (0, 0), 7, sf.window).tobytes()


def test_tensor_route_matches_kernel_wide_shear():
    # a draw the cell bound turns away at level 5 (3.6e9 cells), rendered
    # at the highest level inside the bound
    xi = IntMatrix.from_rows([[6, 2], [-6, -1]])
    bank = aw.build_bank(xi, (3, 2), univariate_sets_from_names(SIMILAR[(3, 2)]))
    assert bank.frame
    r = max(r for r in range(1, 6)
            if all(render_cells(bank, eta, r) <= RENDER_CELLS for eta in bank.indices()))
    assert r == 3
    for eta in bank.indices():
        assert renders_in_frame(bank, eta, r)
        assert_matches_kernel(bank, eta, r)


class TestTensorRoute:
    def test_worked_banks_match_kernel(self, bank0, bank1, haar_bank):
        line = aw.build_bank(IntMatrix.from_rows([[2]]), (2,), (aw.daubechies2(),))
        for bank in (bank0, bank1, haar_bank, line):
            assert bank.frame
            for r in (1, 2, 5):
                for eta in bank.indices():
                    assert_matches_kernel(bank, eta, r)

    def test_composed_branch_bank_matches_kernel(self):
        sets = univariate_sets_from_names(["db2", "db2"])
        bank = aw.build_bank(IntMatrix.from_rows([[2, 2], [0, 2]]), (2, 2), sets)
        assert not bank.frame  # theta2 theta1 != I: the kernel path
        for r in (1, 3, 5):
            for eta in bank.indices():
                assert_matches_kernel(bank, eta, r)

    def test_sets_wider_than_the_window_fall_back(self, bank1, sets):
        # sets claiming db2 on the 2-axis, filters built with haar: the
        # frame box reaches past the window, so the kernel renders the filters
        narrow = aw.build_bank(bank1.xi, (3, 2), (sets[0], aw.haar()))
        bank = aw.AnisoFilterBank(bank1.xi, bank1.fact, bank1.sigma,
                                  narrow.filters, bank1.sets)
        for eta in ((0, 0), (2, 1)):
            assert not renders_in_frame(bank, eta, 3)
            sf = aw.wavelet_samples(bank, eta, 3)
            expect = kernel_samples(bank, eta, 3)
            assert sf.window == expect.window
            assert np.array_equal(sf.values, expect.data)

    def test_cell_cap(self, bank1, monkeypatch):
        assert renders_in_frame(bank1, (0, 0), 2)
        monkeypatch.setenv("ANISO_CELL_CAP", "500")
        aw.wavelet_samples(bank1, (0, 0), 2)
        with pytest.raises(GridTooLargeError):
            aw.wavelet_samples(bank1, (0, 0), 6)

    def test_conjugation_check_runs_the_kernel(self, bank0, bank1, monkeypatch):
        # the bank's side of the identity is iterated, not rebuilt from it
        def refuse(*args):
            raise AssertionError("tensor route used")
        monkeypatch.setattr(subdivision, "_tensor_samples", refuse)
        assert aw.conjugation_check(bank0, 3) == 0.0
        assert aw.conjugation_check(bank1, 3) <= 1e-12
        for bank in (bank0, bank1):
            with pytest.raises(AssertionError):
                aw.wavelet_samples(bank, (0, 0), 3)


# -- refinement chains -----------------------------------------------------------

#: cells the last compared iterate of a drawn chain may hold
CHAIN_CELLS = 200_000


def subdivision_loop(c, xi, mask, cap):
    """The oracle: iterates of plain polyphase_subdivision steps, each step
    refused, before it runs, when its box would exceed cap cells."""
    while True:
        cells = Window(*_image_box(xi, c.window, mask.window)).cells
        if cells > cap:
            raise GridTooLargeError(f"refinement would need {cells} cells (cap {cap})")
        c = polyphase_subdivision([c], xi, [mask])
        yield c


@st.composite
def chains(draw):
    """(start, xi, mask, k): an expansive xi = U diag(sigma) V in s = 1..3, a
    mask of 1-12 taps, and the pulse or a small dense array to start from."""
    s = draw(st.integers(1, 3))
    sigma = [draw(st.sampled_from([2, 3])) for _ in range(s)]
    xi = draw(unimodular(s)) @ IntMatrix.diagonal(sigma) @ draw(unimodular(s))
    try:
        assume(aw.is_expansive(xi))
    except InconclusiveError:
        assume(False)
    rng = np.random.RandomState(draw(st.integers(0, 2 ** 32 - 1)))
    # boxes wide enough for three scaled copies of the mask to overlap
    shape = tuple(draw(st.integers(1, {1: 12, 2: 5, 3: 4}[s])) for _ in range(s))
    taps = draw(st.integers(1, min(12, math.prod(shape))))
    data = np.zeros(shape)
    data.flat[rng.permutation(data.size)[:taps]] = rng.randn(taps)
    mask = CoefSeq(tuple(draw(st.integers(-3, 3)) for _ in range(s)), data)
    if draw(st.booleans()):
        start = aw.delta(s)
    else:
        dense = tuple(draw(st.integers(1, 3)) for _ in range(s))
        start = CoefSeq(tuple(draw(st.integers(-2, 2)) for _ in range(s)),
                        rng.uniform(0.5, 2.0, dense) * rng.choice([-1, 1], dense))
    k = draw(st.integers(1, 5))
    window = start.window
    for _ in range(k):
        window = Window(*_image_box(xi, window, mask.window))
    assume(window.cells <= CHAIN_CELLS)
    return start, xi, mask, k


def assert_chain_matches_loop(start, xi, mask, k):
    got = itertools.islice(_chain(start, xi, mask, CHAIN_CELLS), k)
    expect = itertools.islice(subdivision_loop(start, xi, mask, CHAIN_CELLS), k)
    for a, b in zip(got, expect, strict=True):
        assert a.origin == b.origin and a.shape == b.shape
        assert a.data.tobytes() == b.data.tobytes()


def refused_at(steps):
    """(iterates made, message) of steps that end in GridTooLargeError."""
    made = 0
    with pytest.raises(GridTooLargeError) as err:
        for _ in steps:
            made += 1
    return made, str(err.value)


CHAIN_CASES = settings(max_examples=100, deadline=None)


class TestChain:
    @CHAIN_CASES
    @given(chains())
    def test_iterates_equal_subdivision_loop(self, case):
        assert_chain_matches_loop(*case)

    @CHAIN_CASES
    @given(chains(), st.data())
    def test_cap_refuses_the_same_step(self, case, data):
        start, xi, mask, k = case
        window, cells = start.window, []
        for _ in range(k):
            window = Window(*_image_box(xi, window, mask.window))
            cells.append(window.cells)
        cap = data.draw(st.sampled_from(cells)) - 1  # just below a drawn step's box
        assume(cap >= 1)
        refused = refused_at(_chain(start, xi, mask, cap))
        assert refused == refused_at(subdivision_loop(start, xi, mask, cap))
        assert refused[0] == min(n for n, c in enumerate(cells) if c > cap)

    @pytest.mark.parametrize("s", [1, 2])
    def test_short_start_loops_over_data(self, s):
        # 3^s cells against 12 taps: the first step loops over the data,
        # and three scaled masks overlap, so the order of the loop shows
        # in the last bits
        rng = np.random.RandomState(3)
        mask = np.zeros((12,) if s == 1 else (5, 5))
        mask.flat[rng.permutation(mask.size)[:12]] = rng.randn(12)
        mask = CoefSeq((-2,) * s, mask)
        start = CoefSeq((0,) * s, rng.randn(*(3,) * s))
        xi = IntMatrix.diagonal([2] * s)
        assert not _loops_mask(start.data, 12)
        assert_chain_matches_loop(start, xi, mask, 3)


# -- 1-D refinement chains ------------------------------------------------------------

def dilation(sigma):
    return IntMatrix.from_rows([[sigma]])


class TestPolyphaseChain:
    """1-D chains of the worked filters and of edge-case masks: the
    iterates are bit for bit those of a ``polyphase_subdivision`` loop."""

    @pytest.mark.parametrize("name", ["cl3", "db2", "haar"])
    def test_worked_filters_up_to_level_7(self, name):
        # every filter as the start and as the mask: cl3's g1 keeps three
        # zero taps at its end, and the trimmed filters are the renders' own
        (uset,) = univariate_sets_from_names([name])
        filters = uset.filters + uset.trimmed_filters
        for start, mask in itertools.product(filters, filters):
            assert_chain_matches_loop(start, dilation(uset.scale), mask, 7)

    @pytest.mark.parametrize("sigma,taps", [(2, 5), (3, 7), (3, 8), (4, 6), (5, 3)])
    def test_mask_length_not_a_multiple_of_sigma(self, sigma, taps):
        rng = np.random.RandomState(taps)
        mask = CoefSeq((-1,), rng.randn(taps))
        start = CoefSeq((2,), rng.randn(taps + 1))
        assert_chain_matches_loop(start, dilation(sigma), mask, 5)

    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 1.5, -2.0, 0.5, 0.0],         # zero margins
        [0.0, 0.0, 0.0, 0.7, 0.0, 0.0, 0.0],     # only zero rows but one
        [1.0, 0.0, 0.0, 0.0, -3.0, 0.0, 0.25],   # interior zeros, zero phases
        [0.0, -0.0, 0.0, 0.0],                   # all zeros
    ])
    @pytest.mark.parametrize("sigma", [2, 3])
    def test_masks_with_zero_taps(self, values, sigma):
        rng = np.random.RandomState(sigma)
        mask = CoefSeq((-2,), np.array(values))
        start = CoefSeq((0,), rng.randn(9))
        assert_chain_matches_loop(start, dilation(sigma), mask, 5)

    @pytest.mark.parametrize("sigma", [-2, -3])
    def test_negative_dilations_keep_the_tap_loop(self, sigma):
        for uset in univariate_sets_from_names(["db2", "cl3"]):
            for mask in uset.filters:
                assert_chain_matches_loop(uset.filters[-1], dilation(sigma), mask, 6)

    def test_short_start_takes_the_data_route_first(self):
        # the pulse spreads one scaled mask; every later step loops over its taps
        mask = aw.chui_lian_ternary().filters[0]
        assert not _loops_mask(aw.delta(1).data, 6)
        assert_chain_matches_loop(aw.delta(1), dilation(3), mask, 6)

    def test_cap_boundary(self):
        start = aw.daubechies2().filters[1]
        mask = aw.daubechies2().filters[0]
        window, cells = start.window, []
        for _ in range(4):
            window = Window(*_image_box(dilation(2), window, mask.window))
            cells.append(window.cells)
        last = cells[-1]
        # a cap equal to the last step's box lets it run ...
        got = list(itertools.islice(_chain(start, dilation(2), mask, last), 4))
        assert got[-1].data.size == last
        # ... and one cell less refuses it, as the loop does, before allocating
        refused = refused_at(_chain(start, dilation(2), mask, last - 1))
        assert refused == refused_at(subdivision_loop(start, dilation(2), mask, last - 1))
        assert refused == (3, f"refinement would need {last} cells (cap {last - 1})")

    @pytest.mark.parametrize("name", ["cl3", "db2", "haar"])
    def test_cell_cap_at_a_step(self, name, monkeypatch):
        # a cap of exactly step k's cells lets step k run, and step k + 1
        # is refused with the message of ``_capped_image``
        (uset,) = univariate_sets_from_names([name])
        op = SubdivisionOp(dilation(uset.scale), uset.filters[0])
        levels = [aw.cascade(op, k) for k in range(1, 7)]
        for k, (level, nxt) in enumerate(zip(levels, levels[1:]), start=1):
            cap = level.window.cells
            monkeypatch.setenv("ANISO_CELL_CAP", str(cap))
            got = aw.cascade(op, k)
            assert got.window == level.window
            assert got.values.tobytes() == level.values.tobytes()
            with pytest.raises(GridTooLargeError) as want:
                seqcore._capped_image(op.xi, level.window, op.mask.window, cap)
            with pytest.raises(GridTooLargeError) as refused:
                aw.cascade(op, k + 1)
            assert str(refused.value) == str(want.value)
            assert str(refused.value) == (f"refinement would need {nxt.window.cells} "
                                          f"cells (cap {cap})")

    def test_non_finite_data_stays_non_finite(self):
        # the stretched Haar lowpass (1, 0, 0, 1) / sqrt 2 has a zero tap in
        # each coset of 2Z: a step that multiplied data by them would turn
        # inf into NaN in cells that the loop leaves finite
        mask = CoefSeq((0,), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
        start = CoefSeq((0,), np.array([1.0, np.inf, 2.0, 3.0, 1.0, -1.0]))
        with np.errstate(invalid="ignore"):
            got = list(itertools.islice(_chain(start, dilation(2), mask, 10 ** 6), 3))
            want = list(itertools.islice(subdivision_loop(start, dilation(2), mask, 10 ** 6), 3))
        for a, b in zip(got, want):
            assert a.origin == b.origin and a.shape == b.shape
            assert a.data.tobytes() == b.data.tobytes()
        assert not np.isfinite(got[-1].data).all() and np.isfinite(got[-1].data).any()


# -- set-up paid once per render ----------------------------------------------------

def count_trims(monkeypatch):
    """Record each CoefSeq.trimmed call by the sequence it trims."""
    calls = []
    real = CoefSeq.trimmed

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CoefSeq, "trimmed", counted)
    return calls


class TestRenderSetUp:
    def test_renders_trim_each_set_filter_once(self, monkeypatch):
        sets = univariate_sets_from_names(["cl3", "db2"])
        banks = [aw.build_bank(m, (3, 2), sets) for m in aw.dilation_family(3, 2, 2).matrices]
        calls = count_trims(monkeypatch)
        for bank in banks:
            for eta in bank.indices():
                aw.wavelet_samples(bank, eta, 3)
        # the first renders trim every filter of the two shared sets once ...
        assert sorted(map(id, calls)) == sorted(id(f) for u in sets for f in u.filters)
        calls.clear()
        # ... and no render trims after that
        for bank in banks:
            for eta in bank.indices():
                for r in (1, 5):
                    aw.wavelet_samples(bank, eta, r)
        assert calls == []

    def test_trimmed_filters_do_not_change_the_filters(self):
        uset = aw.chui_lian_ternary()
        given = [(f.origin, f.data.tobytes()) for f in uset.filters]
        trimmed = uset.trimmed_filters
        assert uset.trimmed_filters is trimmed
        assert [(f.origin, f.data.tobytes()) for f in uset.filters] == given
        assert [t.shape for t in trimmed] == [(6,), (3,), (6,)]
        for t, f in zip(trimmed, uset.filters):
            assert not np.shares_memory(t.data, f.data)

    def test_later_renders_make_no_matrix_product(self, monkeypatch):
        sets = univariate_sets_from_names(["cl3", "db2"])
        banks = [aw.build_bank(m, (3, 2), sets) for m in aw.dilation_family(3, 2, 2).matrices]
        for bank in banks:
            aw.wavelet_samples(bank, (0, 0), 1)
        products = []
        real = IntMatrix.__matmul__

        def counted(a, b):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(IntMatrix, "__matmul__", counted)
        for bank in banks:
            for eta in bank.indices():
                for r in (1, 3, 5):
                    aw.wavelet_samples(bank, eta, r)
        assert products == []

    def test_frame_facts_are_kept_once_per_bank(self, bank0, bank1):
        composed = aw.build_bank(IntMatrix.from_rows([[2, 2], [0, 2]]), (2, 2),
                                 univariate_sets_from_names(["db2", "db2"]))
        no_sets = dataclasses.replace(bank1, sets=None)
        for bank, in_frame in ((bank0, True), (bank1, True), (composed, False),
                               (no_sets, False)):
            assert bank.frame is in_frame and bank.frame is bank.frame
            inverse = bank.fact.theta1_inverse
            assert inverse is bank.fact.theta1_inverse
            assert inverse @ bank.fact.theta1 == IntMatrix.identity(2)
            assert all(type(x) is int for row in inverse.entries for x in row)
        # the caches are no fields: a fresh copy of the fields compares equal
        assert dataclasses.replace(bank1) == bank1
        assert dataclasses.replace(bank1.fact) == bank1.fact
        assert "frame" not in {f.name for f in dataclasses.fields(bank1)}
        assert "theta1_inverse" not in {f.name for f in dataclasses.fields(bank1.fact)}
        assert not hasattr(bank1, "theta1_inverse")

    def test_theta1_is_inverted_once_per_bank(self, sets, monkeypatch):
        bank = aw.build_bank(IntMatrix.from_rows([[3, -1], [0, 2]]), (3, 2), sets)
        real, calls = inverse_unimodular, []

        def counted(m):
            calls.append(m)
            return real(m)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "anisowave" and getattr(module, "inverse_unimodular", None) is real:
                monkeypatch.setattr(module, "inverse_unimodular", counted)
        side = max(bank.support_hull().shape) + 8
        bank.residual_matrix()
        reproduction_check(bank, 1, Window((0, 0), (side - 1, side - 1)))
        aw.conjugation_check(bank, 2)
        for eta in ((0, 0), (2, 1)):
            aw.wavelet_samples(bank, eta, 3)
        assert len(calls) <= 1

    @pytest.mark.parametrize("r", [0, 1, 2, 5, 7, 40])
    def test_total_dilation_is_the_power(self, r):
        for xi in (IntMatrix.from_rows([[3, -1], [0, 2]]),
                   IntMatrix.from_rows([[2, -2, -2], [-3, 5, 2], [0, 2, 2]])):
            expect = IntMatrix.identity(xi.dim)
            for _ in range(r):
                expect = xi @ expect
            got = _matrix_power(xi, r)
            assert got == expect
            assert all(type(x) is int for row in got.entries for x in row)


# -- refinement chains kept per univariate set ----------------------------------------

def fresh_sets(bank):
    """The bank with new set objects of the same filters: nothing kept yet."""
    sets = tuple(aw.UnivariateQMFSet(u.scale, u.filters) for u in bank.sets)
    return dataclasses.replace(bank, sets=sets)


def count_chain_steps(monkeypatch):
    """Record each iterate the sets' chains build, by (filter start, step)."""
    steps = []
    real = dictionary._chain

    def counted(c, *args):
        for k, step in enumerate(real(c, *args), start=1):
            steps.append((id(c), k))
            yield step

    monkeypatch.setattr(dictionary, "_chain", counted)
    return steps


#: the renders of the store tests: Xi_0, Xi_1, an s = 3 family member and
#: the 1-D db2 bank
STORE_RENDERS = [("xi0", [[3, 0], [0, 2]], (3, 2), ("cl3", "db2"), 6),
                 ("xi1", [[3, -1], [0, 2]], (3, 2), ("cl3", "db2"), 6),
                 ("s3", [[3, 0, -1], [0, 3, 0], [0, 0, 2]], (3, 3, 2), ("cl3", "cl3", "db2"), 3),
                 ("db2-1d", [[2]], (2,), ("db2",), 12)]


class TestKeptChains:
    @pytest.mark.parametrize("order", ["deepest-first", "shallowest-first"])
    @pytest.mark.parametrize("name,rows,sigma,families,top", STORE_RENDERS,
                             ids=[r[0] for r in STORE_RENDERS])
    def test_warm_renders_equal_cold_ones(self, name, rows, sigma, families, top, order,
                                          monkeypatch):
        bank = aw.build_bank(IntMatrix.from_rows(rows), sigma,
                             univariate_sets_from_names(families))
        assert bank.frame
        levels = list(range(1, top + 1))
        if order == "deepest-first":
            levels.reverse()
        steps = count_chain_steps(monkeypatch)
        warm = {}
        for _ in range(2):  # the second sweep reads every factor from the store
            for r in levels:
                for eta in bank.indices():
                    warm[eta, r] = aw.wavelet_samples(bank, eta, r)
        # each filter's chain is built once, as deep as asked, and kept
        sets = {id(u): u for u in bank.sets}.values()
        assert len(steps) == sum(u.scale * (top - 1) for u in sets)
        assert all(sorted(u.chains) == sorted(itertools.product(range(u.scale), range(1, top)))
                   for u in sets)
        for (eta, r), sf in warm.items():
            cold = aw.wavelet_samples(fresh_sets(bank), eta, r)
            assert cold.window == sf.window
            assert cold.values.tobytes() == sf.values.tobytes(), (name, eta, r)

    def test_hits_return_the_kept_iterate(self, monkeypatch):
        uset = aw.chui_lian_ternary()
        steps = count_chain_steps(monkeypatch)
        deep = uset.refined(2, 4, subdivision.DEFAULT_CELL_CAP)
        assert uset.refined(2, 4, subdivision.DEFAULT_CELL_CAP) is deep
        assert uset.refined(2, 0, subdivision.DEFAULT_CELL_CAP) is uset.trimmed_filters[2]
        assert sorted(uset.chains) == [(2, k) for k in range(1, 5)] and uset.chains[2, 4] is deep
        assert len(steps) == 4
        # a deeper request resumes from the last kept iterate
        deeper = uset.refined(2, 6, subdivision.DEFAULT_CELL_CAP)
        assert len(steps) == 6 and steps[-2:] == [(id(deep), 1), (id(deep), 2)]
        expect = subdivision._refine(uset.trimmed_filters[2], uset.dilation,
                                     uset.trimmed_filters[0], 6, subdivision.DEFAULT_CELL_CAP)
        assert deeper.origin == expect.origin
        assert deeper.data.tobytes() == expect.data.tobytes()
        # the store is no field: equality ignores it
        assert "chains" not in {f.name for f in dataclasses.fields(uset)}
        copy = dataclasses.replace(uset)
        assert copy == uset and "chains" not in vars(copy)

    def test_kept_iterates_are_read_only(self, bank1):
        aw.wavelet_samples(bank1, (2, 1), 5)
        for uset in bank1.sets:
            assert len(uset.chains) >= 4
            for c in uset.chains.values():
                with pytest.raises(ValueError, match="read-only"):
                    c.data[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    c.data += 0.0

    @pytest.mark.parametrize("name", ["cl3", "db2"])
    def test_cap_refuses_kept_steps_as_the_chain_does(self, name):
        (uset,) = univariate_sets_from_names([name])
        e = uset.scale - 1
        start, mask = uset.trimmed_filters[e], uset.trimmed_filters[0]
        lengths = [len(uset.refined(e, k, 10 ** 6).data) for k in range(1, 6)]
        for k in range(1, 5):
            cap = lengths[k - 1]
            # a cap of step k's cells passes step k, kept or not ...
            assert uset.refined(e, k, cap) is uset.chains[e, k]
            # ... and refuses step k + 1 with the uncached chain's message
            with pytest.raises(GridTooLargeError) as uncached:
                subdivision._refine(start, uset.dilation, mask, 5, cap)
            with pytest.raises(GridTooLargeError) as kept:
                uset.refined(e, 5, cap)
            assert str(kept.value) == str(uncached.value)
            assert str(kept.value) == (f"refinement would need {lengths[k]} cells "
                                       f"(cap {cap})")

    def test_refuses_a_bad_filter_or_step_count(self):
        uset = aw.chui_lian_ternary()
        with pytest.raises(ValueError, match="steps must be >= 0"):
            uset.refined(0, -1, 10 ** 6)
        for e in (-1, 3):
            with pytest.raises(BadIndexError):
                uset.refined(e, 2, 10 ** 6)
        assert uset.chains == {}

    def test_warm_render_refused_as_a_cold_one(self, monkeypatch):
        bank = aw.build_bank(IntMatrix.from_rows([[3, -1], [0, 2]]), (3, 2),
                             univariate_sets_from_names(["cl3", "db2"]))
        for eta in bank.indices():
            aw.wavelet_samples(bank, eta, 5)
        for cap in ("500", "5000", "60000"):
            monkeypatch.setenv("ANISO_CELL_CAP", cap)
            for eta in bank.indices():
                with pytest.raises(GridTooLargeError) as warm:
                    aw.wavelet_samples(bank, eta, 5)
                with pytest.raises(GridTooLargeError) as cold:
                    aw.wavelet_samples(fresh_sets(bank), eta, 5)
                assert str(warm.value) == str(cold.value)


@st.composite
def sheared_frames(draw):
    """(theta1, frame box B, box I) for a unimodular theta1 in s = 1-3: I is
    theta1's image box of B or a drawn box.  theta1 is a product of two
    draws, so that theta1^-1 holds entries of magnitude 2 and more."""
    s = draw(st.integers(1, 3))
    theta1 = draw(unimodular(s)) @ draw(unimodular(s))
    lo = [draw(st.integers(-4, 4)) for _ in range(s)]
    hi = [l + draw(st.integers(0, 6)) for l in lo]
    frame = (tuple(lo), tuple(hi))
    if draw(st.booleans()):
        return theta1, frame, _image_box(theta1, frame, ((0,) * s,) * 2)
    lo = [draw(st.integers(-8, 8)) for _ in range(s)]
    return theta1, frame, (tuple(lo), tuple(l + draw(st.integers(0, 8)) for l in lo))


@settings(max_examples=200, deadline=None)
@given(sheared_frames())
# lower bounds on t that are not whole numbers, from rows of theta1^-1
# whose first entries c are 2 and 5, and -2 and -5
@example((IntMatrix.from_rows([[3, -1], [-5, 2]]), ((-2, -1), (2, 3)), ((0, -5), (4, -4))))
@example((IntMatrix.from_rows([[2, -1], [5, -2]]), ((0, -2), (5, 4)), ((-1, 0), (2, 1))))
def test_inner_rows_are_the_rows_inside_theta1_b(case):
    theta1, frame, image = case
    inverse = inverse_unimodular(theta1)
    a, b = subdivision._inner_rows(inverse, image, frame)
    # the oracle: every cell of each cross-section of I pulled back to the frame
    inside = []
    for t in range(image[0][0], image[1][0] + 1):
        cells = itertools.product([t], *[range(l, h + 1) for l, h in zip(image[0][1:],
                                                                       image[1][1:])])
        inside.append(all(all(l <= x <= h for x, l, h in zip(inverse.apply(c), *frame))
                          for c in cells))
    rows = [i for i, full in enumerate(inside) if full]
    assert list(range(a, b)) == rows
    assert 0 <= a <= b <= len(inside)
