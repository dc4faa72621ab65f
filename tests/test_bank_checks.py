"""The bank checks from the stored taps against the routes they replace.

``reproduction_check`` takes its details from the highpass filters'
moments and its lowpass condition from the sum rules; ``residual_matrix``
takes its lags in the Smith frame; ``moment_order_nd`` sums over the
nonzero taps.  ``grid_oracle`` holds the old routes: sampled monomials
with a lowpass fit, lags under xi over the filters' bounding box, and
moments over meshgrids of the whole box.
"""

import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave.dictionary import moment_order_nd, reproduction_check
from anisowave.seqcore import CoefSeq, Window
from grid_oracle import dense_moment_order, direct_cells, direct_residuals, grid_rows
from test_channels import perturbed
from test_random_dilations import WIDE_SIGMAS, banks, traced_residuals

CHECKS = settings(max_examples=30, deadline=None)

#: padded cells (filters x source box) the direct residual call may take
DIRECT_CELLS = 10 ** 6


def window_for(bank, margin):
    side = max(bank.support_hull().shape) + margin
    return Window((0,) * bank.dim, (side - 1,) * bank.dim)


def degree_of(bank):
    """The degree ``bank verify`` checks: 1 when every highpass filter
    has two vanishing moments, else 0."""
    orders = [moment_order_nd(bank.filters[eta]) for eta in bank.highpass_indices()]
    return 1 if min(orders) >= 2 else 0


def noisy_highpass(bank, seed):
    """The bank with noise on every highpass filter, so details are far from zero."""
    noisy = perturbed(bank, seed)
    filters = dict(noisy.filters)
    filters[(0,) * bank.dim] = bank.lowpass
    return aw.AnisoFilterBank(bank.xi, bank.fact, bank.sigma, filters, None)


@CHECKS
@given(banks(), st.integers(0, 1), st.integers(4, 8), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_moment_details_equal_grid_details(bank, degree, margin, seed, noisy):
    if noisy:
        bank = noisy_highpass(bank, seed)
    window = window_for(bank, margin)
    report = reproduction_check(bank, degree, window)
    oracle = grid_rows(bank, degree, window)
    assert [r.exponent for r in report.rows] == [expo for expo, _, _ in oracle]
    for row, (_, detail, _) in zip(report.rows, oracle):
        assert abs(row.detail_max - detail) <= 1e-14 * max(1.0, detail)


def moved_tap(bank, k, step):
    """The bank with the lowpass's k-th nonzero tap moved by step."""
    lowpass = bank.lowpass
    data = np.pad(lowpass.data, 1)
    cells = np.argwhere(data != 0)
    at = tuple(cells[k % len(cells)])
    to = tuple(a + d for a, d in zip(at, step))
    data[to] += data[at]
    data[at] = 0.0
    filters = dict(bank.filters)
    filters[(0,) * bank.dim] = CoefSeq(tuple(o - 1 for o in lowpass.origin), data)
    return aw.AnisoFilterBank(bank.xi, bank.fact, bank.sigma, filters, None)


@CHECKS
@given(banks(), st.integers(0, 10 ** 6), st.data())
def test_sum_rules_and_fit_agree_on_a_moved_tap(bank, k, data):
    degree = degree_of(bank)
    window = window_for(bank, 6)
    report = reproduction_check(bank, degree, window)
    assert report.max_sum_rule_gap <= 1e-9
    assert max(fit for _, _, fit in grid_rows(bank, degree, window)) <= 1e-9

    # a unit step never lies in xi Z^s: theta1^-1 e_i has coprime entries
    axis = data.draw(st.integers(0, bank.dim - 1))
    step = [0] * bank.dim
    step[axis] = data.draw(st.sampled_from([1, -1]))
    moved = moved_tap(bank, k, step)
    window = window_for(moved, 6)
    assert reproduction_check(moved, degree, window).max_sum_rule_gap > 1e-6
    assert max(fit for _, _, fit in grid_rows(moved, degree, window)) > 1e-6


@CHECKS
@given(st.one_of(banks(), banks(WIDE_SIGMAS)), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_frame_residuals_equal_direct_residuals(bank, seed, noisy):
    assume(direct_cells(bank) * len(bank.filters) <= DIRECT_CELLS)
    if noisy:
        bank = perturbed(bank, seed)
    got = bank.residual_matrix()
    expect = direct_residuals(bank)
    assert list(got) == list(expect)
    scale = max(1.0, max(float((f.data ** 2).sum()) for f in bank.filters.values()))
    for pair, value in got.items():
        assert abs(value - expect[pair]) <= 1e-14 * scale


def test_moment_orders_equal_dense_orders_on_the_worked_pair(bank0, bank1):
    for bank in (bank0, bank1):
        for f in bank.filters.values():
            assert moment_order_nd(f) == dense_moment_order(f)


@CHECKS
@given(banks())
def test_moment_orders_equal_dense_orders(bank):
    for f in bank.filters.values():
        assert moment_order_nd(f) == dense_moment_order(f)


def test_densely_filled_sheared_boxes_take_the_cheaper_frame():
    # noise over every cell of the stored boxes pulls back into a frame box
    # 136x larger than the stored one (2268 -> 309 244 cells), where the
    # frame route peaked at 339 MiB against 221 MiB under xi
    bank = perturbed(aw.build_bank(aw.IntMatrix.from_rows([[-3, 3], [4, -2]]), (3, 2),
                                   (aw.chui_lian_ternary(), aw.daubechies2())), 0)
    residuals, peak = traced_residuals(bank)
    tracemalloc.start()
    try:
        expect = direct_residuals(bank)
        _, direct_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * direct_peak
    scale = max(float((f.data ** 2).sum()) for f in bank.filters.values())
    assert all(abs(value - expect[pair]) <= 1e-14 * scale for pair, value in residuals.items())
