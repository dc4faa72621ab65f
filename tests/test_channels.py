"""The analysis kernel's channel axes and the bank checks built on them.

A stack of inputs rides through one analysis call on leading channel
axes.  Each channel must take exactly the arithmetic of a call on that
channel alone over the same box, so the properties below compare
stacked calls with per-input calls bit for bit, and with the direct
analysis oracle of ``test_polyphase`` within its tolerance.  The bank
checks that stack their operands (``residual_matrix`` over the filters,
the grid oracle of polynomial reproduction, whose analysis stacks the
monomials) are compared with the per-pair and per-monomial loops they
replace.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave.dictionary import _core_lags
from anisowave.seqcore import (
    CoefSeq,
    Window,
    _analysis,
    cross_qmf_residual,
    embed,
    max_abs_diff,
    polyphase_analysis,
    sample_polynomial,
)
from anisowave.subdivision import SubdivisionOp, subdivide
from grid_oracle import fit_residual, grid_rows, subdivision_core
from test_polyphase import expansive, oracle_analysis, scale_of, sequences
from test_random_dilations import banks

CHANNEL_CASES = settings(max_examples=120, deadline=None)


# -- strategies ----------------------------------------------------------------

@st.composite
def inputs(draw, s, side, count):
    """count sequences with their own boxes; some may be all zero."""
    seqs = []
    for _ in range(count):
        c = draw(sequences(s, side))
        if draw(st.integers(0, 4)) == 0:
            c = CoefSeq(c.origin, np.zeros(c.shape))
        seqs.append(c)
    return seqs


@st.composite
def filters(draw, s, count):
    """count filters; some have a single tap."""
    out = []
    for _ in range(count):
        f = draw(sequences(s, 3 if s == 2 else 2))
        if draw(st.integers(0, 3)) == 0:
            g = np.zeros(f.shape)
            g[tuple(n - 1 for n in f.shape)] = draw(st.sampled_from([1.0, -0.5, 2.0]))
            f = CoefSeq(f.origin, g)
        out.append(f)
    return out


@st.composite
def analysis_stacks(draw):
    s = draw(st.sampled_from([2, 3]))
    xi = draw(expansive(s))
    seqs = draw(inputs(s, 7 if s == 2 else 4, draw(st.integers(1, 3))))
    return xi, seqs, draw(filters(s, draw(st.integers(1, 3))))


def common_box(seqs):
    lo = tuple(map(min, zip(*(c.origin for c in seqs))))
    hi = tuple(map(max, zip(*(c.window.hi for c in seqs))))
    return lo, hi


def stack(seqs):
    """The sequences as channels of one array over their hull: (lo, array)."""
    lo, hi = common_box(seqs)
    return lo, np.stack([embed(c, lo, hi) for c in seqs])


# -- analysis --------------------------------------------------------------------

@CHANNEL_CASES
@given(analysis_stacks())
def test_stacked_analysis_equals_per_input_calls(case):
    xi, seqs, fs = case
    origin, data = stack(seqs)
    lo, out = _analysis(origin, data, xi, fs)
    assert out.shape[:2] == (len(fs), len(seqs))
    for j, channel in enumerate(data):
        one_lo, one = _analysis(origin, channel, xi, fs)
        assert one_lo == lo
        assert out[:, j].tobytes() == one.tobytes()


@CHANNEL_CASES
@given(analysis_stacks())
def test_stacked_analysis_matches_oracle(case):
    xi, seqs, fs = case
    lo, out = _analysis(*stack(seqs), xi, fs)
    for j, c in enumerate(seqs):
        for k, f in enumerate(fs):
            got = CoefSeq(lo, out[k, j])
            assert max_abs_diff(got, oracle_analysis(c, f, xi)) <= 1e-13 * scale_of(c, f)


@CHANNEL_CASES
@given(analysis_stacks())
def test_trimmed_outputs_have_the_trimmed_box(case):
    xi, seqs, fs = case
    c = seqs[0]
    lo, out = _analysis(c.origin, c.data, xi, fs)
    for row, got in zip(out, polyphase_analysis(c, xi, fs)):
        expect = CoefSeq(lo, row).trimmed()
        assert (got.origin, got.shape) == (expect.origin, expect.shape)
        assert got.data.tobytes() == expect.data.tobytes()
        if not row.any():
            assert (got.origin, got.shape) == ((0,) * c.dim, (1,) * c.dim)
        if row.any() and got.shape == row.shape:
            assert not got.data.flags.owndata  # kept without a copy


# -- bank checks -----------------------------------------------------------------

def perturbed(bank, seed):
    """The bank with noise on every filter, so no residual is near zero."""
    rng = np.random.default_rng(seed)
    filters = {eta: CoefSeq(f.origin, f.data + 0.1 * rng.standard_normal(f.shape))
               for eta, f in bank.filters.items()}
    return dataclasses.replace(bank, filters=filters)


@settings(max_examples=30, deadline=None)
@given(banks(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_residual_matrix_equals_pair_loop(bank, seed, noisy):
    if noisy:
        bank = perturbed(bank, seed)
    got = bank.residual_matrix()
    indices = bank.indices()
    assert list(got) == [(a, b) for a in indices for b in indices]
    scale = max(float(bank.det), max((f.data ** 2).sum() for f in bank.filters.values()))
    for (eta, eta2), value in got.items():
        expect = cross_qmf_residual(bank.filters[eta], bank.filters[eta2], bank.xi,
                                    eta == eta2)
        assert abs(value - expect) <= 1e-15 * scale


def reference_rows(bank, degree, window):
    """The grid oracle's rows by one analysis and one subdivision per monomial."""
    core = _core_lags(window, bank.xi, bank.support_hull())
    out_core = subdivision_core(window, bank.xi, bank.lowpass)
    rows = []
    for expo in itertools.product(range(degree + 1), repeat=bank.dim):
        if sum(expo) > degree:
            continue
        samples = sample_polynomial([(1.0, expo)], window)
        parts = aw.analyze(bank, samples)
        detail_max = max(float(np.abs(parts[eta].values_at(core)).max())
                         for eta in bank.highpass_indices())
        refined = subdivide(SubdivisionOp.from_bank(bank), samples)
        fit = fit_residual(out_core.astype(np.float64), refined.values_at(out_core),
                           sum(expo))
        rows.append((expo, detail_max, fit))
    return rows


@settings(max_examples=25, deadline=None)
@given(banks(), st.integers(0, 1), st.integers(4, 8))
def test_reproduction_rows_equal_per_monomial_reference(bank, degree, margin):
    side = max(bank.support_hull().shape) + margin
    window = Window((0,) * bank.dim, (side - 1,) * bank.dim)
    assert grid_rows(bank, degree, window) == reference_rows(bank, degree, window)
