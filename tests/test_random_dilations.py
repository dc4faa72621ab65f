"""Banks for random dilations xi = U diag(sigma) V.

U and V are products of at most two +-1 shears and an optional axis
swap, so xi has the Smith normal form of diag(sigma) and the bank
builder must find a factorization through sigma itself.  Every such
bank must satisfy the cross-QMF identities and reconstruct a random
signal from its analysis, whatever the shears do to the filter
supports.  In 3-D with an odd scale, independent U and V give
composed Smith branches (theta2 != theta1^-1), whose sheared filters
fill boxes of 10^5 cells: their residuals must still take little
memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave.dictionary import univariate_sets_from_names
from anisowave.lattice import IntMatrix
from anisowave.seqcore import CoefSeq, max_abs_diff

#: diagonals under test with the univariate families that fit each scale
SIGMAS = {
    (2, 2): ("db2", "haar"),
    (3, 2): ("cl3", "db2"),
    (3, 3): ("cl3", "cl3"),
    (2, 2, 2): ("db2", "haar", "haar"),
}

#: 3-D diagonals with an odd scale
WIDE_SIGMAS = {
    (3, 2, 2): ("cl3", "db2", "db2"),
    (3, 3, 2): ("cl3", "cl3", "db2"),
}

#: composed-branch dilations whose filters span 81x45x48 and 20x31x23 boxes
COMPOSED = [
    ([[3, -3, 0], [-2, 4, -2], [-2, 4, 0]], (3, 2, 2), WIDE_SIGMAS[(3, 2, 2)]),
    ([[2, -2, -2], [-3, 5, 2], [0, 2, 2]], (2, 3, 2), ("db2", "cl3", "db2")),
]

#: tracemalloc bound on one residual matrix
RESIDUAL_PEAK = 64 * 2 ** 20


def elementary(s, i, j, k):
    """Identity plus k at (i, j): a shear for i != j."""
    rows = [[int(a == b) for b in range(s)] for a in range(s)]
    rows[i][j] += k
    return IntMatrix.from_rows(rows)


def swap(s, i, j):
    rows = [[int(a == b) for b in range(s)] for a in range(s)]
    rows[i], rows[j] = rows[j], rows[i]
    return IntMatrix.from_rows(rows)


@st.composite
def unimodular(draw, s):
    if s == 1:
        return IntMatrix.from_rows([[draw(st.sampled_from([1, -1]))]])
    m = IntMatrix.identity(s)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(s)))[:2]
        m = m @ elementary(s, i, j, draw(st.sampled_from([1, -1])))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(s)))[:2]
        m = m @ swap(s, i, j)
    return m


@st.composite
def banks(draw, sigmas=SIGMAS):
    sigma = draw(st.sampled_from(sorted(sigmas)))
    s = len(sigma)
    xi = draw(unimodular(s)) @ IntMatrix.diagonal(sigma) @ draw(unimodular(s))
    sets = univariate_sets_from_names(sigmas[sigma])
    return aw.build_bank(xi, sigma, sets)


def traced_residuals(bank):
    """The bank's residual matrix and the tracemalloc peak of computing it."""
    tracemalloc.start()
    try:
        residuals = bank.residual_matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return residuals, peak


RANDOM_BANKS = settings(max_examples=40, deadline=None)


@RANDOM_BANKS
@given(banks())
def test_cross_qmf_residuals(bank):
    residuals = bank.residual_matrix()
    worst = max(residuals.values())
    assert worst <= 1e-12, f"xi {bank.xi.entries}: residual {worst:.3e}"


@settings(max_examples=20, deadline=None)
@given(banks(WIDE_SIGMAS))
def test_wide_residuals_in_bounded_memory(bank):
    residuals, peak = traced_residuals(bank)
    worst = max(residuals.values())
    assert worst <= 1e-12, f"xi {bank.xi.entries}: residual {worst:.3e}"
    assert peak < RESIDUAL_PEAK


@pytest.mark.parametrize("rows,sigma,families", COMPOSED)
def test_composed_branch_residuals_in_bounded_memory(rows, sigma, families):
    bank = aw.build_bank(IntMatrix.from_rows(rows), sigma,
                         univariate_sets_from_names(families))
    fact = bank.fact
    assert fact.theta2 != aw.inverse_unimodular(fact.theta1)
    residuals, peak = traced_residuals(bank)
    assert max(residuals.values()) <= 1e-12
    assert peak < RESIDUAL_PEAK


@RANDOM_BANKS
@given(banks(), st.integers(0, 2 ** 32 - 1))
def test_analysis_then_synthesis_reconstructs(bank, seed):
    rng = np.random.default_rng(seed)
    shape = (9, 8) if bank.dim == 2 else (5, 4, 4)
    origin = tuple(int(o) for o in rng.integers(-4, 5, size=bank.dim))
    signal = CoefSeq(origin, rng.standard_normal(shape))
    back = aw.synthesize(bank, aw.analyze(bank, signal))
    assert max_abs_diff(back, signal) <= 1e-10 * signal.linf()
