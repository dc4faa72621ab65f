"""Banks for random dilations xi = U diag(sigma) V.

U and V are products of at most two +-1 shears and an optional axis
swap, so xi has the Smith normal form of diag(sigma) and the bank
builder must find a factorization through sigma itself.  Every such
bank must satisfy the cross-QMF identities and reconstruct a random
signal from its analysis, whatever the shears do to the filter
supports.
"""

import numpy as np
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
    m = IntMatrix.identity(s)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.permutations(range(s)))[:2]
        m = m @ elementary(s, i, j, draw(st.sampled_from([1, -1])))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(s)))[:2]
        m = m @ swap(s, i, j)
    return m


@st.composite
def banks(draw):
    sigma = draw(st.sampled_from(sorted(SIGMAS)))
    s = len(sigma)
    xi = draw(unimodular(s)) @ IntMatrix.diagonal(sigma) @ draw(unimodular(s))
    sets = univariate_sets_from_names(SIGMAS[sigma])
    return aw.build_bank(xi, sigma, sets)


RANDOM_BANKS = settings(max_examples=40, deadline=None)


@RANDOM_BANKS
@given(banks())
def test_cross_qmf_residuals(bank):
    residuals = bank.residual_matrix()
    worst = max(residuals.values())
    assert worst <= 1e-12, f"xi {bank.xi.entries}: residual {worst:.3e}"


@RANDOM_BANKS
@given(banks(), st.integers(0, 2 ** 32 - 1))
def test_analysis_then_synthesis_reconstructs(bank, seed):
    rng = np.random.default_rng(seed)
    shape = (9, 8) if bank.dim == 2 else (5, 4, 4)
    origin = tuple(int(o) for o in rng.integers(-4, 5, size=bank.dim))
    signal = CoefSeq(origin, rng.standard_normal(shape))
    back = aw.synthesize(bank, aw.analyze(bank, signal))
    assert max_abs_diff(back, signal) <= 1e-10 * signal.linf()
