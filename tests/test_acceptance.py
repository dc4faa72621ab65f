"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Expensive artifacts (cascades, diagnostics) are computed once
in module fixtures and shared.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import anisowave as aw
from anisowave.lattice import (
    IntMatrix,
    RatMatrix,
    SmithFactorization,
    contractivity_bound_power,
)
from anisowave.mmra import _unsigned
from anisowave.seqcore import CoefSeq, Window, max_abs_diff
from anisowave.subdivision import SubdivisionOp
from lattice_oracle import contraction_word

XI0 = IntMatrix.diagonal([3, 2])
XI1 = IntMatrix.from_rows([[3, -1], [0, 2]])


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_smith_worked_example():
    m = IntMatrix.diagonal([3, 2, 2])
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        fact = aw.smith_normal_form(m)
        best = min(best, time.perf_counter() - t0)
    ok = (fact.sigma == (1, 2, 6) and fact.reconstruct() == m and best < 1e-3)
    report(1, ok, f"smith diag(3,2,2) -> {fact.sigma}, exact reconstruction, "
                  f"{best * 1e6:.0f} us")


def test_criterion_2_target_factorization():
    fact = aw.smith_with_target(XI1, (3, 2))
    computed_ok = (fact.reconstruct() == XI1
                   and aw.is_unimodular(fact.theta1)
                   and aw.is_unimodular(fact.theta2))
    printed = SmithFactorization(IntMatrix.from_rows([[1, 1], [0, 1]]), (3, 2),
                                 IntMatrix.from_rows([[1, -1], [0, 1]]))
    printed_ok = printed.reconstruct() == XI1
    report(2, computed_ok and printed_ok,
           f"computed factors theta1={fact.theta1.entries} reproduce the "
           f"dilation exactly; reference pair verifies: {printed_ok}")


def test_criterion_3_qmf_identities(bank0, bank1):
    t0 = time.perf_counter()
    worst_bank = 0.0
    for bank in (bank0, bank1):
        worst_bank = max(worst_bank, max(bank.residual_matrix().values()))
    worst_uni = max(max(aw.daubechies2().qmf_residuals().values()),
                    max(aw.chui_lian_ternary().qmf_residuals().values()))
    elapsed = time.perf_counter() - t0
    ok = worst_bank <= 1e-12 and worst_uni <= 1e-13 and elapsed < 0.1
    report(3, ok, f"72 bank residuals <= {worst_bank:.2e} (tol 1e-12), "
                  f"univariate <= {worst_uni:.2e} (tol 1e-13), {elapsed:.3f}s")


def test_criterion_4_perfect_reconstruction(bank0, bank1, haar_bank, sets):
    rng = np.random.RandomState(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for bank in (bank0, bank1, haar_bank):
        for _ in range(100):
            c = CoefSeq((0, 0), rng.randn(60, 60))
            rec = aw.synthesize(bank, aw.analyze(bank, c))
            worst = max(worst, max_abs_diff(rec, c) / c.linf())
    config = aw.build_config(3, 2, 2, None, sets, depth=3)
    sig = CoefSeq((0, 0), rng.randn(60, 60))
    tree_err = max_abs_diff(aw.reconstruct(config, aw.decompose(config, sig)),
                            sig) / sig.linf()
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and tree_err <= 1e-9 and elapsed < 10.0
    report(4, ok, f"300 roundtrips worst {worst:.2e} (tol 1e-10), L=3 tree "
                  f"{tree_err:.2e} (tol 1e-9), {elapsed:.1f}s (< 10s)")


def test_criterion_5_vanishing_moments(bank0, bank1):
    from anisowave.dictionary import analysis_core

    t0 = time.perf_counter()
    window = Window((0, 0), (29, 29))
    worst = 0.0
    for bank in (bank0, bank1):
        core = analysis_core(window, bank.xi, bank.support_hull())
        assert core
        for expo in [(0, 0), (1, 0), (0, 1)]:
            samples = aw.sample_polynomial([(1.0, expo)], window)
            parts = aw.analyze(bank, samples)
            for eta in bank.highpass_indices():
                worst = max(worst, max(abs(parts[eta].value(g)) for g in core))
    cl3 = aw.chui_lian_ternary()
    db2 = aw.daubechies2()
    orders = [aw.moment_order(f) for f in (cl3.filters[1], cl3.filters[2],
                                           db2.filters[1])]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and all(o == 2 for o in orders) and elapsed < 1.0
    report(5, ok, f"details of 1, x1, x2 <= {worst:.2e} on cores (tol 1e-10), "
                  f"univariate highpass moment orders {orders}, {elapsed:.2f}s")


def test_criterion_6_conjugation_identity(bank1):
    t0 = time.perf_counter()
    gaps = [aw.conjugation_check(bank1, r) for r in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 1e-12 and elapsed < 1.0
    report(6, ok, f"conjugated iterations agree to {max(gaps):.2e} "
                  f"(tol 1e-12) for r=1,2,3, {elapsed:.2f}s")


def test_criterion_7_closed_forms(family):
    ident = RatMatrix.identity(2)
    cases = 0
    for n in range(1, 8):
        for eps in itertools.product(range(2), repeat=n):
            prod = aw.xi_product(family, eps)
            inv = aw.xi_inverse_closed_form(family, eps)
            assert (inv @ prod).entries == ident.entries
            cases += 1
    norms_ok = True
    for n in range(1, 9):
        bound = contractivity_bound_power(3, 2, n)
        for eps in itertools.product(range(2), repeat=n):
            norm = aw.xi_inverse_closed_form(family, eps).norm_inf()
            norms_ok = norms_ok and norm < 1 and norm <= bound
    report(7, cases == 254 and norms_ok,
           f"{cases} exact inverse identities (2*(2^7-1)); "
           f"norms < 1 and within the bound for all words up to n=8: {norms_ok}")


def test_criterion_8_slope_resolution(family):
    t0 = time.perf_counter()
    delta = Fraction(1, 100)
    out = aw.slope_digits(family, (0,), (Fraction(1, 2),), delta)

    # independent oracle: exhaustively find the shortest word length at
    # which any digit string reaches the tolerance, and the best error there
    u = _unsigned(family, (0,))
    u2 = _unsigned(family, (Fraction(1, 2),))
    best_sq = None
    for n in range(1, 13):
        level_best = min(
            sum((a - b) ** 2 for a, b in zip(contraction_word(family, eps, u), u2))
            for eps in itertools.product(range(2), repeat=n))
        if level_best < delta * delta:
            best_sq = level_best
            break
    oracle = math.sqrt(float(best_sq))

    analytic = aw.slope_digits(family, (0,), (1,), Fraction(1, 1000000))
    n_expected = math.ceil(math.log(1e-6) / math.log(2.0 / 3.0))
    elapsed = time.perf_counter() - t0
    ok = (out.achieved_error < 0.01 and out.n <= 12
          and out.achieved_error <= 3.0 * oracle
          and analytic.eps == (1,) * n_expected
          and elapsed < 5.0)
    report(8, ok, f"greedy err {out.achieved_error:.4e} at n={out.n} vs oracle "
                  f"{oracle:.4e} (factor {out.achieved_error / oracle:.2f} <= 3); "
                  f"analytic word = 1^{n_expected}; {elapsed:.1f}s")


@pytest.fixture(scope="module")
def lowpass_ops(bank0, bank1):
    return (SubdivisionOp(bank0.xi, bank0.lowpass),
            SubdivisionOp(bank1.xi, bank1.lowpass))


def test_criterion_9_cascade_and_mmra_sanity(bank0, bank1, lowpass_ops):
    t0 = time.perf_counter()
    decreasing = True
    for op in lowpass_ops:
        d = aw.convergence_diagnostic(op, 8)
        decreasing = decreasing and all(d[i] > d[i + 1] for i in range(1, 6))

    phi = aw.cascade(lowpass_ops[0], 7)
    grams = {shift: aw.gram_check(phi, phi, shift)
             for shift in [(0, 0), (1, 0), (0, 1)]}
    gram_ok = (abs(grams[(0, 0)] - 1.0) <= 5e-2
               and abs(grams[(1, 0)]) <= 5e-2
               and abs(grams[(0, 1)]) <= 5e-2)

    joint_ok = True
    banks = (bank0, bank1)
    for mu in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]:
        for j in (0, 1):
            joint_ok = joint_ok and (
                aw.joint_refinement_residual(banks, j, mu, 3) <= 1e-10)

    # limit-function panels for both banks (qualitative figure grids)
    panels = 0
    for bank in banks:
        for eta in bank.indices():
            sf = aw.wavelet_samples(bank, eta, 5)
            assert np.isfinite(sf.values).all() and sf.as_seq().linf() > 0
            panels += 1

    elapsed = time.perf_counter() - t0
    ok = decreasing and gram_ok and joint_ok and panels == 12 and elapsed < 60.0
    report(9, ok, f"d_r strictly decreasing r=2..7 (both masks): {decreasing}; "
                  f"grams {grams[(0,0)]:.3f}/{grams[(1,0)]:.1e}/{grams[(0,1)]:.1e} "
                  f"(tol 5e-2); joint refinement <= 1e-10: {joint_ok}; "
                  f"12 limit grids rendered; {elapsed:.0f}s (< 60s)")
