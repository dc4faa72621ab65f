import itertools
import math

import numpy as np
import pytest

import anisowave as aw
from anisowave.errors import (
    DimMismatchError,
    NotUnimodularError,
    SingularMatrixError,
)
from anisowave.lattice import IntMatrix, inverse_unimodular
from anisowave.seqcore import CoefSeq, Window, max_abs_diff

XI1 = IntMatrix.from_rows([[3, -1], [0, 2]])
GAMMA1 = IntMatrix.from_rows([[1, -1], [0, 1]])


def seq1(values, origin=0):
    return CoefSeq((origin,), np.array(values, dtype=float))


def convolve_by_loops(a, b):
    """Oracle: direct double loop over both supports."""
    out = {}
    for alpha in a.window.points():
        for beta in b.window.points():
            key = tuple(x + y for x, y in zip(alpha, beta))
            out[key] = out.get(key, 0.0) + a.value(alpha) * b.value(beta)
    return out


class TestDelta:
    def test_one_dim(self):
        d = aw.delta(1)
        assert d.value((0,)) == 1.0 and d.value((1,)) == 0.0

    def test_two_dim(self):
        d = aw.delta(2)
        assert d.value((0, 0)) == 1.0
        assert d.value((1, 0)) == 0.0


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.RandomState(0)
        c = CoefSeq((2, -1), rng.randn(4, 5))
        assert max_abs_diff(aw.convolve(aw.delta(2), c), c) == 0.0

    def test_haar_square(self):
        out = aw.convolve(seq1([1, 1]), seq1([1, 1]))
        assert np.allclose(out.data, [1, 2, 1])
        assert out.origin == (0,)

    def test_db2_autocorrelation_even_lags(self):
        g = aw.daubechies2().filters[0]
        prod = aw.convolve(g, g.reversed())
        for lag in (-2, 2):
            assert abs(prod.value((lag,))) < 1e-14
        assert abs(prod.value((0,)) - 2.0) < 1e-14

    def test_against_loop_oracle(self):
        rng = np.random.RandomState(1)
        for _ in range(10):
            a = CoefSeq((int(rng.randint(-3, 3)), int(rng.randint(-3, 3))),
                        rng.randn(3, 4))
            b = CoefSeq((int(rng.randint(-3, 3)), int(rng.randint(-3, 3))),
                        rng.randn(2, 5))
            got = aw.convolve(a, b)
            expect = convolve_by_loops(a, b)
            for key, val in expect.items():
                assert abs(got.value(key) - val) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            aw.convolve(aw.delta(1), aw.delta(2))

    def test_linearity(self):
        rng = np.random.RandomState(2)
        a = CoefSeq((0, 0), rng.randn(4, 4))
        b = CoefSeq((1, -2), rng.randn(3, 3))
        c = CoefSeq((-1, 0), rng.randn(2, 5))
        from anisowave.seqcore import embed

        def add(x, y):
            lo = tuple(min(p, q) for p, q in zip(x.window.lo, y.window.lo))
            hi = tuple(max(p, q) for p, q in zip(x.window.hi, y.window.hi))
            return CoefSeq(lo, embed(x, lo, hi) + embed(y, lo, hi))

        lhs = aw.convolve(a, add(b, c))
        rhs = add(aw.convolve(a, b), aw.convolve(a, c))
        assert max_abs_diff(lhs, rhs) <= 1e-12 * a.linf() * (b.linf() + c.linf())


class TestCorrelate:
    def test_delta(self):
        assert max_abs_diff(aw.correlate(aw.delta(2), aw.delta(2)),
                            aw.delta(2)) == 0.0

    def test_db2_energy(self):
        g = aw.daubechies2().filters[0]
        assert abs(aw.correlate(g, g).value((0,)) - 2.0) < 1e-14

    def test_db2_cross_even_lags(self):
        s = aw.daubechies2()
        cross = aw.correlate(s.filters[0], s.filters[1])
        for lag in (-2, 0, 2):
            assert abs(cross.value((lag,))) < 1e-14


class TestResampling:
    def test_downsample_delta(self):
        assert max_abs_diff(aw.downsample(aw.delta(2), XI1), aw.delta(2)) == 0.0

    def test_downsample_1d(self):
        c = seq1([10.0, 11.0, 12.0, 13.0])
        out = aw.downsample(c, IntMatrix.from_rows([[2]]))
        assert out.value((0,)) == 10.0 and out.value((1,)) == 12.0

    def test_downsample_shifted_indicator(self):
        c = CoefSeq((3, 2), np.ones((1, 1)))
        out = aw.downsample(c, IntMatrix.diagonal([3, 2]))
        assert out.value((1, 1)) == 1.0
        assert out.data.sum() == 1.0

    def test_upsample_1d(self):
        out = aw.upsample(seq1([5.0, 7.0]), IntMatrix.from_rows([[3]]))
        assert out.data.tolist() == [5.0, 0.0, 0.0, 7.0]

    def test_roundtrip_random(self):
        rng = np.random.RandomState(3)
        mats = [IntMatrix.diagonal([2, 2]), IntMatrix.diagonal([3, 2]), XI1,
                IntMatrix.from_rows([[2, 1], [0, 3]])]
        for _ in range(100):
            xi = mats[rng.randint(len(mats))]
            c = CoefSeq((int(rng.randint(-5, 5)), int(rng.randint(-5, 5))),
                        rng.randn(*rng.randint(1, 7, 2)))
            back = aw.downsample(aw.upsample(c, xi), xi)
            assert max_abs_diff(back, c) == 0.0

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            aw.downsample(aw.delta(2), IntMatrix.from_rows([[1, 1], [1, 1]]))


class TestReindex:
    def test_identity(self):
        rng = np.random.RandomState(4)
        c = CoefSeq((-1, 2), rng.randn(3, 3))
        assert max_abs_diff(aw.reindex(c, IntMatrix.identity(2)), c) == 0.0

    def test_group_action(self):
        rng = np.random.RandomState(5)
        c = CoefSeq((0, 0), rng.randn(4, 5))
        back = aw.reindex(aw.reindex(c, GAMMA1), inverse_unimodular(GAMMA1))
        assert max_abs_diff(back, c) == 0.0

    def test_sheared_support(self, sets):
        h = aw.tensor([sets[0].filters[0], sets[1].filters[0]])
        out = aw.reindex(h, GAMMA1)
        gamma_inv = inverse_unimodular(GAMMA1)
        expected = {gamma_inv.apply(p) for p in h.window.points()}
        actual = {p for p in out.window.points() if out.value(p) != 0.0}
        assert actual == {q for q in expected
                          if h.value(GAMMA1.apply(q)) != 0.0}
        for q in actual:
            assert out.value(q) == h.value(GAMMA1.apply(q))

    def test_l2_preserved(self):
        rng = np.random.RandomState(6)
        c = CoefSeq((0, 0), rng.randn(6, 6))
        assert aw.reindex(c, GAMMA1).l2() == pytest.approx(c.l2(), abs=0.0)

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            aw.reindex(aw.delta(2), IntMatrix.diagonal([3, 2]))


class TestTensor:
    def test_delta(self):
        assert max_abs_diff(aw.tensor([aw.delta(1), aw.delta(1)]),
                            aw.delta(2)) == 0.0

    def test_db2_squared_value(self):
        g = aw.daubechies2().filters[0]
        t = aw.tensor([g, g])
        assert t.value((0, 0)) == pytest.approx((2 + math.sqrt(3)) / 8, abs=1e-15)

    def test_mixed_value(self):
        s = aw.daubechies2()
        t = aw.tensor([s.filters[0], s.filters[1]])
        assert t.value((0, 0)) == pytest.approx(-1.0 / 8.0, abs=1e-15)

    def test_mass_multiplies(self, sets):
        t = aw.tensor([sets[0].filters[0], sets[1].filters[0]])
        assert t.sum() == pytest.approx(6.0, rel=1e-14)


class TestQMFResidual:
    def test_db2(self):
        g = aw.daubechies2().filters[0]
        assert aw.qmf_residual(g, IntMatrix.from_rows([[2]])) <= 1e-14

    def test_sheared_tensor_mask(self, sets, bank1):
        assert aw.qmf_residual(bank1.lowpass, XI1) <= 1e-12

    def test_haar(self):
        assert aw.qmf_residual(seq1([1.0, 1.0]), IntMatrix.from_rows([[2]])) == 0.0

    def test_delta_not_qmf_for_two(self):
        assert aw.qmf_residual(aw.delta(1), IntMatrix.from_rows([[2]])) == 1.0

    def test_invariant_under_conjugated_reindex(self, sets):
        sigma = IntMatrix.diagonal([3, 2])
        masks = [aw.tensor([sets[0].filters[0], sets[1].filters[0]]),
                 aw.tensor([seq1([1.0, 2.0, 1.0]), seq1([0.5, 0.5])])]
        for h in masks:
            base = aw.qmf_residual(h, sigma)
            conj = aw.qmf_residual(aw.reindex(h, GAMMA1), XI1)
            assert conj == pytest.approx(base, abs=1e-12)


class TestCrossQMF:
    def test_lowpass_self(self, bank0):
        b = bank0.lowpass
        assert aw.cross_qmf_residual(b, b, bank0.xi, True) <= 1e-12

    def test_all_pairs(self, bank0):
        idx = bank0.indices()
        for e1, e2 in itertools.product(idx, idx):
            r = aw.cross_qmf_residual(bank0.filters[e1], bank0.filters[e2],
                                      bank0.xi, e1 == e2)
            assert r <= 1e-12

    def test_delta_pair(self):
        d = aw.delta(1)
        assert aw.cross_qmf_residual(d, d, IntMatrix.from_rows([[2]]), True) == 1.0


class TestSamplePolynomial:
    def test_constant(self):
        w = Window((0, 0), (3, 3))
        out = aw.sample_polynomial([(1.0, (0, 0))], w)
        assert np.all(out.data == 1.0) and out.shape == (4, 4)

    def test_coordinate(self):
        w = Window((0, 0), (2, 2))
        out = aw.sample_polynomial([(1.0, (1, 0))], w)
        assert out.data[:, 0].tolist() == [0.0, 1.0, 2.0]

    def test_linear_combination(self):
        w = Window((0, 0), (2, 2))
        out = aw.sample_polynomial([(1.0, (1, 0)), (2.0, (0, 1))], w)
        assert out.value((1, 1)) == 3.0
