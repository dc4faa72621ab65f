import itertools

import numpy as np
import pytest

import anisowave as aw
from anisowave import mmra
from anisowave.dictionary import (
    FAMILIES,
    ReproductionReport,
    ReproductionRow,
    moment_order_nd,
    reproduction_check,
    univariate_sets_from_names,
)
from anisowave.errors import (
    IncompatibleDiagonalError,
    ScaleMismatchError,
    WindowTooSmallError,
)
from anisowave.lattice import IntMatrix
from anisowave.seqcore import Window, max_abs_diff
from grid_oracle import grid_rows
from test_subdivision import count_trims

GAMMA1 = IntMatrix.from_rows([[1, -1], [0, 1]])


class TestUnivariateFamilies:
    @pytest.mark.parametrize("name,const", [("haar", 2), ("db2", 2), ("cl3", 3)])
    def test_qmf_identities(self, name, const):
        s = FAMILIES[name]()
        assert s.scale == const
        assert max(s.qmf_residuals().values()) <= 1e-13

    def test_lowpass_sums(self):
        assert aw.haar().filters[0].sum() == 2.0
        assert aw.daubechies2().filters[0].sum() == pytest.approx(2.0, abs=1e-14)
        assert aw.chui_lian_ternary().filters[0].sum() == pytest.approx(3.0, abs=1e-13)

    def test_highpass_sums_vanish(self):
        for s in (aw.haar(), aw.daubechies2(), aw.chui_lian_ternary()):
            for f in s.filters[1:]:
                assert abs(f.sum()) < 1e-13

    def test_ternary_first_moment(self):
        g1 = aw.chui_lian_ternary().filters[1]
        pos = np.arange(g1.shape[0], dtype=float)
        assert abs(float((pos * g1.data).sum())) < 1e-14


class TestSetsTrimOnFirstUse:
    """Sets keep their filters as given; only renders read them trimmed."""

    def test_building_trims_nothing(self, monkeypatch):
        calls = count_trims(monkeypatch)
        sets = univariate_sets_from_names(["cl3", "db2", "haar"])
        aw.build_bank(IntMatrix.from_rows([[3, -1], [0, 2]]), (3, 2), sets[:2])
        mmra.build_config(3, 2, 2, None, sets[:2])
        assert calls == []
        sets[0].trimmed_filters
        assert len(calls) == 3

    def test_zero_margins_stay_in_filters(self):
        given = [((-1,), np.array([0.0, 1.0, 1.0, 0.0, 0.0])),
                 ((-1,), np.array([0.0, 0.0, 1.0, -1.0, 0.0]))]
        padded = aw.UnivariateQMFSet(2, tuple(aw.CoefSeq(o, d.copy()) for o, d in given))
        assert [t.window for t in padded.trimmed_filters] == [Window((0,), (1,)),
                                                              Window((1,), (2,))]
        for f, (origin, data) in zip(padded.filters, given):
            assert f.origin == origin and f.shape == data.shape
            assert f.data.tobytes() == data.tobytes()
        config = mmra.build_config(3, 2, 2, None, (aw.chui_lian_ternary(), padded))
        # the digest hashes every bank filter's box and bytes; this value was
        # taken before sets kept trimmed filters, when they kept only these
        assert config.digest() == "8e217cf76bc0d0d1"
        assert config.banks[0].filters[(0, 0)].shape == (6, 5)


class TestMomentOrder:
    def test_db2_highpass(self):
        assert aw.moment_order(aw.daubechies2().filters[1]) == 2

    def test_ternary_highpass(self):
        s = aw.chui_lian_ternary()
        assert aw.moment_order(s.filters[1]) == 2
        assert aw.moment_order(s.filters[2]) == 2

    def test_lowpass_zero(self):
        assert aw.moment_order(aw.daubechies2().filters[0]) == 0

    def test_haar_highpass_one(self):
        assert aw.moment_order(aw.haar().filters[1]) == 1

    def test_tensor_of_two_highpass_gets_four(self, bank0):
        # both axes contribute two vanishing moments; mixed degree-2 and
        # degree-3 moments factor through a vanishing univariate moment
        assert moment_order_nd(bank0.filters[(1, 1)]) == 4
        assert moment_order_nd(bank0.filters[(2, 1)]) == 4


class TestBuildBank:
    def test_matches_tensor_layout(self, bank0, sets):
        for k, l in itertools.product(range(3), range(2)):
            expect = aw.tensor([sets[0].filters[k], sets[1].filters[l]])
            assert max_abs_diff(bank0.filters[(k, l)], expect) == 0.0

    def test_critical_sampling(self, bank0, bank1, haar_bank):
        assert len(bank0.filters) == 6
        assert len(bank1.filters) == 6
        assert len(haar_bank.filters) == 4

    def test_sheared_bank_is_reindexed_base(self, bank0, bank1):
        for eta in bank0.indices():
            expect = aw.reindex(bank0.filters[eta], GAMMA1)
            assert max_abs_diff(bank1.filters[eta], expect) == 0.0

    def test_residuals(self, bank0, bank1, haar_bank):
        for bank in (bank0, bank1, haar_bank):
            assert max(bank.residual_matrix().values()) <= 1e-12

    def test_mass(self, bank0, bank1, haar_bank):
        for bank in (bank0, bank1):
            assert bank.lowpass.sum() == pytest.approx(6.0, abs=1e-12)
            for eta in bank.highpass_indices():
                assert abs(bank.filters[eta].sum()) < 1e-12
        assert haar_bank.lowpass.sum() == 4.0

    def test_haar_square_qmf_constant(self, haar_bank):
        c = aw.correlate(haar_bank.lowpass, haar_bank.lowpass)
        assert c.value((0, 0)) == 4.0

    def test_scale_mismatch(self, sets):
        with pytest.raises(ScaleMismatchError):
            aw.build_bank(IntMatrix.diagonal([3, 2]), (3, 2), (sets[1], sets[1]))

    def test_incompatible_diagonal(self, sets):
        with pytest.raises(IncompatibleDiagonalError):
            aw.build_bank(IntMatrix.diagonal([4, 2]), (3, 2),
                          (sets[0], sets[1]))

    def test_one_dimensional_degenerates_to_set(self):
        s = aw.daubechies2()
        bank = aw.build_bank(IntMatrix.from_rows([[2]]), (2,), (s,))
        assert max_abs_diff(bank.lowpass, s.filters[0]) == 0.0
        assert max_abs_diff(bank.filters[(1,)], s.filters[1]) == 0.0

    def test_named_lookup(self):
        sets = univariate_sets_from_names(["cl3", "db2"])
        assert sets[0].scale == 3 and sets[1].scale == 2
        with pytest.raises(ScaleMismatchError):
            univariate_sets_from_names(["nope"])


class TestReproduction:
    def test_worked_banks_reproduce_degree_one(self, bank0, bank1):
        window = Window((0, 0), (26, 26))
        for bank in (bank0, bank1):
            report = reproduction_check(bank, 1, window)
            assert report.max_detail <= 1e-10
            assert report.max_sum_rule_gap <= 1e-9
            assert max(fit for _, _, fit in grid_rows(bank, 1, window)) <= 1e-9

    def test_haar_reproduces_constants(self, haar_bank):
        report = reproduction_check(haar_bank, 0, Window((0, 0), (15, 15)))
        assert report.max_detail <= 1e-10

    def test_haar_fails_degree_one(self, haar_bank):
        report = reproduction_check(haar_bank, 1, Window((0, 0), (15, 15)))
        worst = max(r.detail_max for r in report.rows if sum(r.exponent) == 1)
        assert worst > 1e-6

    def test_window_too_small(self, bank0):
        with pytest.raises(WindowTooSmallError):
            reproduction_check(bank0, 1, Window((0, 0), (3, 3)))


class TestNaNFilters:
    """A NaN in one filter must reach every maximum a bank check reports."""

    @staticmethod
    def poisoned(bank, eta):
        filters = dict(bank.filters)
        data = filters[eta].data.copy()
        data[(3,) + (0,) * (bank.dim - 1)] = np.nan
        filters[eta] = aw.CoefSeq(filters[eta].origin, data)
        return aw.AnisoFilterBank(bank.xi, bank.fact, bank.sigma, filters, None)

    def test_residuals_of_the_filter_are_nan(self, bank1):
        bank = self.poisoned(bank1, (2, 1))
        residuals = bank.residual_matrix()
        assert residuals[((2, 1), (2, 1))] != residuals[((2, 1), (2, 1))]
        assert residuals[((0, 1), (2, 1))] != residuals[((0, 1), (2, 1))]
        assert residuals[((0, 0), (0, 0))] <= 1e-12

    @pytest.mark.parametrize("eta", [(1, 0), (2, 1)])
    def test_report_maxima_are_nan(self, bank1, eta):
        bank = self.poisoned(bank1, eta)
        report = reproduction_check(bank, 1, Window((0, 0), (26, 26)))
        assert np.isnan(report.max_detail)
        assert not report.max_detail <= 1e-10

    def test_lowpass_nan_makes_the_sum_rule_gap_nan(self, bank1):
        report = reproduction_check(self.poisoned(bank1, (0, 0)), 1,
                                    Window((0, 0), (26, 26)))
        assert np.isnan(report.max_sum_rule_gap)

    def test_report_maxima_propagate_a_late_nan(self):
        rows = tuple(ReproductionRow(e, d, f) for e, d, f in
                     [((0, 0), 1e-14, 1e-13), ((0, 1), np.nan, 1e-13),
                      ((1, 0), 1e-14, np.nan)])
        report = ReproductionReport(1, Window((0, 0), (5, 5)), rows)
        assert np.isnan(report.max_detail) and np.isnan(report.max_sum_rule_gap)
