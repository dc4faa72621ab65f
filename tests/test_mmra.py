import itertools
from fractions import Fraction

import numpy as np
import pytest

import anisowave as aw
from anisowave.errors import (
    DepthZeroError,
    IncompleteTreeError,
    InconsistentTreeError,
    NonTerminationError,
    OutOfSimplexError,
    WindowTooSmallError,
)
from anisowave.lattice import IntMatrix
from anisowave.mmra import _slope_value, _unsigned
from anisowave.seqcore import CoefSeq, Window, max_abs_diff


@pytest.fixture(scope="module")
def config(sets):
    return aw.build_config(3, 2, 2, None, sets, depth=2)


class TestAnalyze:
    def test_lowpass_hits_one(self, bank0):
        parts = aw.analyze(bank0, bank0.lowpass)
        assert parts[(0, 0)].value((0, 0)) == pytest.approx(1.0, abs=1e-13)
        for eta in bank0.highpass_indices():
            assert abs(parts[eta].value((0, 0))) < 1e-13

    def test_pulse_gives_reversed_filters(self, bank0):
        parts = aw.analyze(bank0, aw.delta(2))
        for eta, f in bank0.filters.items():
            expect = aw.downsample(f.reversed(), bank0.xi).scaled(1.0 / 6.0)
            assert max_abs_diff(parts[eta], expect) <= 1e-15

    def test_constant_kills_details(self, bank0):
        from anisowave.dictionary import analysis_core

        window = Window((0, 0), (24, 24))
        ones = aw.sample_polynomial([(1.0, (0, 0))], window)
        parts = aw.analyze(bank0, ones)
        core = analysis_core(window, bank0.xi, bank0.support_hull())
        for eta in bank0.highpass_indices():
            assert max(abs(parts[eta].value(g)) for g in core) <= 1e-12


class TestSynthesize:
    def test_single_pulse_component(self, bank0):
        parts = {eta: aw.delta(2) if eta == (0, 0) else
                 CoefSeq((0, 0), np.zeros((1, 1)))
                 for eta in bank0.indices()}
        out = aw.synthesize(bank0, parts)
        assert max_abs_diff(out, bank0.lowpass) <= 1e-15

    def test_perfect_reconstruction(self, bank0, bank1, haar_bank):
        rng = np.random.RandomState(17)
        for bank in (bank0, bank1, haar_bank):
            for _ in range(10):
                c = CoefSeq((0, 0), rng.randn(40, 40))
                rec = aw.synthesize(bank, aw.analyze(bank, c))
                assert max_abs_diff(rec, c) <= 1e-10 * c.linf()

    def test_parseval(self, bank0):
        rng = np.random.RandomState(18)
        for _ in range(5):
            c = CoefSeq((0, 0), rng.randn(30, 30))
            parts = aw.analyze(bank0, c)
            energy = sum(bank0.det * p.l2() ** 2 for p in parts.values())
            assert energy == pytest.approx(c.l2() ** 2, rel=1e-9)


class TestTree:
    def test_one_level_structure(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, depth=1)
        sig = CoefSeq((0, 0), np.random.RandomState(0).randn(30, 30))
        tree = aw.decompose(cfg, sig)
        assert sorted(tree.nodes) == [(), (0,), (1,)]
        for child in ((0,), (1,)):
            assert len(tree.nodes[child].details) == 5
            assert tree.nodes[child].approx is not None

    def test_two_level_counts(self, config):
        sig = CoefSeq((0, 0), np.random.RandomState(1).randn(60, 60))
        tree = aw.decompose(config, sig)
        assert len(tree.nodes) == 7
        assert sum(len(n.details) for n in tree.nodes.values()) == 30
        assert sum(1 for n in tree.nodes.values() if n.approx is not None) == 4

    def test_polynomial_details_vanish_down_the_tree(self, config):
        from anisowave.dictionary import analysis_core

        window = Window((0, 0), (53, 53))
        sig = aw.sample_polynomial([(1.0, (0, 0))], window)
        tree = aw.decompose(config, sig)

        def nested_core(cells, bank):
            # lags all of whose analysis taps land on trusted parent cells
            hull = bank.support_hull()
            dims = range(bank.dim)
            box = Window(tuple(min(c[i] for c in cells) for i in dims),
                         tuple(max(c[i] for c in cells) for i in dims))
            out = set()
            for g in analysis_core(box, bank.xi, hull):
                base = bank.xi.apply(g)
                taps = (tuple(b + m for b, m in zip(base, p))
                        for p in hull.points())
                if all(t in cells for t in taps):
                    out.add(g)
            return out

        cores = {(): set(window.points())}
        for path in tree.paths():
            if not path:
                continue
            bank = config.banks[path[-1]]
            core = nested_core(cores[path[:-1]], bank)
            cores[path] = core
            assert core, f"empty test core at node {path}"
            worst = max(abs(tree.nodes[path].details[eta].value(g))
                        for eta in tree.nodes[path].details for g in core)
            assert worst <= 1e-10, f"details at {path} reach {worst}"

    def test_roundtrip(self, config):
        rng = np.random.RandomState(2)
        sig = CoefSeq((0, 0), rng.randn(60, 60))
        tree = aw.decompose(config, sig)
        rec = aw.reconstruct(config, tree)
        assert max_abs_diff(rec, sig) <= 1e-9 * sig.linf()

    def test_path_mode_roundtrip(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, path=(1, 0))
        rng = np.random.RandomState(3)
        sig = CoefSeq((0, 0), rng.randn(60, 60))
        tree = aw.decompose(cfg, sig)
        assert sorted(tree.nodes) == [(), (1,), (1, 0)]
        rec = aw.reconstruct(cfg, tree)
        assert max_abs_diff(rec, sig) <= 1e-9 * sig.linf()

    def test_empty_path_holds_signal(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, path=())
        sig = CoefSeq((0, 0), np.random.RandomState(4).randn(20, 20))
        tree = aw.decompose(cfg, sig)
        assert list(tree.nodes) == [()]
        assert max_abs_diff(tree.nodes[()].approx, sig) == 0.0
        assert max_abs_diff(aw.reconstruct(cfg, tree), sig) == 0.0

    def test_zeroed_detail_changes_reconstruction(self, config):
        rng = np.random.RandomState(5)
        sig = CoefSeq((0, 0), rng.randn(60, 60))
        tree = aw.decompose(config, sig)
        node = tree.nodes[(0, 0)]
        eta = next(iter(node.details))
        node.details[eta] = node.details[eta].scaled(0.0)
        with pytest.raises(InconsistentTreeError):
            aw.reconstruct(config, tree)

    def test_nan_in_one_branch_rejected(self, config):
        # NaN compares False against the agreement tolerance; it must not
        # let branch 0 through as if the branches agreed
        sig = CoefSeq((0, 0), np.random.RandomState(8).randn(60, 60))
        tree = aw.decompose(config, sig)
        node = tree.nodes[(1,)]
        eta = next(iter(node.details))
        data = node.details[eta].data.copy()
        data.flat[data.size // 2] = np.nan
        node.details[eta] = CoefSeq(node.details[eta].origin, data)
        with pytest.raises(InconsistentTreeError):
            aw.reconstruct(config, tree)

    def test_recorded_m_cannot_skip_a_branch(self, config):
        sig = CoefSeq((0, 0), np.random.RandomState(15).randn(60, 60))
        tree = aw.decompose(config, sig)
        node = tree.nodes[(1,)]
        eta = next(iter(node.details))
        node.details[eta] = node.details[eta].scaled(2.0)
        tree.m = 1
        with pytest.raises(InconsistentTreeError, match="branches 0 and 1"):
            aw.reconstruct(config, tree)

    def test_non_finite_leaf_rejected_in_path_mode(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, path=(1, 0))
        tree = aw.decompose(cfg, CoefSeq((0, 0), np.random.RandomState(9).randn(60, 60)))
        leaf = tree.nodes[(1, 0)]
        data = leaf.approx.data.copy()
        data.flat[0] = np.inf
        leaf.approx = CoefSeq(leaf.approx.origin, data)
        with pytest.raises(InconsistentTreeError):
            aw.reconstruct(cfg, tree)

    def test_tree_from_another_config_rejected(self, config):
        # cl3,db2 and cl3,haar share the family and its matrices, so only
        # the recorded digest tells the two trees apart
        other = aw.build_config(3, 2, 2, None, (aw.chui_lian_ternary(), aw.haar()),
                                depth=2)
        sig = CoefSeq((0, 0), np.random.RandomState(12).randn(60, 60))
        tree = aw.decompose(config, sig)
        with pytest.raises(InconsistentTreeError, match="config"):
            aw.reconstruct(other, tree)
        assert max_abs_diff(aw.reconstruct(config, tree), sig) <= 1e-9 * sig.linf()

    @pytest.mark.parametrize("depth", [1, 3])
    def test_path_tree_depth_must_match_its_path(self, sets, depth):
        cfg = aw.build_config(3, 2, 2, None, sets, path=(1, 0))
        tree = aw.decompose(cfg, CoefSeq((0, 0), np.random.RandomState(13).randn(60, 60)))
        tree.depth = depth
        with pytest.raises(IncompleteTreeError, match="depth"):
            aw.reconstruct(cfg, tree)

    def test_path_digit_outside_the_family_rejected(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, path=(1, 0))
        tree = aw.decompose(cfg, CoefSeq((0, 0), np.random.RandomState(14).randn(60, 60)))
        tree.nodes = {tuple(2 if d == 1 else d for d in key): node
                      for key, node in tree.nodes.items()}
        with pytest.raises(InconsistentTreeError, match="digits"):
            aw.reconstruct(cfg, tree)

    def test_missing_node(self, config):
        sig = CoefSeq((0, 0), np.random.RandomState(6).randn(60, 60))
        tree = aw.decompose(config, sig)
        del tree.nodes[(1, 1)]
        with pytest.raises(IncompleteTreeError):
            aw.reconstruct(config, tree)

    def test_depth_zero_rejected(self, sets):
        cfg = aw.build_config(3, 2, 2, None, sets, depth=0)
        with pytest.raises(DepthZeroError):
            aw.decompose(cfg, aw.delta(2))

    def test_window_too_small(self, config):
        with pytest.raises(WindowTooSmallError):
            aw.decompose(config, CoefSeq((0, 0), np.ones((4, 4))))


class TestSlopeError:
    def test_empty_word(self, family):
        assert aw.slope_error(family, (), (0,), (0,)) == 0.0

    def test_single_digit(self, family):
        assert aw.slope_error(family, (1,), (0,), (Fraction(1, 3),)) == 0.0

    def test_double_digit(self, family):
        assert aw.slope_error(family, (1, 1), (0,), (Fraction(5, 9),)) == 0.0

    def test_matches_matrix_route(self, family):
        # sigma2^n Xi_eps^-1 (w,1) must equal (h_eps(w), 1) exactly
        rng = np.random.RandomState(7)
        for n in range(1, 7):
            for _ in range(8):
                eps = tuple(int(d) for d in rng.randint(0, 2, n))
                w = (Fraction(int(rng.randint(0, 100)), 100),)
                inv = aw.xi_inverse_closed_form(family, eps)
                vec = inv.apply((w[0], 1))
                scaled = tuple(Fraction(2) ** n * v for v in vec)
                hval = _slope_value(family, eps, _unsigned(family, w))
                assert scaled == (hval[0], 1)

    def test_closed_form_agrees_with_product_route(self, family):
        w, w2 = (Fraction(1, 4),), (Fraction(2, 5),)
        for eps in itertools.product(range(2), repeat=5):
            direct = aw.slope_error(family, eps, w, w2)
            inv = aw.xi_inverse_closed_form(family, eps)
            vec = inv.apply((w[0], 1))
            alt = float(abs(Fraction(2) ** 5 * vec[0] - w2[0]))
            assert direct == pytest.approx(alt, abs=1e-12)


def brute_force_first_reaching(family, w, w2, delta, n_max):
    """Oracle: shortest length at which any digit word beats delta."""
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    delta_sq = Fraction(delta) ** 2
    for n in range(1, n_max + 1):
        best = None
        for eps in itertools.product(range(family.dim), repeat=n):
            err = sum((a - b) ** 2
                      for a, b in zip(_slope_value(family, eps, u), u2))
            if best is None or err < best:
                best = err
        if best < delta_sq:
            return n, best
    return None, None


class TestSlopeDigits:
    def test_fixed_point(self, family):
        out = aw.slope_digits(family, (0,), (0,), Fraction(1, 10))
        assert out.eps == (0,) and out.achieved_error == 0.0

    def test_all_ones_geometric(self, family):
        out = aw.slope_digits(family, (0,), (1,), Fraction(1, 1000000))
        assert out.eps == (1,) * 35
        assert out.achieved_error < 1e-6
        assert out.achieved_error == pytest.approx((2.0 / 3.0) ** 35, rel=1e-12)

    def test_half_target_with_oracle(self, family):
        delta = Fraction(1, 100)
        out = aw.slope_digits(family, (0,), (Fraction(1, 2),), delta)
        assert out.n <= 12
        assert out.achieved_error < 0.01
        n_star, best_sq = brute_force_first_reaching(family, (0,),
                                                     (Fraction(1, 2),), delta, 12)
        assert n_star is not None
        best = float(best_sq) ** 0.5
        assert out.achieved_error <= 3.0 * best

    def test_achieved_error_is_recomputable(self, family):
        out = aw.slope_digits(family, (0,), (Fraction(1, 2),), Fraction(1, 100))
        recomputed = aw.slope_error(family, out.eps, (0,), (Fraction(1, 2),))
        assert out.achieved_error == pytest.approx(recomputed, abs=1e-15)

    def test_out_of_simplex(self, family):
        with pytest.raises(OutOfSimplexError):
            aw.slope_digits(family, (0,), (Fraction(3, 2),), Fraction(1, 10))
        with pytest.raises(OutOfSimplexError):
            aw.slope_digits(family, (Fraction(-1, 2),), (0,), Fraction(1, 10))

    def test_non_covering_family_raises(self):
        # ratio 2/5 leaves a hole around 1/2, unreachable for small delta
        fam = aw.dilation_family(5, 2, 2)
        with pytest.raises(NonTerminationError):
            aw.slope_digits(fam, (0,), (Fraction(1, 2),), Fraction(1, 100))

    def test_three_dim(self):
        fam = aw.dilation_family(3, 2, 3)
        out = aw.slope_digits(fam, (0, 0), (Fraction(1, 3), Fraction(1, 4)),
                              Fraction(1, 50))
        assert out.achieved_error < 0.02
        err = aw.slope_error(fam, out.eps, (0, 0),
                             (Fraction(1, 3), Fraction(1, 4)))
        assert err == pytest.approx(out.achieved_error, abs=1e-15)


class TestOrthants:
    def test_identity_signs(self, config):
        same = aw.orthant_config(config, (0,))
        for b1, b2 in zip(config.banks, same.banks):
            assert b1.xi == b2.xi
            for eta in b1.indices():
                assert max_abs_diff(b1.filters[eta], b2.filters[eta]) == 0.0

    def test_flipped_shear(self, config):
        flipped = aw.orthant_config(config, (1,))
        assert flipped.banks[1].xi == IntMatrix.from_rows([[3, 1], [0, 2]])
        assert max(flipped.banks[1].residual_matrix().values()) <= 1e-12

    def test_flipped_slopes(self):
        fam = aw.dilation_family(3, 2, 2, signs=(1,))
        out = aw.slope_digits(fam, (0,), (Fraction(-1, 2),), Fraction(1, 100))
        assert out.achieved_error < 0.01
        base = aw.dilation_family(3, 2, 2)
        ref = aw.slope_digits(base, (0,), (Fraction(1, 2),), Fraction(1, 100))
        assert out.eps == ref.eps

    def test_three_dim_variants(self, sets):
        cfg = aw.build_config(3, 2, 3, None, sets, depth=1)
        for signs in itertools.product((0, 1), repeat=2):
            variant = aw.orthant_config(cfg, signs)
            assert len(variant.banks) == 3
            from anisowave.lattice import contractivity_bound_power

            assert contractivity_bound_power(3, 2, 1) < 1


class TestCriticalSampling:
    def test_coefficient_counts(self, bank0):
        # one coefficient per signal cell, plus boundary growth bounded by
        # the filter support hull in each direction
        rng = np.random.RandomState(8)
        c = CoefSeq((0, 0), rng.randn(60, 60))
        parts = aw.analyze(bank0, c)
        total = sum(int(np.prod(p.shape)) for p in parts.values())
        hull = bank0.support_hull()
        padded = (60 + hull.shape[0] + 2) * (60 + hull.shape[1] + 2)
        assert 60 * 60 <= total <= padded
