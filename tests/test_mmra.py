import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave.errors import (
    BadDigitError,
    BadIndexError,
    DepthZeroError,
    DimMismatchError,
    IncompleteTreeError,
    InconsistentTreeError,
    NonTerminationError,
    OutOfSimplexError,
    WindowTooSmallError,
)
from anisowave.dictionary import _core_lags
from anisowave.lattice import IntMatrix, rational_inverse
from anisowave.mmra import _distsq, _exact_text, _unsigned
from anisowave.seqcore import CoefSeq, Window, _lag_box, max_abs_diff
from lattice_oracle import contraction_word


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

    def test_errors(self, bank0):
        with pytest.raises(BadIndexError):
            aw.synthesize(bank0, {(0, 0): aw.delta(2), (5, 5): aw.delta(2)})
        with pytest.raises(DimMismatchError):
            aw.synthesize(bank0, {(0, 0): aw.delta(2), (0, 1): aw.delta(3)})
        with pytest.raises(ValueError, match="no components"):
            aw.synthesize(bank0, {})

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


@pytest.fixture(scope="module")
def chain_configs(sets):
    return {2: aw.build_config(3, 2, 2, None, sets, depth=1),
            3: aw.build_config(3, 2, 3, (1, 0), sets, depth=1)}


def enumerated_chain(config, window, levels, path):
    """Oracle: every analysis step keeps a lag, found by enumerating them all."""
    boxes = [window]
    for level in range(levels):
        digits = range(config.m) if path is None else (path[level],)
        children = []
        for box in boxes:
            for j in digits:
                bank = config.banks[j]
                if not len(_core_lags(box, bank.xi, bank.support_hull())):
                    return False
                children.append(Window(*_lag_box(bank.xi, box, bank.lowpass.window)))
        boxes = children
    return True


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_too_small_matches_enumeration(chain_configs, data):
    s = data.draw(st.sampled_from([2, 3]))
    base = chain_configs[s]
    depth = data.draw(st.integers(1, 3 if s == 2 else 2))
    if data.draw(st.booleans()):
        path = tuple(data.draw(st.integers(0, base.m - 1)) for _ in range(depth))
        config = dataclasses.replace(base, depth=None, path=path)
    else:
        path, config = None, dataclasses.replace(base, depth=depth)
    shape = tuple(data.draw(st.integers(1, 80 if s == 2 else 24)) for _ in range(s))
    origin = tuple(data.draw(st.integers(-5, 5)) for _ in range(s))
    signal = CoefSeq(origin, np.ones(shape))
    if enumerated_chain(config, signal.window, depth, path):
        aw.decompose(config, signal)
    else:
        with pytest.raises(WindowTooSmallError):
            aw.decompose(config, signal)


@pytest.mark.parametrize("depth, path, refusal", [
    (2, None, None),
    (3, None, "signal too small for full depth 3"),
    (None, (0, 1, 1), "signal too small for path depth 3"),
    (None, (1, 1, 0), None),
])
def test_window_too_small_on_22_ones(chain_configs, depth, path, refusal):
    # the walk refuses at the first node without a boundary-free lag
    config = dataclasses.replace(chain_configs[2], depth=depth, path=path)
    signal = CoefSeq((0, 0), np.ones((22, 22)))
    if refusal is None:
        tree = aw.decompose(config, signal)
        assert tree.depth == (depth or len(path))
    else:
        with pytest.raises(WindowTooSmallError, match=refusal):
            aw.decompose(config, signal)


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
                hval = contraction_word(family, eps, _unsigned(family, w))
                assert scaled == (hval[0], 1)

    def test_closed_form_agrees_with_product_route(self, family):
        w, w2 = (Fraction(1, 4),), (Fraction(2, 5),)
        for eps in itertools.product(range(2), repeat=5):
            direct = aw.slope_error(family, eps, w, w2)
            inv = aw.xi_inverse_closed_form(family, eps)
            vec = inv.apply((w[0], 1))
            alt = float(abs(Fraction(2) ** 5 * vec[0] - w2[0]))
            assert direct == pytest.approx(alt, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_inverse_of_the_product(self, data):
        # oracle: v = sigma2^n xi_product(eps)^-1 (w, 1), whose last entry
        # is 1 and whose first s - 1 entries, unsigned, are the steered slope
        s = data.draw(st.sampled_from((2, 3)))
        sigma1, sigma2 = data.draw(st.sampled_from(SLOPE_SCALES))
        signs = data.draw(st.lists(st.integers(0, 1), min_size=s - 1, max_size=s - 1))
        family = aw.dilation_family(sigma1, sigma2, s, signs)
        eps = data.draw(st.lists(st.integers(0, s - 1), max_size=8))
        slope = st.fractions(-2, 2, max_denominator=1000)
        w, w2 = (tuple(data.draw(st.lists(slope, min_size=s - 1, max_size=s - 1)))
                 for _ in range(2))
        inv = rational_inverse(aw.xi_product(family, eps))
        v = [sigma2 ** len(eps) * x for x in inv.apply(w + (1,))]
        assert v[-1] == 1
        steered = _unsigned(family, v[:-1])
        expect = math.sqrt(float(_distsq(steered, _unsigned(family, w2))))
        assert aw.slope_error(family, eps, w, w2) == expect

    def test_digit_out_of_range(self, family):
        with pytest.raises(BadDigitError, match=r"digit 2 outside range\(0, 2\)"):
            aw.slope_error(family, (0, 2, 1), (0,), (0,))


def brute_force_first_reaching(family, w, w2, delta, n_max):
    """Oracle: shortest length at which any digit word beats delta."""
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    delta_sq = Fraction(delta) ** 2
    for n in range(1, n_max + 1):
        best = None
        for eps in itertools.product(range(family.dim), repeat=n):
            err = sum((a - b) ** 2
                      for a, b in zip(contraction_word(family, eps, u), u2))
            if best is None or err < best:
                best = err
        if best < delta_sq:
            return n, best
    return None, None


#: (sigma1, sigma2) pairs for the slope properties; ratio 2/5 leaves holes
SLOPE_SCALES = ((3, 2), (5, 2), (4, 3))


@st.composite
def slope_problems(draw):
    """A family, two slopes in its sign-adapted simplex and a tolerance."""
    s = draw(st.sampled_from((2, 3)))
    sigma1, sigma2 = draw(st.sampled_from(SLOPE_SCALES))
    signs = tuple(draw(st.lists(st.integers(0, 1), min_size=s - 1, max_size=s - 1)))
    family = aw.dilation_family(sigma1, sigma2, s, signs)

    def point():
        cuts = sorted(draw(st.lists(st.integers(0, 10 ** 6),
                                    min_size=s - 1, max_size=s - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts)]
        return tuple(Fraction(p * (-1) ** b, 10 ** 6) for p, b in zip(parts, signs))

    return family, point(), point(), Fraction(1, 10 ** draw(st.integers(1, 12)))


def check_against_replay(family, w, w2, delta, out):
    """The word reaches delta when replayed, and no shorter prefix does."""
    u, u2 = _unsigned(family, w), _unsigned(family, w2)

    def gap_sq(eps):
        return _distsq(contraction_word(family, eps, u), u2)

    assert out.n == len(out.eps)
    assert gap_sq(out.eps) < delta ** 2
    assert out.achieved_error == aw.slope_error(family, out.eps, w, w2)
    if out.n > 1:
        assert not gap_sq(out.eps[:-1]) < delta ** 2


class TestSlopeDigits:
    @settings(max_examples=150, deadline=None)
    @given(slope_problems())
    def test_matches_replay(self, problem):
        family, w, w2, delta = problem
        try:
            out = aw.slope_digits(family, w, w2, delta)
        except NonTerminationError:
            return
        check_against_replay(family, w, w2, delta, out)

    def test_long_word_matches_replay(self, family):
        delta = Fraction(1, 10 ** 24)
        out = aw.slope_digits(family, (0,), (Fraction(1, 2),), delta)
        assert out.n == 136
        check_against_replay(family, (0,), (Fraction(1, 2),), delta, out)

    def test_tolerance_below_float_range(self, family):
        # float(delta) is 0.0: the cap comes from delta's numerator and
        # denominator, and the float achieved_error underflows to 0.0
        delta = Fraction(1, 10 ** 330)
        out = aw.slope_digits(family, (0,), (Fraction(1, 2),), delta)
        assert out.n == 1874 and out.achieved_error == 0.0
        check_against_replay(family, (0,), (Fraction(1, 2),), delta, out)

    def test_tolerance_above_float_range(self, family):
        # float(10^400) overflows; any tolerance above the simplex's
        # diameter is met by the one digit always emitted
        out = aw.slope_digits(family, (0,), (Fraction(1, 2),), Fraction(10 ** 400))
        assert out.n == 1

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

    @pytest.mark.parametrize("delta", [0, Fraction(-1, 2)])
    def test_non_positive_tolerance_is_a_value_error(self, family, delta):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            aw.slope_digits(family, (0,), (Fraction(1, 2),), delta)

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


def _fraction_projection(p):
    """Euclidean projection onto {z >= 0, sum z <= 1} in Fractions."""
    clipped = [max(x, Fraction(0)) for x in p]
    if sum(clipped) <= 1:
        return tuple(clipped)
    theta = cumulative = Fraction(0)
    for i, u in enumerate(sorted(p, reverse=True), start=1):
        cumulative += u
        candidate = (cumulative - 1) / i
        if u - candidate > 0:
            theta = candidate
    return tuple(max(x - theta, Fraction(0)) for x in p)


def fraction_slope_digits(family, w, w2, delta):
    """The greedy digit loop in ``Fraction`` arithmetic: the oracle of
    ``slope_digits``, which runs the same steps in integers."""
    delta = Fraction(delta)
    u, u2 = _unsigned(family, w), _unsigned(family, w2)
    x, k = family.ratio, family.dim - 1
    diameter = 1.0 if k == 1 else math.sqrt(2.0)
    expected = 1
    if delta < 2 * diameter:
        quotient = float(delta) / (2 * diameter)
        log_quotient = (math.log(quotient) if quotient > 0 else
                        math.log(delta.numerator) - math.log(delta.denominator)
                        - math.log(2 * diameter))
        expected = max(1, math.ceil(log_quotient / math.log(float(x))))
    cap = max(10 * expected, 20)
    digits, offset, power, t = [], [Fraction(0)] * k, Fraction(1), u2
    while True:
        best_j, best_d, best_t = 0, None, None
        for j in range(family.dim):
            pulled = [ti / x for ti in t]
            if j > 0:
                pulled[j - 1] = (t[j - 1] - (1 - x)) / x
            projected = _fraction_projection(pulled)
            d = _distsq(projected, pulled)
            if best_d is None or d < best_d:
                best_j, best_d, best_t = j, d, projected
        t = best_t
        digits.append(best_j)
        if best_j > 0:
            offset[best_j - 1] += power * (1 - x)
        power *= x
        err_sq = _distsq([power * v + o for v, o in zip(u, offset)], u2)
        if err_sq < delta * delta:
            break
        if len(digits) > cap:
            raise NonTerminationError(
                f"no digit word of length <= {cap} reached tolerance {_exact_text(delta)}")
    return aw.SlopeDigits(tuple(digits), len(digits), math.sqrt(float(err_sq)), u, u2)


@st.composite
def deep_slope_problems(draw):
    """``slope_problems`` with tolerances down to 1e-400.

    Families of ratio 2/5 stop at 1e-30: their holes run most words to
    the iteration cap, ten times the expected length, which the Fraction
    oracle needs seconds for.
    """
    family, w, w2, _ = draw(slope_problems())
    exponent = draw(st.sampled_from([*range(1, 31), 100, 400]))
    if family.ratio == Fraction(2, 5):
        exponent = min(exponent, 30)
    return family, w, w2, Fraction(1, 10 ** exponent)


class TestIntegerSlopeDigits:
    @settings(max_examples=80, deadline=None)
    @given(deep_slope_problems())
    def test_bit_identical_to_fraction_loop(self, problem):
        family, w, w2, delta = problem
        try:
            expect = fraction_slope_digits(family, w, w2, delta)
        except NonTerminationError as exc:
            with pytest.raises(NonTerminationError) as info:
                aw.slope_digits(family, w, w2, delta)
            assert str(info.value) == str(exc)
            return
        out = aw.slope_digits(family, w, w2, delta)
        assert (out.eps, out.n, out.reference, out.target) == \
            (expect.eps, expect.n, expect.reference, expect.target)
        assert out.achieved_error.hex() == expect.achieved_error.hex()

    @pytest.mark.parametrize("s,signs", [(2, (0,)), (2, (1,)), (3, (0, 1)), (3, (1, 1))])
    def test_tolerance_below_float_range(self, s, signs):
        family = aw.dilation_family(3, 2, s, signs)
        w = tuple(Fraction((-1) ** b, 7) for b in signs)
        w2 = tuple(Fraction(2 * (-1) ** b, 9) for b in signs)
        delta = Fraction(1, 10 ** 400)
        out = aw.slope_digits(family, w, w2, delta)
        expect = fraction_slope_digits(family, w, w2, delta)
        assert (out.eps, out.achieved_error) == (expect.eps, expect.achieved_error)
        assert out.achieved_error == 0.0 and out.n > 2000


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
