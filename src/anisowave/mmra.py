"""Analysis/synthesis filterbanks, the multiple-multiresolution tree
transform, and directional slope resolution.

Analysis of a signal against a bank produces one downsampled component
per filter index; synthesis, its adjoint, is subdivision with the same
filters summed in one kernel call, so the pair reconstructs perfectly
whenever the bank satisfies the QMF identities.  The tree transform
re-analyzes lowpass components with every bank of a dilation family,
and the slope machinery extracts the digit word steering a branch
toward a prescribed hyperplane slope.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dictionary import (
    AnisoFilterBank,
    UnivariateQMFSet,
    _has_core_lag,
    build_bank,
)
from .errors import (
    BadDigitError,
    DepthZeroError,
    DimMismatchError,
    IncompleteTreeError,
    InconsistentTreeError,
    NonTerminationError,
    OutOfSimplexError,
    WindowTooSmallError,
)
from .lattice import DilationFamily, digit_polynomial, dilation_family
from .seqcore import (
    CoefSeq,
    Window,
    _lag_box,
    max_abs_diff,
    polyphase_analysis,
    polyphase_subdivision,
)

BRANCH_AGREEMENT_TOL = 1e-8

Digits = tuple[int, ...]


def analyze(bank: AnisoFilterBank, c: CoefSeq) -> dict[Digits, CoefSeq]:
    """Split a signal into its |det xi| downsampled components.

    The analysis filters are the time-reversed synthesis filters scaled
    by 1/|det xi|, the unique normalization under which synthesis with
    the bank's own filters inverts the analysis.
    """
    if c.dim != bank.dim:
        raise DimMismatchError(f"signal dim {c.dim} != bank dim {bank.dim}")
    scale = 1.0 / bank.det
    parts = polyphase_analysis(c, bank.xi, list(bank.filters.values()))
    return {eta: part.scaled(scale) for eta, part in zip(bank.filters, parts)}


def synthesize(bank: AnisoFilterBank, parts: Mapping[Digits, CoefSeq]) -> CoefSeq:
    """Rebuild a signal from components: the adjoint of ``analyze``.

    sum_eta S_{g_eta} c_eta, the subdivision of every component with its
    bank filter, is one polyphase kernel call over the sorted indices.
    An unknown index raises ``BadIndexError``, a component of the wrong
    dimension ``DimMismatchError`` and an empty mapping ``ValueError``.
    """
    etas = sorted(parts)
    return polyphase_subdivision([parts[eta] for eta in etas], bank.xi,
                                 [bank.filter_at(eta) for eta in etas])


@dataclass(frozen=True)
class MMRAConfig:
    """A dilation family with one filterbank per member.

    depth selects a full tree of that many levels; path selects a
    single decomposition chain instead.
    """

    family: DilationFamily
    banks: tuple[AnisoFilterBank, ...]
    sets: tuple[UnivariateQMFSet, ...]
    depth: int | None = None
    path: Digits | None = None

    def __post_init__(self):
        for j, bank in enumerate(self.banks):
            if bank.xi != self.family.matrices[j]:
                raise BadDigitError(f"bank {j} dilation differs from family member")

    @property
    def m(self) -> int:
        return len(self.banks)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.family.sigma1, self.family.sigma2, self.family.dim,
                       self.family.signs)).encode())
        for bank in self.banks:
            for eta in bank.indices():
                f = bank.filters[eta]
                h.update(repr((eta, f.origin, f.shape)).encode())
                h.update(f.data.tobytes())
        return h.hexdigest()[:16]


def build_config(sigma1: int, sigma2: int, s: int,
                 signs: Sequence[int] | None,
                 sets: Sequence[UnivariateQMFSet],
                 depth: int | None = None,
                 path: Sequence[int] | None = None) -> MMRAConfig:
    """Construct the family and one bank per sheared dilation.

    sets gives one univariate family per diagonal slot: sets[:-1] cover
    the sigma1 axes (a single set may be repeated), sets[-1] the sigma2
    axis.  With two entries the first is replicated across all sigma1
    axes.
    """
    family = dilation_family(sigma1, sigma2, s, signs)
    if len(sets) == 2 and s > 2:
        sets = tuple([sets[0]] * (s - 1) + [sets[1]])
    target = [sigma1] * (s - 1) + [sigma2]
    banks = tuple(build_bank(m, target, sets) for m in family.matrices)
    return MMRAConfig(family, banks, tuple(sets), depth,
                      None if path is None else tuple(path))


def orthant_config(config: MMRAConfig, signs: Sequence[int]) -> MMRAConfig:
    """Rebuild the config with sign-flipped shears for another orthant."""
    return build_config(config.family.sigma1, config.family.sigma2,
                        config.family.dim, signs, config.sets,
                        config.depth, config.path)


@dataclass
class TreeNode:
    details: dict[Digits, CoefSeq]
    approx: CoefSeq | None = None


@dataclass
class DecompositionTree:
    """Output of the tree transform, keyed by digit path.

    Non-root nodes hold the detail components produced by analyzing the
    parent approximation with the bank named by their last digit; leaf
    nodes additionally hold the surviving approximation.
    """

    mode: str                      # "full" | "path"
    depth: int
    m: int
    nodes: dict[Digits, TreeNode]
    signal_window: Window
    config_digest: str

    def node(self, path: Sequence[int]) -> TreeNode:
        key = tuple(path)
        if key not in self.nodes:
            raise IncompleteTreeError(f"missing node {key}")
        return self.nodes[key]

    def paths(self) -> list[Digits]:
        return sorted(self.nodes.keys(), key=lambda p: (len(p), p))


def _digits_below(m: int, path: Digits | None, level: int) -> Sequence[int]:
    """Digits of the children of a node at this level.

    A full tree (path None) branches into all m banks; a path tree is
    the full tree cut down to the one digit path[level] per level.
    """
    return range(m) if path is None else (path[level],)


def decompose(config: MMRAConfig, signal: CoefSeq) -> DecompositionTree:
    """Run the tree transform over the configured depth or digit path.

    Refuses with ``WindowTooSmallError`` at the first analysis, depth
    first, whose carried lag box has no boundary-free lag.
    """
    window, path = signal.window, config.path
    if path is not None:
        if any(not 0 <= d < config.m for d in path):
            raise BadDigitError(f"path {path} has digits outside range(0, {config.m})")
        mode, depth = "path", len(path)
    else:
        mode, depth = "full", config.depth
        if depth is None or depth < 1:
            raise DepthZeroError("full-tree decomposition needs depth >= 1")
    nodes = {(): TreeNode({}, None)}

    def grow(node: Digits, approx: CoefSeq, box: Window):
        if len(node) == depth:
            nodes[node].approx = approx
            return
        for j in _digits_below(config.m, path, len(node)):
            bank = config.banks[j]
            if not _has_core_lag(box, bank.xi, bank.support_hull()):
                raise WindowTooSmallError(f"signal too small for {mode} depth {depth}")
            parts = analyze(bank, approx)
            child_approx = parts.pop((0,) * bank.dim)
            nodes[node + (j,)] = TreeNode(parts, None)
            # a core lag is a lag of the lowpass, so its lag box is not empty
            grow(node + (j,), child_approx, Window(*_lag_box(bank.xi, box, bank.lowpass.window)))

    grow((), signal, window)
    return DecompositionTree(mode, depth, config.m, nodes, window, config.digest())


def reconstruct(config: MMRAConfig, tree: DecompositionTree) -> CoefSeq:
    """Invert the tree transform.

    In full-tree mode every branch reconstructs the same parent
    approximation; the branches are compared and any disagreement
    beyond tolerance raises ``InconsistentTreeError`` instead of being
    averaged away.  A tree holding non-finite values raises the same
    error, since no comparison can vouch for it, and so does a tree
    decomposed under another config (its recorded digest differs).  A
    full tree is walked over all of the config's banks, whatever its
    recorded m.  A path tree whose depth is not the length of its
    longest node path raises ``IncompleteTreeError``.
    """
    if tree.config_digest != config.digest():
        raise InconsistentTreeError(
            f"tree was decomposed under config {tree.config_digest}, "
            f"not {config.digest()}")
    zero = (0,) * config.banks[0].dim
    for key, node in tree.nodes.items():
        if not all(0 <= d < config.m for d in key):
            raise InconsistentTreeError(
                f"node {key} has digits outside range(0, {config.m})")
        arrays = list(node.details.values())
        if node.approx is not None:
            arrays.append(node.approx)
        if not all(np.isfinite(a.data).all() for a in arrays):
            raise InconsistentTreeError(f"node {key} holds non-finite values")
    path = max(tree.nodes, key=len) if tree.mode == "path" else None
    if path is not None and len(path) != tree.depth:
        raise IncompleteTreeError(
            f"path tree of depth {tree.depth} has a longest path of length {len(path)}")

    def rebuild(node: Digits) -> CoefSeq:
        if len(node) == tree.depth:
            leaf = tree.node(node)
            if leaf.approx is None:
                raise IncompleteTreeError(f"leaf {node} is missing its approximation")
            return leaf.approx
        candidates = [
            synthesize(config.banks[j], {zero: rebuild(node + (j,)),
                                         **tree.node(node + (j,)).details})
            for j in _digits_below(config.m, path, len(node))]
        scale = max(1.0, candidates[0].linf())
        for j in range(1, len(candidates)):
            gap = max_abs_diff(candidates[0], candidates[j])
            if not gap <= BRANCH_AGREEMENT_TOL * scale:
                raise InconsistentTreeError(
                    f"branches 0 and {j} below node {node} disagree by {gap:.3e}")
        return candidates[0]

    return rebuild(())


# -- slope resolution --------------------------------------------------------


@dataclass(frozen=True)
class SlopeDigits:
    """Digit word steering the reference slope onto the target slope."""

    eps: Digits
    n: int
    achieved_error: float
    reference: tuple[Fraction, ...]
    target: tuple[Fraction, ...]


def _unsigned(family: DilationFamily, w: Sequence) -> tuple[Fraction, ...]:
    if len(w) != family.dim - 1:
        raise OutOfSimplexError(f"slope must have {family.dim - 1} components")
    return tuple(Fraction(x) * ((-1) ** s) for x, s in zip(w, family.signs))


def _in_simplex(u: Sequence[Fraction]) -> bool:
    return all(x >= 0 for x in u) and sum(u) <= 1


def _project_simplex(p: Sequence[int], den: int) -> tuple[list[int], int]:
    """Euclidean projection of the point p / den onto {z >= 0, sum z <= 1}, exact.

    p holds integer numerators over the positive denominator den.
    Returns (numerators, i): the projection is numerators / (i den).
    The point is clipped at zero when that lands in the simplex (i = 1);
    otherwise it is shifted by theta = (C_i - den) / (i den), where C_i
    sums the i largest numerators and i is the last prefix whose
    smallest entry exceeds its theta, and then clipped.
    """
    clipped = [max(x, 0) for x in p]
    if sum(clipped) <= den:
        return clipped, 1
    cumulative, size, excess = 0, 1, 0
    for i, x in enumerate(sorted(p, reverse=True), start=1):
        cumulative += x
        if i * x > cumulative - den:
            size, excess = i, cumulative - den
    return [max(size * x - excess, 0) for x in p], size


def _distsq(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def slope_error(family: DilationFamily, eps: Sequence[int],
                w: Sequence, w2: Sequence) -> float:
    """Euclidean gap between the steered reference slope and the target.

    The steered slope of a word of n digits is x^n u plus the digit
    polynomial (``lattice.digit_polynomial``, unsigned), x = sigma2 /
    sigma1 and u the unsigned reference slope; it agrees exactly with
    sigma2^n . xi_product(eps)^-1 applied to (w, 1).
    """
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    offset = _unsigned(family, digit_polynomial(family, eps))
    scale = family.ratio ** len(eps)
    return math.sqrt(float(_distsq([scale * v + o for v, o in zip(u, offset)], u2)))


def _exact_text(q: Fraction) -> str:
    """Positive q written exactly: a decimal when it terminates (1E-400), else num/den."""
    rest, twos, fives = q.denominator, 0, 0
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if rest != 1:
        return str(q)
    k = max(twos, fives)
    digits = q.numerator * 10 ** k // q.denominator
    return str(Decimal((0, tuple(int(d) for d in str(digits)), -k)))


def slope_digits(family: DilationFamily, w: Sequence, w2: Sequence,
                 delta) -> SlopeDigits:
    """Greedy digit extraction resolving w2 from the reference slope w.

    Both slopes must lie in the family's sign-adapted simplex.  Each
    step picks the contraction cell nearest the running target
    (smallest index on ties, so overlaps resolve deterministically),
    pulls the target back through that contraction, and stops as soon
    as the achieved error drops below delta.  At least one digit is
    always emitted.  Families whose cells fail to cover the simplex may
    be unable to reach small tolerances; the iteration cap then raises
    ``NonTerminationError``.

    The steered slope of a word of n digits is x^n u plus an offset
    (the closed form of ``lattice.digit_polynomial``).  The offset and
    x^n are kept as the word grows, so each digit costs a fixed number
    of exact operations and a call costs time linear in the digit
    count, with the same exact error test as replaying the word.  All
    of it runs in Python integers, with no ``Fraction`` and no gcd: the
    running target, the pulled candidates and their projections are
    integer numerators over one common denominator, the offset is a
    numerator over the denominator of x^n, and the candidates' squared
    distances and the error test compare cross-multiplied integers.
    The comparisons and the tie order are those of the exact rational
    loop, so the word is the same.

    delta may lie outside the float range (a ``Fraction`` such as
    10^-400): the iteration cap is then sized from the logs of its
    integer numerator and denominator, and ``achieved_error``, a float,
    reads 0.0 although the exact error is positive.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("tolerance must be positive")
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    if not _in_simplex(u):
        raise OutOfSimplexError(f"reference slope {tuple(w)} outside the simplex")
    if not _in_simplex(u2):
        raise OutOfSimplexError(f"target slope {tuple(w2)} outside the simplex")

    x = family.ratio
    k = family.dim - 1
    p, q = x.numerator, x.denominator
    diameter = 1.0 if k == 1 else math.sqrt(2.0)
    expected = 1
    if delta < 2 * diameter:
        quotient = float(delta) / (2 * diameter)
        # below the float range the quotient underflows to 0; the logs
        # of delta's integer numerator and denominator stay finite
        log_quotient = (math.log(quotient) if quotient > 0 else
                        math.log(delta.numerator) - math.log(delta.denominator)
                        - math.log(2 * diameter))
        expected = max(1, math.ceil(log_quotient / math.log(float(x))))
    cap = max(10 * expected, 20)

    # u and u2 as numerators over one denominator
    base = math.lcm(*(v.denominator for v in u + u2))
    ref = [int(v * base) for v in u]
    goal = [int(v * base) for v in u2]
    digits: list[int] = []
    t, den = list(goal), base  # the running target t / den
    # sum over digits of x^(i-1) (1 - x) e_(eps_i), over the denominator of x^n
    offset = [0] * k
    power_p, power_q = 1, 1  # x^n = power_p / power_q for the n digits so far
    while True:
        # candidate j pulls t back through cell j: t / x, less (1 - x) / x
        # on axis j - 1; every candidate lies over the denominator den p
        scaled = [v * q for v in t]
        best_j, best_d, best_size, best_t = 0, None, 1, None
        for j in range(family.dim):
            pulled = list(scaled)
            if j > 0:
                pulled[j - 1] -= (q - p) * den
            projected, size = _project_simplex(pulled, den * p)
            # the squared distance times (size den p)^2
            d = sum((a - size * b) ** 2 for a, b in zip(projected, pulled))
            if best_d is None or d * best_size ** 2 < best_d * size ** 2:
                best_j, best_d, best_size, best_t = j, d, size, projected
        t, den = best_t, best_size * den * p
        digits.append(best_j)
        offset = [o * q for o in offset]
        if best_j > 0:
            offset[best_j - 1] += power_p * (q - p)
        power_p, power_q = power_p * p, power_q * q
        # the gap to u2, over the denominator power_q base
        gap_sq = sum((power_p * a + o * base - b * power_q) ** 2
                     for a, o, b in zip(ref, offset, goal))
        if gap_sq * delta.denominator ** 2 < (delta.numerator * power_q * base) ** 2:
            break
        if len(digits) > cap:
            raise NonTerminationError(
                f"no digit word of length <= {cap} reached tolerance {_exact_text(delta)}")
    return SlopeDigits(tuple(digits), len(digits),
                       math.sqrt(gap_sq / (power_q * base) ** 2), u, u2)
