"""Analysis/synthesis filterbanks, the multiple-multiresolution tree
transform, and directional slope resolution.

Analysis of a signal against a bank produces one downsampled component
per filter index; synthesis is subdivision with the same filters, so
the pair reconstructs perfectly whenever the bank satisfies the QMF
identities.  The tree transform re-analyzes lowpass components with
every bank of a dilation family, and the slope machinery extracts the
digit word steering a branch toward a prescribed hyperplane slope.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dictionary import (
    AnisoFilterBank,
    UnivariateQMFSet,
    _core_lags,
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
from .lattice import DilationFamily, dilation_family
from .seqcore import (
    CoefSeq,
    Window,
    _preimage_box,
    max_abs_diff,
    polyphase_analysis,
    seq_add,
)
from .subdivision import SubdivisionOp, subdivide

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
    """Rebuild a signal from components: sum of per-filter subdivisions."""
    out = None
    for eta, part in sorted(parts.items()):
        piece = subdivide(SubdivisionOp.from_bank(bank, eta), part)
        out = piece if out is None else seq_add(out, piece)
    if out is None:
        raise ValueError("no components to synthesize")
    return out


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


def _approx_box(box: Window, bank: AnisoFilterBank) -> Window | None:
    """Support box of the lowpass component produced by one analysis step."""
    fw = bank.lowpass.window
    corr = Window(tuple(l - h for l, h in zip(box.lo, fw.hi)),
                  tuple(h - l for h, l in zip(box.hi, fw.lo)))
    pre = _preimage_box(bank.xi, corr)
    return None if pre is None else Window(*pre)


def _digits_below(m: int, path: Digits | None, level: int) -> Sequence[int]:
    """Digits of the children of a node at this level.

    A full tree (path None) branches into all m banks; a path tree is
    the full tree cut down to the one digit path[level] per level.
    """
    return range(m) if path is None else (path[level],)


def _core_chain_nonempty(config: MMRAConfig, window: Window, levels: int,
                         path: Digits | None) -> bool:
    """Every analysis along the tree must keep a boundary-free lag.

    Tracks the actual approximation boxes level by level and requires a
    nonempty boundary-unaffected core at each analysis step.
    """
    def step(box: Window, j: int) -> Window | None:
        bank = config.banks[j]
        if not len(_core_lags(box, bank.xi, bank.support_hull())):
            return None
        return _approx_box(box, bank)

    boxes = [window]
    for level in range(levels):
        boxes = [step(box, j) for box in boxes
                 for j in _digits_below(config.m, path, level)]
        if None in boxes:
            return False
    return True


def decompose(config: MMRAConfig, signal: CoefSeq) -> DecompositionTree:
    """Run the tree transform over the configured depth or digit path."""
    window, path = signal.window, config.path
    if path is not None:
        if any(not 0 <= d < config.m for d in path):
            raise BadDigitError(f"path {path} has digits outside range(0, {config.m})")
        mode, depth = "path", len(path)
    else:
        mode, depth = "full", config.depth
        if depth is None or depth < 1:
            raise DepthZeroError("full-tree decomposition needs depth >= 1")
    if not _core_chain_nonempty(config, window, depth, path):
        raise WindowTooSmallError(f"signal too small for {mode} depth {depth}")
    nodes = {(): TreeNode({}, None)}

    def grow(node: Digits, approx: CoefSeq):
        if len(node) == depth:
            nodes[node].approx = approx
            return
        for j in _digits_below(config.m, path, len(node)):
            parts = analyze(config.banks[j], approx)
            child_approx = parts.pop((0,) * config.banks[j].dim)
            nodes[node + (j,)] = TreeNode(parts, None)
            grow(node + (j,), child_approx)

    grow((), signal)
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


def _project_simplex(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Euclidean projection onto {z >= 0, sum z <= 1}, exact."""
    clipped = [max(x, Fraction(0)) for x in p]
    if sum(clipped) <= 1:
        return tuple(clipped)
    ordered = sorted(p, reverse=True)
    theta = Fraction(0)
    cumulative = Fraction(0)
    for i, u in enumerate(ordered, start=1):
        cumulative += u
        candidate = (cumulative - 1) / i
        if u - candidate > 0:
            theta = candidate
    return tuple(max(x - theta, Fraction(0)) for x in p)


def _distsq(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _slope_value(family: DilationFamily, eps: Sequence[int],
                 u: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Apply the contraction word to u; the last digit acts first."""
    x = family.ratio
    val = list(u)
    for d in reversed(tuple(eps)):
        if not 0 <= d < family.dim:
            raise BadDigitError(f"digit {d} outside range(0, {family.dim})")
        shift = (1 - x) if d > 0 else Fraction(0)
        val = [x * v + (shift if i == d - 1 else 0) for i, v in enumerate(val)]
    return tuple(val)


def slope_error(family: DilationFamily, eps: Sequence[int],
                w: Sequence, w2: Sequence) -> float:
    """Euclidean gap between the steered reference slope and the target.

    Computed through the closed-form contraction word, which agrees
    exactly with sigma2^n . xi_product(eps)^-1 applied to (w, 1).
    """
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    return math.sqrt(float(_distsq(_slope_value(family, eps, u), u2)))


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
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise OutOfSimplexError("tolerance must be positive")
    u = _unsigned(family, w)
    u2 = _unsigned(family, w2)
    if not _in_simplex(u):
        raise OutOfSimplexError(f"reference slope {tuple(w)} outside the simplex")
    if not _in_simplex(u2):
        raise OutOfSimplexError(f"target slope {tuple(w2)} outside the simplex")

    x = family.ratio
    k = family.dim - 1
    diameter = 1.0 if k == 1 else math.sqrt(2.0)
    ratio = float(x)
    expected = max(1, math.ceil(math.log(float(delta) / (2 * diameter))
                                / math.log(ratio))) if float(delta) < 2 * diameter else 1
    cap = max(10 * expected, 20)

    units = [tuple(Fraction(1 if i == j - 1 else 0) for i in range(k))
             for j in range(family.dim)]
    digits: list[int] = []
    t = u2
    delta_sq = delta * delta
    while True:
        best_j, best_d = 0, None
        for j in range(family.dim):
            shift = (1 - x) if j > 0 else Fraction(0)
            pulled = tuple((ti - shift * units[j][i]) / x for i, ti in enumerate(t))
            d = _distsq(_project_simplex(pulled), pulled) * x * x
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        shift = (1 - x) if best_j > 0 else Fraction(0)
        t = _project_simplex(tuple((ti - shift * units[best_j][i]) / x
                                   for i, ti in enumerate(t)))
        digits.append(best_j)
        err_sq = _distsq(_slope_value(family, digits, u), u2)
        if err_sq < delta_sq:
            break
        if len(digits) > cap:
            raise NonTerminationError(
                f"no digit word of length <= {cap} reached tolerance {float(delta)}")
    return SlopeDigits(tuple(digits), len(digits), math.sqrt(float(err_sq)),
                       u, u2)
