"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from a seed during set-up and then
offers a fixed list of jobs.  A job calls the library through module
attributes (so the tracer's wrappers see it), times only those calls,
and then checks the job's invariants with the benchmark's own code:
a failed check, a non-finite output or an exception marks the job
failed.  Residual checks compare as ``not residual <= tol`` so that NaN
fails.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import struct
import time
from fractions import Fraction

import numpy as np

from anisowave import cli, dictionary, lattice, mmra, subdivision
from anisowave.seqcore import CoefSeq, Window

#: accuracy digits reported for a residual that is exactly zero
DIGITS_CAP = 16.0


class Checks:
    """Latency of the library calls of one job plus the job's invariants."""

    def __init__(self):
        self.latency = 0.0
        self.checked = 0
        self.digits: float | None = None
        self.failures: list[str] = []

    @contextlib.contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.latency += time.perf_counter() - start

    def within(self, what: str, residual, tol: float):
        """Toleranced float invariant; also feeds ``accuracy_digits``."""
        self.checked += 1
        residual = float(residual)
        if not residual <= tol:
            self.failures.append(f"{what}: residual {residual!r} exceeds {tol:g}")
            return
        digits = DIGITS_CAP if residual == 0 else min(DIGITS_CAP, math.log10(tol / residual))
        self.digits = digits if self.digits is None else min(self.digits, digits)

    def require(self, what: str, condition: bool):
        """Exact or pass/fail invariant (no precision margin)."""
        self.checked += 1
        if not condition:
            self.failures.append(what)

    def finite(self, what: str, values):
        self.require(f"{what} is finite", bool(np.isfinite(np.asarray(values)).all()))


def sup_gap(a_origin, a: np.ndarray, b_origin, b: np.ndarray) -> float:
    """Sup-norm distance of two boxed arrays, extended by zero."""
    lo = [min(x, y) for x, y in zip(a_origin, b_origin)]
    hi = [max(x + n, y + m) for x, n, y, m in zip(a_origin, a.shape, b_origin, b.shape)]
    diff = np.zeros([h - l for l, h in zip(lo, hi)])
    diff[tuple(slice(o - l, o - l + n) for o, l, n in zip(a_origin, lo, a.shape))] += a
    diff[tuple(slice(o - l, o - l + n) for o, l, n in zip(b_origin, lo, b.shape))] -= b
    return float(np.abs(diff).max())


# -- the grid container, read and written independently of the library --------

def write_grid(path: str, origin, data: np.ndarray):
    head = b"ANI1" + struct.pack("<I", data.ndim)
    head += struct.pack(f"<{data.ndim}q", *origin)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    with open(path, "wb") as handle:
        handle.write(head + np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_grid(path: str) -> tuple[tuple[int, ...], np.ndarray]:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != b"ANI1":
        raise ValueError(f"{path}: bad grid magic")
    (dim,) = struct.unpack_from("<I", blob, 4)
    origin = struct.unpack_from(f"<{dim}q", blob, 8)
    shape = struct.unpack_from(f"<{dim}Q", blob, 8 + 8 * dim)
    offset = 8 + 16 * dim
    count = math.prod(shape)
    if len(blob) != offset + 8 * count:
        raise ValueError(f"{path}: payload length disagrees with shape")
    return origin, np.frombuffer(blob, dtype="<f8", offset=offset).reshape(shape)


# -- cascade -------------------------------------------------------------------

class Cascade:
    """Limit functions of the worked (3, 2) pair, Xi_0 diagonal and Xi_1 sheared.

    Every job list renders phi and each psi of both banks twice at level 5
    and once at level 6, phi of both banks at level 7, and runs one
    convergence diagnostic, one conjugation check and one joint-refinement
    residual per bank.  The seed picks the joint-refinement digits.  The
    job order is fixed: with a seeded order the peak memory of the first
    pass moved by 13 % with the seed, through heap reuse between the
    level-7 renders.
    """

    name = "cascade"
    prediction = ("subdivision", "seqcore")

    def __init__(self, seed: int, workdir: str):
        sets = (dictionary.chui_lian_ternary(), dictionary.daubechies2())
        family = lattice.dilation_family(3, 2, 2)
        self.banks = [dictionary.build_bank(m, (3, 2), sets) for m in family.matrices]
        rng = random.Random(seed)
        etas = self.banks[0].indices()
        jobs = []
        for b in range(len(self.banks)):
            jobs += [("render", b, eta, 5) for eta in etas for _ in range(2)]
            jobs += [("render", b, eta, 6) for eta in etas]
            jobs.append(("render", b, etas[0], 7))
            jobs.append(("converge", b, 5))
            jobs.append(("conjugate", b, 4))
            jobs.append(("joint", rng.randrange(2), (b,), 3))
        self.jobs = jobs
        self.warmup = [("render", 0, etas[0], 3), ("render", 1, etas[-1], 3),
                       ("converge", 1, 3), ("conjugate", 1, 2), ("joint", 0, (1,), 1)]

    def run(self, job, chk: Checks):
        kind = job[0]
        if kind == "render":
            _, b, eta, level = job
            bank = self.banks[b]
            with chk.timed():
                sf = subdivision.wavelet_samples(bank, eta, level)
            values = sf.values
            chk.finite("samples", values)
            # subdivision preserves mass: |det|^r for phi, 0 for every psi
            scale = float(bank.det) ** level
            target = scale if not any(eta) else 0.0
            chk.within("mass", abs(float(values.sum()) - target) / scale, 1e-12)
        elif kind == "converge":
            _, b, r_max = job
            bank = self.banks[b]
            with chk.timed():
                gaps = subdivision.convergence_diagnostic(
                    subdivision.SubdivisionOp(bank.xi, bank.lowpass), r_max)
            chk.finite("d_r", gaps)
            chk.require("d_r strictly decreasing from r = 2",
                        len(gaps) == r_max - 1
                        and all(x > y for x, y in zip(gaps[1:], gaps[2:])))
        elif kind == "conjugate":
            _, b, r = job
            with chk.timed():
                gap = subdivision.conjugation_check(self.banks[b], r)
            chk.within("conjugation", gap, 1e-12)
        elif kind == "joint":
            _, j, mu, r_tail = job
            with chk.timed():
                gap = subdivision.joint_refinement_residual(self.banks, j, mu, r_tail)
            chk.within("joint refinement", gap, 1e-10)
        else:
            raise ValueError(f"unknown cascade job {job!r}")

    def close(self):
        pass


# -- transform -----------------------------------------------------------------

class Transform:
    """The image tree transform through the command line, in-process.

    Every job list holds 15 full depth-2 trees (12 on 128^2, 2 on 192^2,
    1 on 256^2) and 9 fixed-path decompositions (6 on 128^2, 3 on 192^2,
    digit paths of length 2 or 3), so the 256^2 full tree sets the peak
    memory whatever digits the seed draws.  The seed draws the signals
    and the path digits.  Each job runs ``transform decompose`` and
    ``transform reconstruct`` and the benchmark compares the output grid
    with the signal itself; it does not trust the exit code.
    """

    name = "transform"
    prediction = ("mmra", "seqcore")
    CONFIG = {"sigma1": 3, "sigma2": 2, "s": 2, "signs": [0],
              "families": ["cl3", "db2"], "depth": 2}
    #: (side, path length or None for a full depth-2 tree, copies)
    MIX = ((128, None, 12), (192, None, 2), (256, None, 1),
           (128, 2, 3), (128, 3, 3), (192, 2, 2), (192, 3, 1))
    PR_TOL = 1e-9

    def __init__(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        self.config = os.path.join(workdir, "config.json")
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump(self.CONFIG, handle)
        self.tree = os.path.join(workdir, "tree")
        self.out = os.path.join(workdir, "out.grid")
        self.sink = open(os.devnull, "w", encoding="utf-8")
        rng = np.random.default_rng(seed)
        pick = random.Random(seed)
        self.signals = {}
        jobs = []
        for side, plen, copies in self.MIX:
            for _ in range(copies):
                k = len(self.signals)
                path = os.path.join(workdir, f"signal_{k}.grid")
                origin = tuple(int(x) for x in rng.integers(-8, 9, size=2))
                data = rng.standard_normal((side, side))
                write_grid(path, origin, data)
                self.signals[path] = (origin, data)
                digits = None if plen is None else tuple(pick.randrange(2) for _ in range(plen))
                jobs.append(("roundtrip", path, digits))
        pick.shuffle(jobs)
        self.jobs = jobs
        warm = os.path.join(workdir, "warmup.grid")
        self.signals[warm] = ((0, 0), rng.standard_normal((64, 64)))
        write_grid(warm, *self.signals[warm])
        self.warmup = [("roundtrip", warm, None), ("roundtrip", warm, (1, 0))]

    def cli(self, argv) -> int:
        with contextlib.redirect_stdout(self.sink):
            return cli.main(argv)

    def run(self, job, chk: Checks):
        _, signal, digits = job
        shutil.rmtree(self.tree, ignore_errors=True)
        shape = ["--path", ",".join(map(str, digits))] if digits else ["--depth", "2"]
        with chk.timed():
            rc_dec = self.cli(["transform", "decompose", self.config, signal,
                               "-o", self.tree, *shape])
            rc_rec = self.cli(["transform", "reconstruct", self.tree, "-o", self.out])
        chk.require(f"decompose exit code {rc_dec}", rc_dec == 0)
        chk.require(f"reconstruct exit code {rc_rec}", rc_rec == 0)
        # every stored coefficient must be finite, not only the branch reconstructed
        for fname in sorted(os.listdir(self.tree)):
            if fname.endswith(".grid"):
                chk.finite(f"tree {fname}", read_grid(os.path.join(self.tree, fname))[1])
        origin, data = self.signals[signal]
        out_origin, out = read_grid(self.out)
        chk.finite("reconstruction", out)
        scale = max(1.0, float(np.abs(data).max()))
        chk.within("perfect reconstruction",
                   sup_gap(out_origin, out, origin, data) / scale, self.PR_TOL)

    def close(self):
        self.sink.close()


# -- design --------------------------------------------------------------------

def _unimodular_pool(max_shears: int) -> list[np.ndarray]:
    """Products of up to max_shears elementary +-1 shears, optionally
    followed by the axis swap: bounded entries keep the banks small."""
    eye = np.eye(2, dtype=np.int64)
    shears = [eye]
    for i, j in ((0, 1), (1, 0)):
        for k in (-1, 1):
            e = eye.copy()
            e[i, j] = k
            shears.append(e)
    mats = [eye]
    for _ in range(max_shears):
        mats = [m @ s for m in mats for s in shears]
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    pool = {}
    for m in mats:
        for p in (eye, swap):
            q = m @ p
            pool[q.tobytes()] = q
    return [pool[k] for k in sorted(pool)]


def _expansive(x: np.ndarray) -> bool:
    return bool(np.abs(np.linalg.eigvals(x.astype(float))).min() > 1 + 1e-9)


class Design:
    """Bank design and verification over bounded expansive dilations.

    xi = U diag(sigma) V.  For sigma = (3, 2), V = U^-1 with U a product
    of at most two +-1 shears and a swap (a sheared anisotropic dilation,
    as in the paper); for sigma = (2, 2), U and V range over products of
    at most one shear and a swap, and for sigma = (3, 3), U does with
    V = I.  These bounds keep every bank's tap box within 126 cells.  Job
    costs still differ by an order of magnitude between these matrices,
    so every job list holds each distinct expansive xi of the three pools
    once (58 jobs) plus one job on the sheared member Xi_1 of the s = 3
    family; the seed draws the signals, the slope targets and the job
    order.
    """

    name = "design"
    prediction = ("lattice", "dictionary", "seqcore")
    QMF_TOL = 1e-12
    ROUNDTRIP_TOL = 1e-10
    REPRO_TOL = 1e-10
    SLOPE_DELTA = Fraction(1, 10 ** 6)
    SIDE = {2: 32, 3: 10}

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        nrng = np.random.default_rng(seed)
        pool1, pool2 = _unimodular_pool(1), _unimodular_pool(2)
        dilations = set()
        for u in pool2:
            v = np.rint(np.linalg.inv(u)).astype(np.int64)
            dilations.add(((3, 2), tuple(map(tuple, (u @ np.diag((3, 2)) @ v).tolist()))))
        for u in pool1:
            dilations.add(((3, 3), tuple(map(tuple, (3 * u).tolist()))))
            for v in pool1:
                dilations.add(((2, 2), tuple(map(tuple, (2 * u @ v).tolist()))))
        jobs = []
        for sigma, rows in sorted(dilations):
            if _expansive(np.array(rows)):
                jobs.append(self._job(rng, nrng, [list(r) for r in rows], sigma, 2))
        member = lattice.dilation_family(3, 2, 3).matrices[1]
        jobs.append(self._job(rng, nrng, [list(r) for r in member.entries], (3, 3, 2), 3))
        rng.shuffle(jobs)
        self.jobs = jobs
        self.warmup = [self._job(rng, nrng, [[3, -1], [0, 2]], (3, 2), 2)]

    def _job(self, rng, nrng, rows, sigma, s):
        n = self.SIDE[s]
        signal = nrng.standard_normal((n,) * s)
        if s == 2:
            w = (Fraction(rng.randrange(10 ** 6), 10 ** 6),)
            w2 = (Fraction(rng.randrange(10 ** 6), 10 ** 6),)
        else:
            w, w2 = (self._simplex_point(rng), self._simplex_point(rng))
        return ("design", rows, sigma, signal, w, w2)

    @staticmethod
    def _simplex_point(rng):
        a, b = sorted(Fraction(rng.randrange(10 ** 6), 10 ** 6) for _ in range(2))
        return (a, b - a)

    def run(self, job, chk: Checks):
        _, rows, sigma, signal, w, w2 = job
        s = len(sigma)
        sets = tuple(dictionary.chui_lian_ternary() if k == 3 else dictionary.daubechies2()
                     for k in sigma)
        xi = lattice.IntMatrix.from_rows(rows)
        det = abs(int(round(np.linalg.det(np.array(rows, dtype=float)))))
        with chk.timed():
            expansive = lattice.is_expansive(xi)
            fact = lattice.smith_with_target(xi, sigma)
            bank = dictionary.build_bank(xi, sigma, sets)
        chk.require("is_expansive", expansive)
        chk.require("Smith factors reproduce xi", fact.reconstruct() == xi)
        with chk.timed():
            residuals = bank.residual_matrix()
            cosets = lattice.coset_representatives(xi)
        chk.require("one filter per coset", len(bank.filters) == det)
        chk.require("|det| coset representatives", len(set(cosets)) == det)
        chk.within("QMF identities", max(residuals.values()), self.QMF_TOL)

        hull = bank.support_hull()
        side = max(hull.shape) + (8 if s == 2 else 4)
        window = Window((0,) * s, (side - 1,) * s)
        with chk.timed():
            report = dictionary.reproduction_check(bank, 1 if s == 2 else 0, window)
        chk.within("polynomial details", report.max_detail, self.REPRO_TOL)

        origin = (0,) * s
        with chk.timed():
            parts = mmra.analyze(bank, CoefSeq(origin, signal))
            back = mmra.synthesize(bank, parts)
        chk.finite("synthesis", back.data)
        gap = sup_gap(back.origin, back.data, origin, signal)
        chk.within("roundtrip", gap / max(1.0, float(np.abs(signal).max())),
                   self.ROUNDTRIP_TOL)

        family = lattice.dilation_family(3, 2, s)
        with chk.timed():
            digits = mmra.slope_digits(family, w, w2, self.SLOPE_DELTA)
        chk.require("slope error below delta",
                    _slope_gap_sq(family, digits.eps, w, w2) < self.SLOPE_DELTA ** 2)

    def close(self):
        pass


def _slope_gap_sq(family, eps, w, w2) -> Fraction:
    """Squared Euclidean gap between the steered reference slope and the target.

    Applies the contraction word exactly: each digit j maps u to
    x u + (1 - x) e_j with x = sigma2 / sigma1 (e_0 = 0), last digit first.
    """
    x = Fraction(family.sigma2, family.sigma1)
    u = list(w)
    for d in reversed(eps):
        u = [x * v + ((1 - x) if i == d - 1 else 0) for i, v in enumerate(u)]
    return sum((a - b) ** 2 for a, b in zip(u, w2))


WORKLOADS = {cls.name: cls for cls in (Cascade, Transform, Design)}
