"""Exact integer-lattice matrix algebra.

Dilation matrices, unimodular factors, Smith factorizations, coset
enumeration and the shear/dilation families driving the anisotropic
filterbank construction.  Everything in this module is exact and never
touches floats.  Inverses come from the integer adjugate (m^-1 =
adj / det), so inversion, the expansiveness test and coset membership
run in Python integers; ``fractions.Fraction`` appears only in the
results of ``rational_inverse`` (a ``RatMatrix``) and in the slope
closed forms (``digit_polynomial``, ``xi_inverse_closed_form``,
``contractivity_bound_power``).

Eliminations keep their unimodular transforms as an identity block
beside the matrix and read the factors off at the end: the Smith
factors from [[m, I], [I, 0]], integer kernels from one Hermite form
of [m^T | I], so the similarity branch of ``smith_with_target`` runs no
Smith normal form.  Every integer matrix product is one ``_times``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BadDigitError,
    BadScalesError,
    IncompatibleDiagonalError,
    InconclusiveError,
    NotUnimodularError,
    SingularMatrixError,
)

Vec = tuple[int, ...]

#: iteration cap for the exact expansiveness test
EXPANSIVE_ITERATION_CAP = 64


def _as_int(x) -> int:
    v = int(x)
    if v != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return v


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two matrices given as row tuples, as row tuples."""
    return tuple([tuple([sum(map(operator.mul, row, col)) for col in zip(*b)]) for row in a])


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with value semantics."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = self.entries
        # Python ints stay exact; any other entry (a float, a fixed-width
        # numpy integer) is converted, as ``from_rows`` does
        if type(rows) is not tuple or not all(
                type(row) is tuple and all(type(x) is int for x in row) for row in rows):
            rows = tuple(tuple(map(_as_int, row)) for row in rows)
            object.__setattr__(self, "entries", rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(_as_int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, s: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s)))

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntMatrix":
        s = len(values)
        return cls(tuple(tuple(_as_int(values[i]) if i == j else 0 for j in range(s))
                         for i in range(s)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(_times(self.entries, other.entries))

    def apply(self, v: Sequence[int]) -> Vec:
        n = self.dim
        return tuple(sum(self.entries[i][k] * v[k] for k in range(n)) for i in range(n))

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class RatMatrix:
    """Square matrix over exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square and nonempty")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, s: int) -> "RatMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(s)] for i in range(s)])

    @classmethod
    def from_int(cls, m: IntMatrix) -> "RatMatrix":
        return cls.from_rows(m.entries)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __matmul__(self, other) -> "RatMatrix":
        o = RatMatrix.from_int(other) if isinstance(other, IntMatrix) else other
        return RatMatrix(_times(self.entries, o.entries))

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        n = self.dim
        return tuple(sum(self.entries[i][k] * Fraction(v[k]) for k in range(n))
                     for i in range(n))

    def norm_inf(self) -> Fraction:
        """Maximum absolute row sum."""
        return max(sum(abs(x) for x in row) for row in self.entries)

def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = m.rows()
    n = m.dim
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return abs(determinant(m)) == 1


def _adjugate(m: IntMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) in integers, with m . adj = det . I.

    Closed-form cofactors for s <= 3; larger matrices take each cofactor
    as a fraction-free (Bareiss) minor determinant.
    """
    e = m.entries
    n = m.dim
    if n == 1:
        return ((1,),), e[0][0]
    if n == 2:
        (a, b), (c, d) = e
        return ((d, -b), (-c, a)), a * d - b * c
    if n == 3:
        (a, b, c), (d, f, g), (h, i, j) = e
        adj = ((f * j - g * i, c * i - b * j, b * g - c * f),
               (g * h - d * j, a * j - c * h, c * d - a * g),
               (d * i - f * h, b * h - a * i, a * f - b * d))
        return adj, a * adj[0][0] + b * adj[1][0] + c * adj[2][0]

    def cofactor(i, j):
        minor = IntMatrix(tuple(tuple(x for k, x in enumerate(row) if k != j)
                                for r, row in enumerate(e) if r != i))
        return (-1) ** (i + j) * determinant(minor)

    adj = tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))
    return adj, sum(e[0][k] * adj[k][0] for k in range(n))


def rational_inverse(m: IntMatrix) -> RatMatrix:
    """Exact inverse over the rationals: the integer adjugate over det."""
    adj, d = _adjugate(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    return RatMatrix(tuple(tuple(Fraction(x, d) for x in row) for row in adj))


def _integer_inverse(m: IntMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, den) with m^-1 = adj / den and den = |det m| > 0."""
    adj, d = _adjugate(m)
    if d == 0:
        raise SingularMatrixError("dilation matrix is singular")
    if d < 0:
        adj = tuple(tuple(-x for x in row) for row in adj)
    return adj, abs(d)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Integer inverse of a unimodular matrix: det . adj, as det = +-1."""
    adj, d = _adjugate(m)
    if abs(d) != 1:
        raise NotUnimodularError(f"matrix has determinant {d}")
    return IntMatrix(tuple(tuple(d * x for x in row) for row in adj))


def is_expansive(m: IntMatrix, cap: int = EXPANSIVE_ITERATION_CAP) -> bool:
    """Exact test that all eigenvalues exceed one in modulus.

    Iterates powers of the inverse until the maximum absolute row sum
    drops below 1 (expansive) or the cap is reached.  With
    m^-1 = adj / det, the k-th power has row sums below 1 exactly when
    those of adj^k stay below |det|^k, so the powers run in integers.  A
    matrix with |det| = 1 cannot be expansive and is rejected
    immediately; otherwise an undecided run raises ``InconclusiveError``
    rather than silently returning False.
    """
    adj, d = _adjugate(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    if abs(d) == 1:
        # eigenvalue moduli multiply to 1, so they cannot all exceed 1
        return False
    cols = list(zip(*adj))
    power, scale = adj, abs(d)
    for _ in range(cap):
        if max(sum(abs(x) for x in row) for row in power) < scale:
            return True
        power = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in power]
        scale *= abs(d)
    raise InconclusiveError(
        f"no power of the inverse fell below norm 1 within {cap} iterations")


@dataclass(frozen=True)
class SmithFactorization:
    """Decomposition M = theta1 . diag(sigma) . theta2 with unimodular factors."""

    theta1: IntMatrix
    sigma: tuple[int, ...]
    theta2: IntMatrix

    def __post_init__(self):
        if not is_unimodular(self.theta1) or not is_unimodular(self.theta2):
            raise NotUnimodularError("Smith factors must be unimodular")

    def reconstruct(self) -> IntMatrix:
        return self.theta1 @ IntMatrix.diagonal(self.sigma) @ self.theta2

    @cached_property
    def theta1_inverse(self) -> IntMatrix:
        """theta1^-1, worked out on first use; not a field, so equality ignores it."""
        return inverse_unimodular(self.theta1)


def _smith_eliminate(m: IntMatrix) -> tuple[IntMatrix, list[int], IntMatrix]:
    """Diagonalize by unimodular row/column operations.

    Gauss elimination with division by remainder and total pivoting
    (the smallest nonzero magnitude, first in row-major order) on the
    augmented matrix [[m, I], [I, 0]]: row operations act on its top n
    rows and column operations on its left n columns, so the blocks
    hold a = L m R, L and R throughout (the zero block is not stored).
    The factors are read off at the end, theta1 = L^-1 and theta2 =
    R^-1, so that m = theta1 . a . theta2.  The returned diagonal is
    nonnegative with the divisibility chain enforced.
    """
    n = m.dim
    eye = IntMatrix.identity(n).rows()
    g = [row + e for row, e in zip(m.rows(), eye)] + eye

    def col_add(i, j, k):  # g[:, i] += k * g[:, j]
        for row in g:
            row[i] += k * row[j]

    def reduce_at(k):
        while True:
            # total pivot: smallest nonzero magnitude in the trailing block
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    if g[i][j] != 0 and (best is None or abs(g[i][j]) < abs(g[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            i, j = best
            g[k], g[i] = g[i], g[k]
            for row in g:
                row[k], row[j] = row[j], row[k]
            clean = True
            for i in range(k + 1, n):
                if g[i][k] != 0:
                    q = g[i][k] // g[k][k]
                    g[i] = [x - q * y for x, y in zip(g[i], g[k])]
                    clean = clean and g[i][k] == 0
            for j in range(k + 1, n):
                if g[k][j] != 0:
                    col_add(j, k, -(g[k][j] // g[k][k]))
                    clean = clean and g[k][j] == 0
            if clean:
                return

    def fix_signs(start):
        for r in range(start, n):
            if g[r][r] < 0:
                g[r] = [-x for x in g[r]]

    for k in range(n):
        reduce_at(k)
    fix_signs(0)
    # Repair the first pair i < j with d_i not dividing d_j until none is
    # left.  A repair lowers d_i (reduce_at(i) pivots on at most d_i, then
    # on d_j mod d_i if that is nonzero), and work past i keeps all entries
    # there multiples of d_0 .. d_(i-1), so no earlier pair breaks again.
    while pair := next(((i, j) for i in range(n) for j in range(i + 1, n)
                        if (g[j][j] % g[i][i] if g[i][i] else g[j][j])), None):
        i, j = pair
        col_add(i, j, 1)          # brings d_j into column i
        reduce_at(i)
        if any(g[r][c] for r in range(i + 1, n) for c in range(i + 1, n) if r != c):
            for k in range(i + 1, n):
                reduce_at(k)
        fix_signs(i)

    left = IntMatrix(tuple(tuple(row[n:]) for row in g[:n]))
    right = IntMatrix(tuple(map(tuple, g[n:])))
    return inverse_unimodular(left), [g[i][i] for i in range(n)], inverse_unimodular(right)


def smith_normal_form(m: IntMatrix) -> SmithFactorization:
    """Smith factorization whose diagonal is the canonical normal form.

    For every input the diagonal is the quotients of successive
    determinantal divisors (gcds of all j x j minors): nonnegative, each
    value dividing the next, zero values (singular input) trailing.
    """
    t1, diag, t2 = _smith_eliminate(m)
    fact = SmithFactorization(t1, tuple(diag), t2)
    if fact.reconstruct() != m:
        raise AssertionError("internal error: Smith reconstruction failed")
    return fact


def _row_hermite(rows: list[list[int]]) -> list[Vec]:
    """Canonical (row Hermite form) basis of the lattice spanned by rows."""
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0])
    piv = 0
    for col in range(n):
        if piv >= m:
            break
        while True:
            nz = [i for i in range(piv, m) if rows[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(rows[i][col]))
            rows[piv], rows[best] = rows[best], rows[piv]
            clean = True
            for i in range(piv + 1, m):
                if rows[i][col]:
                    q = rows[i][col] // rows[piv][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[piv])]
                    if rows[i][col]:
                        clean = False
            if clean:
                break
        if rows[piv][col] == 0:
            continue
        if rows[piv][col] < 0:
            rows[piv] = [-a for a in rows[piv]]
        for i in range(piv):
            q = rows[i][col] // rows[piv][col]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[piv])]
        piv += 1
    return [tuple(r) for r in rows[:piv]]


def _kernel_basis(m: IntMatrix) -> list[Vec]:
    """Canonical basis of the saturated integer kernel lattice of m.

    One Hermite form of [m^T | I]: row i is column i of m followed by
    e_i, so every row of the form is (m x, x) for an integer x, and the
    rows whose first n entries vanish end in a basis of the kernel, in
    its own Hermite form (Cohen 1993, section 2.4).
    """
    n = m.dim
    rows = [[m.entries[k][i] for k in range(n)] + [int(i == j) for j in range(n)]
            for i in range(n)]
    return [row[n:] for row in _row_hermite(rows) if not any(row[:n])]


def _similarity_transform(m: IntMatrix, target: Sequence[int]) -> IntMatrix | None:
    """Unimodular X with m X = X diag(target), if one exists columnwise.

    Solves each diagonal value's eigencondition over the integer
    lattice; succeeds exactly when the kernel dimensions match the
    multiplicities and the assembled matrix is unimodular.  Conjugated
    dilations (shears) land here and get their natural factors.
    """
    n = m.dim
    cols: list[list[int] | None] = [None] * n
    for value in sorted(set(target)):
        slots = [j for j, t in enumerate(target) if t == value]
        shifted = IntMatrix.from_rows(
            [[m.entries[i][j] - (value if i == j else 0) for j in range(n)]
             for i in range(n)])
        basis = _kernel_basis(shifted)
        if len(basis) != len(slots):
            return None
        for slot, vec in zip(slots, basis):
            cols[slot] = list(vec)
    x_rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    x = IntMatrix.from_rows(x_rows)
    det = determinant(x)
    if abs(det) != 1:
        return None
    if det == -1:
        x = IntMatrix.from_rows(
            [[-v if j == n - 1 else v for j, v in enumerate(row)] for row in x_rows])
    if m @ x != x @ IntMatrix.diagonal(target):
        return None
    return x


def smith_with_target(m: IntMatrix, target: Sequence[int]) -> SmithFactorization:
    """Smith factorization with a prescribed diagonal.

    Requires diag(target) to have the same normal form as m.  A matrix
    integrally similar to diag(target) gets the similarity pair
    (theta2 = theta1^-1), its columns integer eigenvectors read off
    Hermite forms (``_kernel_basis``) with no Smith normal form; m =
    diag(target) itself is one, with identity factors.  Otherwise the
    two normal forms are composed.
    """
    target = tuple(_as_int(t) for t in target)
    if len(target) != m.dim:
        raise IncompatibleDiagonalError("target length does not match dimension")

    # a similarity m = x diag(target) x^-1 already proves that the normal
    # forms agree, so only the composed branch computes them
    x = _similarity_transform(m, target)
    if x is not None:
        return SmithFactorization(x, target, inverse_unimodular(x))

    fact_m = smith_normal_form(m)
    fact_t = smith_normal_form(IntMatrix.diagonal(target))
    if fact_m.sigma != fact_t.sigma:
        raise IncompatibleDiagonalError(
            f"normal form of target {fact_t.sigma} differs from {fact_m.sigma}")

    theta1 = fact_m.theta1 @ inverse_unimodular(fact_t.theta1)
    theta2 = inverse_unimodular(fact_t.theta2) @ fact_m.theta2
    fact = SmithFactorization(theta1, target, theta2)
    if fact.reconstruct() != m:
        raise AssertionError("internal error: target factorization failed")
    return fact


def coset_representatives(xi: IntMatrix) -> list[Vec]:
    """The |det| lattice points xi with xi^-1 . v in [0,1)^s.

    Scans the integer bounding box of the parallelepiped spanned by the
    columns of xi.  With xi^-1 = adj / |det|, a point v belongs exactly
    when 0 <= adj . v < |det| in every row, so the test is in integers.
    """
    adj, den = _integer_inverse(xi)
    s = xi.dim
    corners = [xi.apply(c) for c in itertools.product((0, 1), repeat=s)]
    lo = [min(c[i] for c in corners) for i in range(s)]
    hi = [max(c[i] for c in corners) for i in range(s)]
    reps = [point
            for point in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(s)])
            if all(0 <= sum(a * x for a, x in zip(row, point)) < den for row in adj)]
    if len(reps) != den:
        raise AssertionError("internal error: coset count != |det|")
    return reps


@dataclass(frozen=True)
class DilationFamily:
    """Anisotropic diagonal dilation together with its sheared conjugates.

    matrices[0] is diag(sigma1, ..., sigma1, sigma2); matrices[j] for
    j >= 1 equals shears[j]^-1 . matrices[0] . shears[j] where shears[j]
    is the codimension-1 shear with signed off-diagonal entry.
    """

    sigma1: int
    sigma2: int
    dim: int
    signs: tuple[int, ...]
    matrices: tuple[IntMatrix, ...] = field(repr=False)
    shears: tuple[IntMatrix, ...] = field(repr=False)

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.sigma2, self.sigma1)


def dilation_family(sigma1: int, sigma2: int, s: int,
                    signs: Sequence[int] | None = None) -> DilationFamily:
    """Build the s matrices Xi_0 ... Xi_{s-1} and their shears.

    signs is a vector in {0,1}^(s-1); entry 1 flips the sign of the
    corresponding shear's off-diagonal unit vector, selecting a
    different slope orthant.
    """
    if not (sigma1 > sigma2 > 1):
        raise BadScalesError(f"need sigma1 > sigma2 > 1, got {sigma1}, {sigma2}")
    if s < 2:
        raise BadScalesError("family needs dimension s >= 2")
    signs = tuple(0 for _ in range(s - 1)) if signs is None else tuple(signs)
    if len(signs) != s - 1 or any(b not in (0, 1) for b in signs):
        raise BadScalesError("signs must lie in {0,1}^(s-1)")

    xi0 = IntMatrix.diagonal([sigma1] * (s - 1) + [sigma2])
    shears = [IntMatrix.identity(s)]
    matrices = [xi0]
    for j in range(1, s):
        entry = (-1) ** (signs[j - 1] + 1)
        gamma = [[1 if i == k else 0 for k in range(s)] for i in range(s)]
        gamma[j - 1][s - 1] = entry
        gamma_m = IntMatrix.from_rows(gamma)
        xi_j = inverse_unimodular(gamma_m) @ xi0 @ gamma_m
        shears.append(gamma_m)
        matrices.append(xi_j)
    return DilationFamily(sigma1, sigma2, s, signs, tuple(matrices), tuple(shears))


def xi_product(family: DilationFamily, eps: Sequence[int]) -> IntMatrix:
    """Product Xi_eps = Xi_{eps_n} ... Xi_{eps_1} (first digit rightmost)."""
    out = IntMatrix.identity(family.dim)
    for d in eps:
        if not 0 <= d < family.dim:
            raise BadDigitError(f"digit {d} outside range(0, {family.dim})")
        out = family.matrices[d] @ out
    return out


def _signed_unit(family: DilationFamily, j: int) -> tuple[int, ...]:
    """Signed unit vector e_j in R^(s-1); zero vector for j = 0."""
    s = family.dim
    if not 0 <= j < s:
        raise BadDigitError(f"digit {j} outside range(0, {s})")
    if j == 0:
        return (0,) * (s - 1)
    return tuple(((-1) ** family.signs[j - 1] if i == j - 1 else 0) for i in range(s - 1))


def digit_polynomial(family: DilationFamily, eps: Sequence[int]) -> tuple[Fraction, ...]:
    """(1 - x) sum_k x^(k-1) e_{eps_k} evaluated at x = sigma2/sigma1."""
    s = family.dim
    x = family.ratio
    acc = [Fraction(0)] * (s - 1)
    power = Fraction(1)
    for d in eps:
        unit = _signed_unit(family, d)
        for i in range(s - 1):
            acc[i] += power * unit[i]
        power *= x
    return tuple((1 - x) * a for a in acc)


def xi_inverse_closed_form(family: DilationFamily, eps: Sequence[int]) -> RatMatrix:
    """Closed-form inverse of xi_product(family, eps), exact in rationals."""
    s = family.dim
    n = len(eps)
    p = digit_polynomial(family, eps)
    s1n = Fraction(1, family.sigma1 ** n)
    s2n = Fraction(1, family.sigma2 ** n)
    rows = []
    for i in range(s - 1):
        row = [s1n if k == i else Fraction(0) for k in range(s - 1)]
        row.append(s2n * p[i])
        rows.append(row)
    rows.append([Fraction(0)] * (s - 1) + [s2n])
    return RatMatrix.from_rows(rows)


def contractivity_bound_power(sigma1: int, sigma2: int, n: int) -> Fraction:
    """Exact n-th power of the joint contractivity bound."""
    if not (sigma1 > sigma2 > 1) or n < 1:
        raise BadScalesError("need sigma1 > sigma2 > 1 and n >= 1")
    x = Fraction(sigma2, sigma1)
    return (1 + x ** n) / Fraction(sigma2) ** n


def contractivity_bound(sigma1: int, sigma2: int, n: int) -> float:
    """Bound on ||Xi_eps^-1||^(1/n) over all digit strings of length n.

    Equals (1 + (sigma2/sigma1)^n)^(1/n) / sigma2 and tends to 1/sigma2
    as n grows; exact comparisons should use
    ``contractivity_bound_power``.
    """
    return float(contractivity_bound_power(sigma1, sigma2, n)) ** (1.0 / n)
