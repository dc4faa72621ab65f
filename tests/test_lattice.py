import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import anisowave as aw
from anisowave.errors import (
    BadScalesError,
    IncompatibleDiagonalError,
    InconclusiveError,
    NotUnimodularError,
    SingularMatrixError,
)
from anisowave.lattice import (
    EXPANSIVE_ITERATION_CAP,
    IntMatrix,
    RatMatrix,
    SmithFactorization,
    _integer_inverse,
    _kernel_basis,
    contractivity_bound_power,
    digit_polynomial,
    rational_inverse,
)
from lattice_oracle import snf_kernel_basis

XI1 = IntMatrix.from_rows([[3, -1], [0, 2]])


def small_matrices(dim, lo=-9, hi=9):
    entry = st.integers(min_value=lo, max_value=hi)
    return st.lists(st.lists(entry, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(IntMatrix.from_rows)


def random_unimodular(rng, s, ops=4):
    m = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for _ in range(ops):
        i, j = rng.choice(s, 2, replace=False)
        k = int(rng.randint(-2, 3))
        for c in range(s):
            m[i][c] += k * m[j][c]
    return IntMatrix.from_rows(m)


def gauss_jordan_inverse(m):
    """Oracle: the exact inverse by Gauss-Jordan elimination in Fractions."""
    n = m.dim
    a = [[Fraction(x) for x in row] for row in m.entries]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return RatMatrix(tuple(tuple(row) for row in inv))


def fraction_power_expansive(m, cap=EXPANSIVE_ITERATION_CAP):
    """Oracle: powers of the Fraction inverse until the row-sum norm drops below 1."""
    d = aw.determinant(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    if abs(d) == 1:
        return False
    inv = gauss_jordan_inverse(m)
    power = inv
    for _ in range(cap):
        if power.norm_inf() < 1:
            return True
        power = power @ inv
    raise InconclusiveError("undecided")


def outcome(fn, *args):
    """fn(*args), or the type of the library error it raises."""
    try:
        return fn(*args)
    except (SingularMatrixError, InconclusiveError, NotUnimodularError) as exc:
        return type(exc)


any_matrices = st.integers(min_value=1, max_value=4).flatmap(small_matrices)


@st.composite
def unimodular_products(draw):
    """Products of up to six elementary shears and a row permutation."""
    s = draw(st.integers(1, 4))
    rows = [[1 if i == j else 0 for j in range(s)] for i in range(s)]
    for _ in range(draw(st.integers(0, 6)) if s > 1 else 0):
        i, j = draw(st.sampled_from([(i, j) for i in range(s) for j in range(s) if i != j]))
        k = draw(st.integers(-3, 3))
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    perm = draw(st.permutations(range(s)))
    return IntMatrix.from_rows([rows[p] for p in perm])


class TestAdjugateOracle:
    """Integer adjugate inverses against the Fraction Gauss-Jordan oracle."""

    @settings(max_examples=200, deadline=None)
    @given(any_matrices)
    def test_rational_inverse(self, m):
        got = outcome(rational_inverse, m)
        expect = outcome(gauss_jordan_inverse, m)
        assert got == expect

    @settings(max_examples=200, deadline=None)
    @given(any_matrices)
    def test_integer_inverse(self, m):
        expect = outcome(gauss_jordan_inverse, m)
        if expect is SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                _integer_inverse(m)
            return
        den = abs(aw.determinant(m))
        adj, got_den = _integer_inverse(m)
        assert got_den == den
        assert adj == tuple(tuple(int(x * den) for x in row) for row in expect.entries)

    @settings(max_examples=200, deadline=None)
    @given(unimodular_products())
    def test_inverse_unimodular(self, u):
        expect = gauss_jordan_inverse(u)
        assert aw.inverse_unimodular(u).entries == expect.entries

    @settings(max_examples=100, deadline=None)
    @given(any_matrices)
    def test_inverse_unimodular_rejects_other_determinants(self, m):
        d = aw.determinant(m)
        if abs(d) == 1:
            assert aw.inverse_unimodular(m).entries == gauss_jordan_inverse(m).entries
        else:
            with pytest.raises(NotUnimodularError, match=f"determinant {d}$"):
                aw.inverse_unimodular(m)

    @settings(max_examples=150, deadline=None)
    @given(any_matrices)
    def test_is_expansive(self, m):
        assert outcome(aw.is_expansive, m) == outcome(fraction_power_expansive, m)


class TestDeterminant:
    def test_examples(self):
        assert aw.determinant(IntMatrix.diagonal([3, 2])) == 6
        assert aw.determinant(XI1) == 6
        assert aw.determinant(IntMatrix.identity(3)) == 1

    @settings(max_examples=100, deadline=None)
    @given(small_matrices(3))
    def test_matches_float_determinant(self, m):
        expect = round(np.linalg.det(np.array(m.entries, dtype=float)))
        assert aw.determinant(m) == int(expect)


class TestUnimodular:
    def test_examples(self):
        assert aw.is_unimodular(IntMatrix.from_rows([[1, -1], [0, 1]]))
        assert not aw.is_unimodular(IntMatrix.diagonal([3, 2]))
        assert aw.is_unimodular(IntMatrix.identity(4))

    def test_inverse_roundtrip(self):
        rng = np.random.RandomState(5)
        for _ in range(20):
            u = random_unimodular(rng, 3)
            assert u @ aw.inverse_unimodular(u) == IntMatrix.identity(3)


class TestExpansive:
    def test_examples(self):
        assert aw.is_expansive(IntMatrix.diagonal([3, 2]))
        assert aw.is_expansive(XI1)
        assert not aw.is_expansive(IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            aw.is_expansive(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_eigenvalue_one_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            aw.is_expansive(IntMatrix.diagonal([1, 4]))


def brute_force_smith_diagonal(m):
    """Canonical diagonal via determinantal divisors (gcd of all minors)."""
    n = m.dim
    rows = np.array(m.entries, dtype=object)
    divisors = [1]
    for k in range(1, n + 1):
        minors = []
        for ri in itertools.combinations(range(n), k):
            for ci in itertools.combinations(range(n), k):
                sub = IntMatrix.from_rows([[int(rows[i][j]) for j in ci]
                                           for i in ri])
                minors.append(abs(aw.determinant(sub)))
        divisors.append(math.gcd(*minors) if any(minors) else 0)
    out = []
    for k in range(1, n + 1):
        if divisors[k] == 0:
            out.append(0)
        else:
            out.append(divisors[k] // divisors[k - 1])
    return tuple(out)


class TestSmithNormalForm:
    def test_worked_example(self):
        fact = aw.smith_normal_form(IntMatrix.diagonal([3, 2, 2]))
        assert fact.sigma == (1, 2, 6)
        assert fact.reconstruct() == IntMatrix.diagonal([3, 2, 2])

    def test_identity(self):
        fact = aw.smith_normal_form(IntMatrix.identity(2))
        assert fact.sigma == (1, 1)
        assert fact.theta1 == IntMatrix.identity(2)
        assert fact.theta2 == IntMatrix.identity(2)

    def test_diag_3_2(self):
        assert aw.smith_normal_form(IntMatrix.diagonal([3, 2])).sigma == (1, 6)

    def test_against_determinantal_divisors(self):
        rng = np.random.RandomState(13)
        for dim in (2, 3):
            for _ in range(40):
                m = IntMatrix.from_rows(rng.randint(-9, 10, (dim, dim)).tolist())
                fact = aw.smith_normal_form(m)
                assert fact.sigma == brute_force_smith_diagonal(m)
                assert fact.reconstruct() == m
                for i in range(dim - 1):
                    if fact.sigma[i]:
                        assert fact.sigma[i + 1] % fact.sigma[i] == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(small_matrices))
    def test_reconstruction_and_divisibility(self, m):
        fact = aw.smith_normal_form(m)
        assert fact.reconstruct() == m
        assert aw.is_unimodular(fact.theta1) and aw.is_unimodular(fact.theta2)
        assert all(s >= 0 for s in fact.sigma)
        for a, b in zip(fact.sigma, fact.sigma[1:]):
            assert (b % a == 0) if a else b == 0  # divisibility, zeros trailing

    def test_singular_allowed(self):
        fact = aw.smith_normal_form(IntMatrix.from_rows([[2, 4], [1, 2]]))
        assert fact.sigma == (1, 0)
        assert fact.reconstruct() == IntMatrix.from_rows([[2, 4], [1, 2]])

    @pytest.mark.parametrize("rows, sigma", [
        ([[-46, 28, -18], [0, 4, 0], [120, -68, 47]], (1, 2, 4)),
        ([[1, 0, 0, 0], [17, -15, 18, 0], [6, -6, 6, 0], [0, 0, 0, 4]], (1, 1, 6, 12)),
        ([[7, 5, 4, 7], [-8, -5, -5, -2], [6, -7, -8, -7], [8, -9, -9, 8]], (1, 1, 1, 2086)),
    ])
    def test_repaired_chain_is_canonical(self, rows, sigma):
        # one divisibility repair leaves these with a non-diagonal trailing
        # block (the first two) or a pair that still breaks the chain
        m = IntMatrix.from_rows(rows)
        fact = aw.smith_normal_form(m)
        assert fact.sigma == sigma == brute_force_smith_diagonal(m)
        assert fact.reconstruct() == m


class TestListRows:
    """``IntMatrix(entries)`` with list rows is the matrix ``from_rows`` builds."""

    def test_equal_and_hash_as_from_rows(self):
        m = IntMatrix([[3, 0], [0, 2]])
        assert m == IntMatrix.from_rows([[3, 0], [0, 2]])
        assert hash(m) == hash(IntMatrix.from_rows([[3, 0], [0, 2]]))
        assert m.entries == ((3, 0), (0, 2))
        assert all(type(x) is int for row in m.entries for x in row)

    def test_integral_entries_of_any_type(self):
        for rows in ([np.array([3, -1]), [0.0, 2]], ((3.0, np.int64(-1)), (0, 2))):
            m = IntMatrix(rows)
            assert m == XI1 and all(type(x) is int for row in m.entries for x in row)

    @pytest.mark.parametrize("rows", [[[3, 0.5], [0, 2]], [[3, 0], ["2", 1]],
                                      ((3.5, 0), (0, 2))])
    def test_non_integral_entry_refused(self, rows):
        with pytest.raises(ValueError):
            IntMatrix(rows)

    def test_fixed_width_entries_stay_exact(self):
        # np.int64 products would wrap past 2**63 in the determinant
        big = np.int64(3_100_000_000)
        m = IntMatrix(((big, np.int64(1)), (np.int64(0), big)))
        assert all(type(x) is int for row in m.entries for x in row)
        assert aw.determinant(m) == 9_610_000_000_000_000_000

    def test_smith_factorization(self):
        got = aw.smith_normal_form(IntMatrix([[3, -1], [0, 2]]))
        assert got == aw.smith_normal_form(XI1)
        assert got.reconstruct() == XI1

    def test_build_bank(self):
        rows = [[2, -2, -2], [-3, 5, 2], [0, 2, 2]]
        sets = (aw.daubechies2(), aw.chui_lian_ternary(), aw.daubechies2())
        got = aw.build_bank(IntMatrix(rows), (2, 3, 2), sets)
        want = aw.build_bank(IntMatrix.from_rows(rows), (2, 3, 2), sets)
        assert got.xi == want.xi and got.fact == want.fact
        assert got.filters.keys() == want.filters.keys()
        for eta, f in want.filters.items():
            assert got.filters[eta].origin == f.origin
            assert got.filters[eta].data.tobytes() == f.data.tobytes()


class TestSmithWithTarget:
    def test_already_diagonal(self):
        fact = aw.smith_with_target(IntMatrix.diagonal([3, 2]), (3, 2))
        assert fact.theta1 == IntMatrix.identity(2)
        assert fact.theta2 == IntMatrix.identity(2)

    def test_sheared_dilation_gets_printed_factors(self):
        fact = aw.smith_with_target(XI1, (3, 2))
        assert fact.theta1 == IntMatrix.from_rows([[1, 1], [0, 1]])
        assert fact.theta2 == IntMatrix.from_rows([[1, -1], [0, 1]])
        assert fact.reconstruct() == XI1

    def test_printed_pair_is_valid_factorization(self):
        fact = SmithFactorization(IntMatrix.from_rows([[1, 1], [0, 1]]), (3, 2),
                                  IntMatrix.from_rows([[1, -1], [0, 1]]))
        assert fact.reconstruct() == XI1

    def test_incompatible_diagonal(self):
        with pytest.raises(IncompatibleDiagonalError):
            aw.smith_with_target(IntMatrix.diagonal([3, 2]), (1, 5))

    def test_composition_route(self):
        # target is the normal form itself; eigenvalues do not match it
        fact = aw.smith_with_target(IntMatrix.diagonal([3, 2]), (1, 6))
        assert fact.sigma == (1, 6)
        assert fact.reconstruct() == IntMatrix.diagonal([3, 2])

    def test_random_conjugates(self):
        rng = np.random.RandomState(23)
        for _ in range(20):
            u = random_unimodular(rng, 2)
            m = u @ IntMatrix.diagonal([3, 2]) @ aw.inverse_unimodular(u)
            fact = aw.smith_with_target(m, (3, 2))
            assert fact.reconstruct() == m

    def test_higher_dim_shear(self):
        fam = aw.dilation_family(4, 2, 3)
        fact = aw.smith_with_target(fam.matrices[2], (4, 4, 2))
        assert fact.reconstruct() == fam.matrices[2]
        assert fact.theta1 == aw.inverse_unimodular(fam.shears[2])

    def test_target_past_a_failing_kernel_normal_form(self):
        # the kernel of m - 2I was read off a Smith normal form whose
        # reconstruction fails, so this raised AssertionError; the
        # eigenvectors are not unimodular, so the normal forms compose
        m = IntMatrix.from_rows([[-44, 28, -18], [0, 6, 0], [120, -68, 49]])
        fact = aw.smith_with_target(m, (1, 2, 12))
        assert fact.sigma == (1, 2, 12)
        assert fact.reconstruct() == m


#: exact factors of the library before its eliminations carried identity blocks
CORPUS = json.loads((Path(__file__).parent / "data" / "smith_corpus.json").read_text())


def as_json(fact):
    return {"theta1": fact.theta1.rows(), "sigma": list(fact.sigma),
            "theta2": fact.theta2.rows()}


@pytest.mark.parametrize("case", CORPUS["cases"],
                         ids=lambda c: f"{c['source']}:{c['m']}")
def test_factors_match_corpus(case):
    m = IntMatrix.from_rows(case["m"])
    assert as_json(aw.smith_normal_form(m)) == case["snf"]
    for entry in case["targets"]:
        assert as_json(aw.smith_with_target(m, entry["target"])) == entry["fact"]


def test_corpus_covers_its_sources():
    sources = Counter(c["source"] for c in CORPUS["cases"])
    assert sources["design"] == 59 and sources["ci"] == 5 and sources["random"] == 100
    assert sum(0 in c["snf"]["sigma"] for c in CORPUS["cases"]) > 10


@st.composite
def kernel_problems(draw):
    """m - t I for m = U diag(d) U^-1 and t drawn from d, or a singular m."""
    s = draw(st.integers(1, 4))
    if draw(st.booleans()):
        u = draw(unimodular_products().filter(lambda u: u.dim == s))
        d = draw(st.lists(st.integers(-4, 6), min_size=s, max_size=s))
        m = u @ IntMatrix.diagonal(d) @ aw.inverse_unimodular(u)
        t = draw(st.sampled_from(d))
        return IntMatrix.from_rows([[x - (t if i == j else 0) for j, x in enumerate(row)]
                                    for i, row in enumerate(m.entries)])
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=s, max_size=s),
                         min_size=s, max_size=s))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=s, max_size=s))
    # one row a combination of the others: singular (or zero)
    rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows[:-1])) for j in range(s)]
    return IntMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(kernel_problems())
def test_kernel_basis_matches_snf_route(m):
    try:
        expect = snf_kernel_basis(m)
    except AssertionError:  # the oracle's Smith reconstruction failed
        assume(False)
    basis = _kernel_basis(m)
    assert basis == expect
    assert all(m.apply(v) == (0,) * m.dim for v in basis)


def reference_cosets(xi):
    """Oracle: the bounding-box scan with an exact Fraction inverse per point."""
    inv = gauss_jordan_inverse(xi)
    s = xi.dim
    corners = [xi.apply(c) for c in itertools.product((0, 1), repeat=s)]
    lo = [min(c[i] for c in corners) for i in range(s)]
    hi = [max(c[i] for c in corners) for i in range(s)]
    return [point
            for point in itertools.product(*[range(lo[i], hi[i] + 1) for i in range(s)])
            if all(0 <= x < 1 for x in inv.apply(point))]


nonsingular_matrices = (st.integers(min_value=1, max_value=3)
                        .flatmap(lambda dim: small_matrices(dim, -5, 5))
                        .filter(lambda m: aw.determinant(m) != 0))


class TestCosets:
    def test_diagonal(self):
        reps = aw.coset_representatives(IntMatrix.diagonal([3, 2]))
        assert sorted(reps) == sorted(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])

    def test_sheared(self):
        reps = aw.coset_representatives(XI1)
        assert sorted(reps) == sorted(
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)])

    def test_identity(self):
        assert aw.coset_representatives(IntMatrix.identity(2)) == [(0, 0)]

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            aw.coset_representatives(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_count_and_distinctness_random(self):
        rng = np.random.RandomState(31)
        seen = 0
        for dim in (2, 3):
            while seen < (25 if dim == 2 else 50):
                u = random_unimodular(rng, dim, ops=3)
                diag = [int(rng.choice([2, 3, 4])) for _ in range(dim)]
                m = u @ IntMatrix.diagonal(diag) @ aw.inverse_unimodular(u)
                d = abs(aw.determinant(m))
                if d > 24:
                    continue
                seen += 1
                reps = aw.coset_representatives(m)
                assert len(reps) == d
                inv = rational_inverse(m)
                for a, b in itertools.combinations(reps, 2):
                    diff = inv.apply(tuple(x - y for x, y in zip(a, b)))
                    assert any(x.denominator != 1 for x in diff)

    @settings(max_examples=80, deadline=None)
    @given(nonsingular_matrices)
    def test_matches_rational_scan(self, m):
        assert aw.coset_representatives(m) == reference_cosets(m)


class TestDilationFamily:
    def test_base_family(self):
        fam = aw.dilation_family(3, 2, 2)
        assert fam.matrices[0] == IntMatrix.diagonal([3, 2])
        assert fam.matrices[1] == XI1

    def test_sign_flip(self):
        fam = aw.dilation_family(3, 2, 2, signs=(1,))
        assert fam.matrices[1] == IntMatrix.from_rows([[3, 1], [0, 2]])

    def test_three_dim(self):
        fam = aw.dilation_family(4, 2, 3)
        assert fam.matrices[2] == IntMatrix.from_rows(
            [[4, 0, 0], [0, 4, -2], [0, 0, 2]])

    def test_conjugation_identity(self):
        for signs in [(0,), (1,)]:
            fam = aw.dilation_family(3, 2, 2, signs)
            for j in (1,):
                gam = fam.shears[j]
                assert fam.matrices[j] == (
                    aw.inverse_unimodular(gam) @ fam.matrices[0] @ gam)

    def test_bad_scales(self):
        with pytest.raises(BadScalesError):
            aw.dilation_family(2, 3, 2)
        with pytest.raises(BadScalesError):
            aw.dilation_family(3, 1, 2)


class TestXiProducts:
    def test_single(self, family):
        assert aw.xi_product(family, (1,)) == XI1

    def test_empty(self, family):
        assert aw.xi_product(family, ()) == IntMatrix.identity(2)

    def test_pair(self, family):
        assert aw.xi_product(family, (1, 1)) == IntMatrix.from_rows(
            [[9, -5], [0, 4]])

    def test_closed_form_examples(self, family):
        inv = aw.xi_inverse_closed_form(family, (1,))
        assert inv.entries == ((Fraction(1, 3), Fraction(1, 6)),
                               (Fraction(0), Fraction(1, 2)))
        inv2 = aw.xi_inverse_closed_form(family, (1, 1))
        assert inv2.entries == ((Fraction(1, 9), Fraction(5, 36)),
                                (Fraction(0), Fraction(1, 4)))
        assert digit_polynomial(family, (1, 1)) == (Fraction(5, 9),)
        inv3 = aw.xi_inverse_closed_form(family, (0, 0, 0))
        assert inv3.entries == ((Fraction(1, 27), Fraction(0)),
                                (Fraction(0), Fraction(1, 8)))

    def test_closed_form_inverts_product(self, family):
        ident = RatMatrix.identity(2)
        for n in range(0, 7):
            for eps in itertools.product(range(2), repeat=n):
                prod = aw.xi_product(family, eps)
                inv = aw.xi_inverse_closed_form(family, eps)
                assert (inv @ prod).entries == ident.entries

    def test_closed_form_signed_family(self):
        fam = aw.dilation_family(3, 2, 2, signs=(1,))
        ident = RatMatrix.identity(2)
        for eps in itertools.product(range(2), repeat=4):
            inv = aw.xi_inverse_closed_form(fam, eps)
            assert (inv @ aw.xi_product(fam, eps)).entries == ident.entries


class TestContractivity:
    def test_bound_at_one(self):
        assert abs(aw.contractivity_bound(3, 2, 1) - 5.0 / 6.0) < 1e-15
        assert contractivity_bound_power(3, 2, 1) == Fraction(5, 6)

    def test_bound_limit(self):
        assert abs(aw.contractivity_bound(3, 2, 200) - 0.5) < 1e-15

    def test_column_norm_example(self, family):
        inv = aw.xi_inverse_closed_form(family, (1,))
        norm_one = max(sum(abs(row[j]) for row in inv.entries) for j in range(inv.dim))
        assert norm_one == Fraction(2, 3)
        assert norm_one <= contractivity_bound_power(3, 2, 1)

    @pytest.mark.parametrize("s,n_max", [(2, 8), (3, 6)])
    def test_norm_bound_all_words(self, s, n_max):
        fam = aw.dilation_family(3, 2, s)
        for n in range(1, n_max + 1):
            bound = contractivity_bound_power(3, 2, n)
            for eps in itertools.product(range(s), repeat=n):
                norm = aw.xi_inverse_closed_form(fam, eps).norm_inf()
                assert norm < 1
                assert norm <= bound
