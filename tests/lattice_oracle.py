"""Oracles for the lattice layer: the routes the library took before it
read integer kernels off one Hermite form and steered slopes through
the digit polynomial.

``snf_kernel_basis`` is the saturated kernel of a matrix from its Smith
normal form: the columns of theta2^-1 at the zero diagonal values, put
in Hermite form.  ``contraction_word`` applies a digit word's
contractions to an unsigned slope one digit at a time, the last digit
first.
"""

from fractions import Fraction

from anisowave.errors import BadDigitError
from anisowave.lattice import _row_hermite, inverse_unimodular, smith_normal_form


def snf_kernel_basis(m):
    fact = smith_normal_form(m)
    inv2 = inverse_unimodular(fact.theta2)
    cols = [j for j, s in enumerate(fact.sigma) if s == 0]
    raw = [[inv2.entries[i][j] for i in range(m.dim)] for j in cols]
    return _row_hermite(raw) if raw else []


def contraction_word(family, eps, u):
    x = family.ratio
    val = list(u)
    for d in reversed(tuple(eps)):
        if not 0 <= d < family.dim:
            raise BadDigitError(f"digit {d} outside range(0, {family.dim})")
        shift = (1 - x) if d > 0 else Fraction(0)
        val = [x * v + (shift if i == d - 1 else 0) for i, v in enumerate(val)]
    return tuple(val)
