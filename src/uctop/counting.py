"""Point counts over finite fields, E-polynomials and purity Poincare polynomials.

The count is a polynomial identity in q: q^n times the sum, over all subsets
S of the simple roots, of |pi0(Z(L_S))| (q-1)^(n-|S|). Since |pi0(Z(L_S))|
counts the classes of X/Q (X the character lattice, Q the root lattice)
whose support lies in S, the sum collapses to one term per class:

    count(q)  =  sum over lambda in X/Q of  q^(2n - |supp lambda|),

read from the support histogram of `quotient_supports`, with no Smith form
and no loop over the 2^n sets S. The E-polynomial is the same polynomial
read in the variable uv, and under purity the Poincare polynomial is
recovered by substituting u = v = -1/t and multiplying by t^(4n). Each of
the three polynomials is computed once per datum, cached on it and freed
with it; a `QPolynomial` is immutable, so every caller can share it.
"""

from __future__ import annotations

from ._value import Frozen, setfield
from .errors import NegativeCoefficient, NonPolynomialResult
from .rootdata import RootDatum, memoized, quotient_supports

__all__ = [
    "QPolynomial",
    "point_count_poly",
    "e_polynomial",
    "poincare_from_purity",
    "purity_poincare_coeffs",
    "format_poly",
]


def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(int(c) for c in cs)


class QPolynomial(Frozen):
    """Integer polynomial; `variable` is "q", "uv" (with q = uv) or "t"."""

    __slots__ = _fields = ("coeffs", "variable")

    def __init__(self, coeffs: tuple[int, ...], variable: str = "q") -> None:
        setfield(self, "coeffs", _trim(coeffs))
        setfield(self, "variable", variable)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    # `x` is an int or a fractions.Fraction (the tests pass one); every
    # command passes an int, and annotations are not evaluated, so no
    # command imports `fractions`
    def evaluate(self, x: int | Fraction):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return format_poly(self.coeffs, self.variable)


@memoized
def point_count_poly(d: RootDatum) -> QPolynomial:
    """Number of points over F_q as a polynomial in q (monic, degree 2n)."""
    sizes = quotient_supports(d).sizes  # sizes[k] classes give q^(2n - k)
    return QPolynomial((0,) * d.rank + sizes[::-1])


@memoized
def e_polynomial(d: RootDatum) -> QPolynomial:
    """E-polynomial: the point count read in the variable uv."""
    return QPolynomial(point_count_poly(d).coeffs, variable="uv")


def purity_poincare_coeffs(e_coeffs: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Coefficients of t^(4n) E(-1/t, -1/t) for an E-polynomial in q = uv.

    Raises NonPolynomialResult if a negative power of t survives and
    NegativeCoefficient if any resulting coefficient is negative.
    """
    out = [0] * (4 * n + 1)
    for k, c in enumerate(e_coeffs):
        if c == 0:
            continue
        exponent = 4 * n - 2 * k  # (uv)^k -> t^(-2k), then shift by t^(4n)
        if exponent < 0:
            raise NonPolynomialResult(
                f"term of degree {k} exceeds 2n = {2 * n}; the substitution "
                "does not yield a polynomial"
            )
        out[exponent] += c
    bad = next((k for k, c in enumerate(out) if c < 0), None)
    if bad is not None:
        raise NegativeCoefficient(
            f"purity substitution gives coefficient {out[bad]} at t^{bad}"
        )
    return tuple(out)


@memoized
def poincare_from_purity(d: RootDatum) -> QPolynomial:
    """Purity-predicted Poincare polynomial (sum of b_k t^k), in the variable t.

    The prediction assumes the cohomology carries a pure Hodge structure; the
    result is reported as a prediction, not a theorem, for inputs where the
    assembly route refuses.
    """
    e = e_polynomial(d)
    return QPolynomial(purity_poincare_coeffs(e.coeffs, d.rank), "t")


def format_poly(coeffs: tuple[int, ...], variable: str) -> str:
    """Render in descending powers: e.g. "q^2 + q", "(uv)^4", "1 + 0" never."""
    if not coeffs:
        return "0"
    var = f"({variable})" if len(variable) > 1 else variable
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}{pw}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
