"""Continuant polynomials and quantum-number arithmetic.

The one-variable family kappa_n satisfies kappa_0 = 1, kappa_1 = x and
kappa_{n+1} = x*kappa_n - kappa_{n-1}.  The two-variable family mu_n obeys
the same recurrence with the multiplier alternating between x and y, so
that setting y = x recovers kappa_n; the cyclotomic parts nu_n are the
unique polynomials with mu_{m-1} = prod_{i | m} nu_{i-1}.

All three come from one integer recurrence on Z[z], z = xy, run on the
tuples of the ring layer's ``_z*`` core at one variable:

* mu_n = x^(n mod 2) U_n(z), where U_0 = U_1 = 1, U_n = U_{n-1} - U_{n-2}
  at odd n and U_n = z U_{n-1} - U_{n-2} at even n.  By induction: at odd
  n, mu_n = x mu_{n-1} - mu_{n-2} = x (U_{n-1} - U_{n-2}); at even n,
  mu_n = y mu_{n-1} - mu_{n-2} = yx U_{n-1} - U_{n-2}.  So kappa_n =
  x^(n mod 2) U_n(x^2), and mu_300 is 151 integers rather than a dense
  Z[x][y] table.
* nu_0 = 1, nu_1 = x, and nu_{m-1} lies in Z[z] for every other m.  Give
  x^a y^b the weight a - b: this grades the domain Z[x, y] by Z, and Z[z]
  is its weight-0 part.  If f = g h with f, g of weight 0, the products of
  the highest and of the lowest weight parts of g and h show that h has
  weight 0 too.  Dividing out x = nu_1 when m is even, mu_{m-1} leaves
  U_{m-1}, and by induction on m every other nu_{i-1}, i | m, lies in
  Z[z]; so nu_{m-1} is U_{m-1} divided exactly, in Z[z], by the nu_{i-1}
  of the divisors 2 < i < m.

Quantum numbers of a triple are the evaluations [n] = mu_{n-1}(d1, d2) and
[[n]] = nu_{n-1}(d1, d2), that is the Z[z] polynomials at z0 = d1 d2
(times d1 for [n] at even n).  Each is evaluated as the power sum
sum_j c_j z0^j, not by Horner's rule: Horner multiplies the whole partial
sum by z0 at every step, and over a rational-function field that partial
sum is the large operand, while the powers of z0 = t u at the default loop
values stay monomials (`rotatable --n 400` took 28.5 s with Horner's rule
and 9.5 s with the power sum; CPython 3.11, 2-core Intel Xeon VM).  Quantum binomials are computed as products of the
[[d]] via a floor-function exponent vector, which keeps them well-defined
in rings where the literal quotient of quantum numbers is illegal.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .rings import RingValue, Triple, _zdiv, _zsub


class IntPolynomial:
    """Sparse polynomial in Z[x, y], keyed by (x-degree, y-degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[Tuple[int, int], int]):
        self.coeffs = {k: c for k, c in coeffs.items() if c != 0}

    # -- constructors --------------------------------------------------

    @staticmethod
    def const(n: int) -> "IntPolynomial":
        return IntPolynomial({(0, 0): n})

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial({(1, 0): 1})

    @staticmethod
    def y() -> "IntPolynomial":
        return IntPolynomial({(0, 1): 1})

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out: Dict[Tuple[int, int], int] = {}
        for (i, j), c in self.coeffs.items():
            for (k, l), d in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        return IntPolynomial(out)

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- structure ------------------------------------------------------

    def substitute_y_with_x(self) -> "IntPolynomial":
        out: Dict[Tuple[int, int], int] = {}
        for (i, j), c in self.coeffs.items():
            key = (i + j, 0)
            out[key] = out.get(key, 0) + c
        return IntPolynomial(out)

    def reduce_mod(self, p: int) -> "IntPolynomial":
        return IntPolynomial({k: c % p for k, c in self.coeffs.items()})

    def evaluate_float(self, xval: float, yval: float = 0.0) -> float:
        if all(j == 0 for _, j in self.coeffs):
            # Horner scheme in x; the monomial sum loses digits at degree ~20
            degree = max((i for i, _ in self.coeffs), default=0)
            acc = 0.0
            for i in range(degree, -1, -1):
                acc = acc * xval + self.coeffs.get((i, 0), 0)
            return acc
        return sum(c * xval**i * yval**j for (i, j), c in self.coeffs.items())

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), kv[0])):
            mono = "".join(
                [
                    (f"x^{i}" if i > 1 else "x") if i else "",
                    ("*" if i and j else ""),
                    (f"y^{j}" if j > 1 else "y") if j else "",
                ]
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    __repr__ = __str__


# U_0, U_1, ...: ascending integer coefficients in z, grown on demand
_U = [(1,), (1,)]


def _u(n: int) -> tuple:
    """U_n in Z[z], so that mu_n = x^(n mod 2) U_n(xy)."""
    if n < 0:
        raise ValueError("continuants are indexed by naturals")
    while len(_U) <= n:
        k = len(_U)
        lead = _U[-1] if k % 2 else (0,) + _U[-1]
        _U.append(_zsub(lead, _U[-2], 1))
    return _U[n]


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple:
    """nu_{m-1} in Z[z] for m >= 1, m != 2."""
    part = _u(m - 1)
    for i in range(3, m // 2 + 1):
        if m % i == 0:
            part = _zdiv(part, _cyclotomic(i), 1)
    return part


def kappa(n: int) -> IntPolynomial:
    """Chebyshev-type continuant kappa_n = mu_n(x, x) in Z[x]."""
    return IntPolynomial({(2 * j + n % 2, 0): c for j, c in enumerate(_u(n))})


def mu(n: int) -> IntPolynomial:
    """Two-variable continuant mu_n; the recurrence multiplier alternates
    x (even step) and y (odd step), so mu(y=x) = kappa."""
    return IntPolynomial({(j + n % 2, j): c for j, c in enumerate(_u(n))})


def nu(n: int) -> IntPolynomial:
    """Cyclotomic part nu_n, defined by mu_{m-1} = prod_{i | m} nu_{i-1}."""
    if n == 1:
        return IntPolynomial({(1, 0): 1})
    return IntPolynomial({(j, j): c for j, c in enumerate(_cyclotomic(n + 1))})


def _power_sum(coeffs: tuple, powers: list) -> RingValue:
    """sum_j coeffs[j] * powers[j]."""
    ring = powers[0].ring
    total = ring.zero
    for c, power in zip(coeffs, powers):
        if c:
            total = total + ring.from_int(c) * power
    return total


@lru_cache(maxsize=None)
def qnum(triple: Triple, n: int) -> Tuple[RingValue, RingValue]:
    """The quantum numbers ([n], [[n]]) of the triple; [0] = [[0]] = 0."""
    if n < 0:
        raise ValueError("quantum numbers are indexed by naturals")
    ring, d1 = triple.ring, triple.delta1
    if n == 0:
        return ring.zero, ring.zero
    u = _u(n - 1)
    z0, powers = d1 * triple.delta2, [ring.one]
    for _ in range(len(u) - 1):
        powers.append(powers[-1] * z0)
    qn = _power_sum(u, powers)
    if n % 2 == 0:
        qn = d1 * qn
    return qn, d1 if n == 2 else _power_sum(_cyclotomic(n), powers)


def qbinom_exponents(n: int, i: int) -> Dict[int, int]:
    """Exponent of [[d]] in the quantum binomial (n choose i); each lies in {0, 1}."""
    if not 1 <= i <= n:
        raise ValueError(f"binomial index {i} out of range 1..{n}")
    return {d: n // d - i // d - (n - i) // d for d in range(1, n + 1)}


def qbinom(triple: Triple, n: int, i: int) -> RingValue:
    """Quantum binomial (n choose i) of the triple, as a product of the [[d]]."""
    result = triple.ring.one
    for d, e in qbinom_exponents(n, i).items():
        if e not in (0, 1):
            raise ValueError("binomial exponents must lie in {0, 1}")
        if e:
            result = result * qnum(triple, d)[1]
    return result
