"""Continuant polynomials and quantum-number arithmetic.

The one-variable family kappa_n satisfies kappa_0 = 1, kappa_1 = x and
kappa_{n+1} = x*kappa_n - kappa_{n-1}.  The two-variable family mu_n obeys
the same recurrence with the multiplier alternating between x and y, so
that setting y = x recovers kappa_n; the cyclotomic parts nu_n are the
unique polynomials with mu_{m-1} = prod_{i | m} nu_{i-1}.

Quantum numbers of a triple are the evaluations [n] = mu_{n-1}(d1, d2) and
[[n]] = nu_{n-1}(d1, d2); quantum binomials are computed as products of the
[[d]] via a floor-function exponent vector, which keeps them well-defined
in rings where the literal quotient of quantum numbers is illegal.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Tuple

from ._plain import Frozen
from .rings import RingValue, Triple


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

    def leading_key(self) -> Tuple[int, int]:
        """Graded-lex leading monomial key."""
        return max(self.coeffs, key=lambda k: (k[0] + k[1], k))

    def exact_divide(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact division in Z[x, y]; raises ArithmeticError on failure."""
        if divisor.is_zero():
            raise ArithmeticError("division by zero polynomial")
        rem = IntPolynomial(dict(self.coeffs))
        quo: Dict[Tuple[int, int], int] = {}
        dk = divisor.leading_key()
        dc = divisor.coeffs[dk]
        while not rem.is_zero():
            rk = rem.leading_key()
            rc = rem.coeffs[rk]
            if rk[0] < dk[0] or rk[1] < dk[1] or rc % dc != 0:
                raise ArithmeticError("division is not exact")
            mk = (rk[0] - dk[0], rk[1] - dk[1])
            mc = rc // dc
            quo[mk] = quo.get(mk, 0) + mc
            rem = rem - IntPolynomial({mk: mc}) * divisor
        return IntPolynomial(quo)

    def substitute_y_with_x(self) -> "IntPolynomial":
        out: Dict[Tuple[int, int], int] = {}
        for (i, j), c in self.coeffs.items():
            key = (i + j, 0)
            out[key] = out.get(key, 0) + c
        return IntPolynomial(out)

    def reduce_mod(self, p: int) -> "IntPolynomial":
        return IntPolynomial({k: c % p for k, c in self.coeffs.items()})

    def evaluate(self, xval: RingValue, yval: RingValue) -> RingValue:
        ring = xval.ring
        acc = ring.zero
        xpow: Dict[int, RingValue] = {0: ring.one}
        ypow: Dict[int, RingValue] = {0: ring.one}

        def power(cache, base, n):
            while len(cache) <= n:
                cache[len(cache)] = cache[len(cache) - 1] * base
            return cache[n]

        for (i, j), c in sorted(self.coeffs.items()):
            acc = acc + ring.from_int(c) * power(xpow, xval, i) * power(ypow, yval, j)
        return acc

    def evaluate_float(self, xval: float, yval: float = 0.0) -> float:
        if all(j == 0 for _, j in self.coeffs):
            # Horner scheme in x; the monomial sum loses digits at degree ~20
            degree = max((i for i, _ in self.coeffs), default=0)
            acc = 0.0
            for i in range(degree, -1, -1):
                acc = acc * xval + self.coeffs.get((i, 0), 0)
            return acc
        return sum(c * xval**i * yval**j for (i, j), c in self.coeffs.items())

    def degree(self) -> int:
        if self.is_zero():
            return -1
        return max(i + j for i, j in self.coeffs)

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


_X = IntPolynomial.x()
_Y = IntPolynomial.y()
_ONE = IntPolynomial.const(1)


def kappa(n: int) -> IntPolynomial:
    """Chebyshev-type continuant kappa_n in Z[x]."""
    if n < 0:
        raise ValueError("continuants are indexed by naturals")
    prev, current = IntPolynomial({}), _ONE  # kappa_{-1} = 0, kappa_0 = 1
    for _ in range(n):
        prev, current = current, _X * current - prev
    return current


def kappa_closed_form(n: int) -> IntPolynomial:
    """The alternating binomial expansion of kappa_n (independent oracle)."""
    out: Dict[Tuple[int, int], int] = {}
    for i in range(n // 2 + 1):
        out[(n - 2 * i, 0)] = (-1) ** i * math.comb(n - i, i)
    return IntPolynomial(out)


@lru_cache(maxsize=None)
def mu(n: int) -> IntPolynomial:
    """Two-variable continuant mu_n; the recurrence multiplier alternates
    x (even step) and y (odd step), so mu(y=x) = kappa."""
    if n == 0:
        return _ONE
    if n == 1:
        return _X
    multiplier = _X if (n - 1) % 2 == 0 else _Y
    return multiplier * mu(n - 1) - mu(n - 2)


@lru_cache(maxsize=None)
def nu(n: int) -> IntPolynomial:
    """Cyclotomic part nu_n, defined by mu_{m-1} = prod_{i | m} nu_{i-1}."""
    m = n + 1
    result = mu(m - 1)
    for i in range(1, m):
        if m % i == 0:
            result = result.exact_divide(nu(i - 1))
    return result


@lru_cache(maxsize=None)
def qnum(triple: Triple, n: int) -> Tuple[RingValue, RingValue]:
    """The quantum numbers ([n], [[n]]) of the triple; [0] = [[0]] = 0."""
    if n < 0:
        raise ValueError("quantum numbers are indexed by naturals")
    if n == 0:
        zero = triple.ring.zero
        return zero, zero
    d1, d2 = triple.delta1, triple.delta2
    return mu(n - 1).evaluate(d1, d2), nu(n - 1).evaluate(d1, d2)


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


def qbinom_literal(triple: Triple, n: int, i: int):
    """The division-based quantum binomial, or None when a denominator is
    not invertible.  Cross-check oracle for :func:`qbinom`."""
    if not 1 <= i <= n:
        raise ValueError(f"binomial index {i} out of range 1..{n}")
    numerator = triple.ring.one
    for k in range(n - i + 1, n + 1):
        numerator = numerator * qnum(triple, k)[0]
    denominator = triple.ring.one
    for k in range(1, i + 1):
        denominator = denominator * qnum(triple, k)[0]
    inv = denominator.inverse()
    if inv is None:
        return None
    return numerator * inv


class QuantumTable(Frozen):
    """Quantum numbers [0..n] and [[0..n]] of a triple, for display."""

    _fields = ("triple", "qnums", "qqnums")

    def __init__(self, triple: Triple, qnums: tuple, qqnums: tuple):
        self._set(triple=triple, qnums=qnums, qqnums=qqnums)

    @staticmethod
    def build(triple: Triple, n: int) -> "QuantumTable":
        pairs = [qnum(triple, k) for k in range(n + 1)]
        return QuantumTable(triple, tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def rows(self):
        for k in range(len(self.qnums)):
            yield k, self.qnums[k], self.qqnums[k]
