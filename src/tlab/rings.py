"""Exact coefficient rings behind one small contract.

Four kinds of ring are supported, all fields with decidable equality:

* ``Q``           -- the rationals,
* ``Fp:<p>``      -- the prime field with p elements,
* ``cyclo:<m>``   -- the cyclotomic field Q[q]/(Phi_m(q)),
* ``ratfun:<r>``  -- the field of rational functions over any of the above
                     (nestable, so Q(t)(u) is ``ratfun:ratfun:Q``).

Every element is kept in a canonical form (residue in [0, p), integer
polynomial of degree < deg Phi_m over a positive denominator coprime to its
content; over Q and the rational functions over it a coprime pair of
integers or integer polynomials, one arithmetic for the whole tower; over
other bases a gcd-reduced numerator/denominator with monic denominator), so
payload equality is equality in the ring and ``is_zero`` is trivial.
Values are immutable; all operations are pure.

Rational-function generators are named by nesting depth, innermost first:
``t``, ``u``, ``v``, ``w``.  The cyclotomic generator is always ``q``.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import Optional

from ._plain import Frozen


class RingError(ValueError):
    """Base class for ring construction and arithmetic errors."""


class RingSpecError(RingError):
    """Malformed ring-specification string."""


class ElementParseError(RingError):
    """Malformed element expression."""


class RingLimitError(RingError):
    """A well-formed input beyond what the ring layer computes with."""


# Largest |exponent| accepted in rings whose payloads grow with it (Q and
# rational-function fields).  At this limit `qnum --upto 4` over Q(t)(u)
# with d1 = u^1000*t^-1000 takes 0.19 s and `jw --n 4` over Q(t) with both
# loop values t^1000 takes 0.56 s; both grow about linearly with the
# exponent (CPython 3.11 on one core of an Intel Xeon virtual machine).
MAX_EXPONENT = 1000

# Largest predicted size (see Ring.size) of a power x^e, |e| * size(x), in
# the rings whose payloads grow: 2000 is the prediction for t^1000 and
# 3^1000, so x^1000 passes for x = t, t + 1, u or 3, while nested powers
# such as (t^1000)^3 cannot grow past it.  Over Q the unit is the bit, and
# the limit stays under the 4,300 digits (about 14,280 bits) that CPython
# converts from int to str.
MAX_POWER_SIZE = 2 * MAX_EXPONENT
MAX_POWER_BITS = 14_000


# ---------------------------------------------------------------------------
# values


class RingValue:
    """An element of a ring, stored in canonical form.

    Equality of payloads is equality in the ring; values hash and can be
    used as dict keys (coefficients of diagrams, matrix entries, ...).
    """

    __slots__ = ("ring", "payload", "_hash")

    def __init__(self, ring: "Ring", payload):
        self.ring = ring
        self.payload = payload
        self._hash = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "RingValue":
        if isinstance(other, RingValue):
            if other.ring != self.ring:
                raise RingError(f"cannot mix elements of {self.ring} and {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, RingValue) and other.ring is self.ring:
            if self.ring._is_zero(self.payload):
                return other
            if self.ring._is_zero(other.payload):
                return self
            return RingValue(self.ring, self.ring._add(self.payload, other.payload))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring._add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return RingValue(self.ring, self.ring._neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, RingValue) and other.ring is self.ring:
            if self.ring._is_zero(self.payload):
                return self
            if self.ring._is_zero(other.payload):
                return other
            return RingValue(self.ring, self.ring._mul(self.payload, other.payload))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingValue(self.ring, self.ring._mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self) -> Optional["RingValue"]:
        """Multiplicative inverse, or None when the element is not invertible."""
        inv = self.ring._invert(self.payload)
        if inv is None:
            return None
        return RingValue(self.ring, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        inv = other.inverse()
        if inv is None:
            raise ZeroDivisionError(f"{other} is not invertible in {self.ring}")
        return self * inv

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        ring = self.ring
        limit = ring.max_exponent
        if limit is not None and abs(exponent) > limit:
            raise RingLimitError(
                f"exponent {exponent} is beyond the limit of {limit} in {ring}"
            )
        if ring.max_size is not None:
            predicted = abs(exponent) * ring.size(self.payload)
            if predicted > ring.max_size and not ring._is_root_of_unity(self.payload):
                raise RingLimitError(
                    f"the power would have predicted size {predicted}, beyond the "
                    f"limit of {ring.max_size} in {ring}"
                )
        base = self
        if exponent < 0:
            inv = self.inverse()
            if inv is None:
                raise ZeroDivisionError(f"{self} is not invertible in {self.ring}")
            base, exponent = inv, -exponent
        acc = self.ring.one
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.ring._is_zero(self.payload)

    def __bool__(self):
        """True for non-zero values, as for numbers."""
        return not self.ring._is_zero(self.payload)

    def is_one(self) -> bool:
        return self == self.ring.one

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingValue):
            return NotImplemented
        return self.ring == other.ring and self.payload == other.payload

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.payload))
        return self._hash

    def __str__(self):
        return self.ring._to_str(self.payload)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


# ---------------------------------------------------------------------------
# rings


class Ring:
    """Abstract commutative ring (in fact always a field here)."""

    kind = "abstract"
    # largest |exponent| and largest predicted size |exponent| * size(x)
    # that __pow__ accepts; None where payloads stay bounded whatever the
    # exponent
    max_exponent: Optional[int] = None
    max_size: Optional[int] = None

    def _key(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self._key() == other._key()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._key())
            self._hash = h
        return h

    def __repr__(self):
        return self.spec()

    def spec(self) -> str:
        """The ring-specification string that reconstructs this ring."""
        raise NotImplementedError

    # payload-level operations, implemented by subclasses
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _invert(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _from_int(self, n: int):
        raise NotImplementedError

    def _to_str(self, a) -> str:
        raise NotImplementedError

    def size(self, a) -> int:
        """A rough size of a payload: 0 for the constant 1, at least 1
        otherwise.  Elimination takes the pivot of least size, and where
        payloads grow, size(x^e) is at most about |e| * size(x)."""
        return 0 if a == self.one.payload else 1

    def _is_root_of_unity(self, a) -> bool:
        """Whether a has finite multiplicative order, so that its powers stay
        bounded whatever the exponent; only consulted for powers whose
        predicted size is over the limit."""
        return False

    def reduction(self):
        """(p, psi): a fixed prime p and a map psi from payloads to residues
        mod p, or None where this kind of ring has none.  psi gives None on
        an element whose denominator vanishes mod p; on the others, a
        subring, it is a ring map onto F_p.  Nothing is cached: each call
        finds p (and a root of unity mod p) afresh."""
        return None

    # -- convenience -------------------------------------------------------

    @property
    def zero(self) -> RingValue:
        cached = getattr(self, "_zero", None)
        if cached is None:
            cached = self.from_int(0)
            self._zero = cached
        return cached

    @property
    def one(self) -> RingValue:
        cached = getattr(self, "_one", None)
        if cached is None:
            cached = self.from_int(1)
            self._one = cached
        return cached

    def from_int(self, n: int) -> RingValue:
        return RingValue(self, self._from_int(n))

    def generators(self) -> dict:
        """Named generators visible in this ring (including nested ones)."""
        return {}


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster 2015); no larger modulus is accepted.
MAX_PRIME = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < MAX_PRIME."""
    if p < 2:
        return False
    for w in _WITNESSES:
        if p % w == 0:
            return p == w
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Reductions modulo a prime (Ring.reduction) use the first suitable prime
# above this start, so that residues and their products stay machine-sized.
_REDUCTION_START = 1 << 30


def _reduction_prime(m: int) -> int:
    """The first prime p = 1 (mod m) above _REDUCTION_START."""
    p = (_REDUCTION_START // m + 1) * m + 1
    while not _is_prime(p):
        p += m
    return p


class PrimeField(Ring):
    kind = "Fp"

    def __init__(self, p: int):
        if p >= MAX_PRIME:
            raise RingLimitError(
                f"Fp:{p}: the modulus must be below {MAX_PRIME}, where primality "
                "is decided exactly"
            )
        if not _is_prime(p):
            raise RingSpecError(f"{p} is not prime")
        self.p = p

    def _key(self):
        return ("Fp", self.p)

    def spec(self):
        return f"Fp:{self.p}"

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _invert(self, a):
        if a % self.p == 0:
            return None
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a % self.p == 0

    def _from_int(self, n):
        return n % self.p

    def _to_str(self, a):
        return str(a)

    def reduction(self):
        """The identity of F_p."""
        return self.p, lambda a: a


# -- dense polynomials over a field --------------------------------------
#
# Coefficients are RingValues (of Fp and cyclotomic fields under a fraction
# field, of Q for the cyclotomic inverse); tuples ascending in degree, with
# no trailing zero coefficient.


def _trim(cs: list) -> tuple:
    """Drop trailing zero coefficients, of any coefficient type."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out) if len(a) == len(b) else tuple(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b, zero):
    """The product; zero is the coefficients' zero."""
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _pdivmod(a, b):
    """Quotient and remainder; b must be non-zero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    nb, inv_lead = len(b), 1 / b[-1]
    rem, quo = list(a), []
    for shift in range(len(a) - nb, -1, -1):
        factor = rem[shift + nb - 1] * inv_lead
        quo.append(factor)
        if factor:
            for i, c in enumerate(b):
                rem[shift + i] = rem[shift + i] - factor * c
    return _trim(quo[::-1]), _trim(rem[: nb - 1])


def _pgcd(a, b):
    """The monic gcd of two polynomials, not both zero."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    inv = 1 / a[-1]
    return tuple(c * inv for c in a)


def _pinvmod(a, m, zero):
    """The inverse of a modulo m, for a coprime to m, by extended Euclid:
    s1 * a = r1 (mod m) holds throughout."""
    r0, r1, s0, s1 = m, a, (), (zero + 1,)
    while len(r1) > 1:
        q, r = _pdivmod(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, _padd(s0, _pneg(_pmul(q, s1, zero)))
    if not r1:
        raise ZeroDivisionError("polynomial is not invertible modulo m")
    inv = 1 / r1[0]
    return tuple(c * inv for c in s1)


def _prime_factors(m: int) -> list:
    """The distinct primes dividing m > 0, by trial division."""
    primes, r = [], 2
    while r * r <= m:
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
        r += 1
    return primes + [m] if m > 1 else primes


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Phi_m in ints, as the product of (x^d - 1)^mu(m/d) over the divisors d
    of m.  Every factor with mu = 1 is multiplied in before any with mu = -1
    is divided out, so each division is exact; multiplying or dividing by
    x^d - 1 is one pass over the coefficients."""
    if m < 1:
        raise RingSpecError("cyclotomic modulus must be >= 1")
    primes = _prime_factors(m)
    # the divisors m / r1...rk over subsets of the primes, by the parity of k
    factors = ([], [])
    for mask in range(1 << len(primes)):
        chosen = [r for i, r in enumerate(primes) if mask >> i & 1]
        factors[len(chosen) % 2].append(m // math.prod(chosen))
    phi = [1]
    for d in factors[0]:  # times x^d - 1
        product = [-c for c in phi] + [0] * d
        for i, c in enumerate(phi):
            product[i + d] += c
        phi = product
    for d in factors[1]:  # exactly divided by x^d - 1: q_i = q_(i-d) - p_i
        quotient = []
        for i in range(len(phi) - d):
            quotient.append((quotient[i - d] if i >= d else 0) - phi[i])
        phi = quotient
    return tuple(phi)


# Largest m in cyclo:<m>, set when building Phi_m divided x^m - 1 by every
# Phi_d: `qnum --upto 2` with both loop values q+q^-1 then took 49-58 s at
# m = 27720 (20 MB) and 82 s at 30030 (CPython 3.11, one core of an Intel
# Xeon virtual machine).  From the product of (x^d - 1)^mu(m/d) the same
# request takes 0.15 s at 20160 and 1.0 s at 27720; the limit has not been
# re-derived since.
MAX_CYCLO_M = 27720


class CyclotomicField(Ring):
    """Q[q]/(Phi_m); the pair (P, d) is P/d, with d > 0 coprime to P's content."""

    kind = "cyclo"
    max_size = MAX_POWER_BITS

    def __init__(self, m: int):
        if m > MAX_CYCLO_M:
            raise RingLimitError(f"cyclo:{m}: m is beyond the limit of {MAX_CYCLO_M}")
        self.m = m
        self.modulus = cyclotomic_polynomial(m)

    def _key(self):
        return ("cyclo", self.m)

    def spec(self):
        return f"cyclo:{self.m}"

    def _canon(self, num, den):
        g = math.gcd(den, *num)
        return (num, den) if g == 1 else (tuple(c // g for c in num), den // g)

    def size(self, a) -> int:
        """Largest bit length of |numerator| * denominator of a coefficient; 0 for 1."""
        if a == self.one.payload:
            return 0
        return max(((abs(c) * a[1] // math.gcd(c, a[1]) ** 2).bit_length() for c in a[0]), default=0)

    def _is_root_of_unity(self, a) -> bool:
        # the roots of unity of Q(zeta_m) have orders dividing 2m and small
        # coefficients, so x^(2m) == 1 is tested only where x^(2m) itself
        # stays within the size limit
        if 2 * self.m * self.size(a) > self.max_size:
            return False
        return RingValue(self, a) ** (2 * self.m) == self.one

    def _add(self, a, b):
        if a[1] == b[1]:
            return self._canon(_zadd(a[0], b[0], 1), a[1])
        return self._canon(_zadd(_zmul(a[0], (b[1],), 1), _zmul(b[0], (a[1],), 1), 1), a[1] * b[1])

    def _neg(self, a):
        return (_zneg(a[0], 1), a[1])

    def _mul(self, a, b):
        return self._canon(_zprem(_zmul(a[0], b[0], 1), self.modulus, 1), a[1] * b[1])

    def _invert(self, a):
        if not a[0]:
            return None
        # Phi_m is irreducible: extended Euclid over Q, checked by one product
        coeffs = tuple(RingValue(_QQ, _QQ._canon(c, a[1])) for c in a[0])
        s = [c.payload for c in _pinvmod(coeffs, tuple(map(_QQ.from_int, self.modulus)), _QQ.zero)]
        e = math.lcm(*(d for _, d in s))
        inv = (tuple(n * (e // d) for n, d in s), e)
        if self._mul(a, inv) != self.one.payload:
            raise ArithmeticError(f"inverse check failed in {self}")
        return inv

    def _is_zero(self, a):
        return not a[0]

    def _from_int(self, n):
        return ((n,) if n else (), 1)

    def _to_str(self, a):
        return _poly_text([_QQ._to_str(_QQ._canon(c, a[1])) for c in a[0]], "q")

    def reduction(self):
        """q goes to a = x^((p-1)/m) of order exactly m, for the least x = 2,
        3, ... that gives one, with p = 1 (mod m).  a is then a root of
        Phi_m mod p, so psi is well defined on Z[q] localised at the
        integers prime to p, whatever representative a payload holds."""
        m = self.m
        p = _reduction_prime(m)
        primes = _prime_factors(m)
        x = 2
        while True:
            a = pow(x, (p - 1) // m, p)
            if all(pow(a, m // r, p) != 1 for r in primes):
                break
            x += 1

        def psi(payload):
            num, den = payload
            if den % p == 0:
                return None
            value = 0
            for c in reversed(num):
                value = (value * a + c) % p
            return value * pow(den, -1, p) % p

        return p, psi

    @property
    def gen(self) -> RingValue:
        return RingValue(self, (_zprem((0, 1), self.modulus, 1), 1))

    def generators(self):
        return {"q": self.gen}


# -- Z[x1..xk]: the integer polynomial core behind Q and Q(x1)...(xk) -------
#
# A polynomial in k variables is a tuple of polynomials in k - 1 variables,
# ascending in the outermost variable, with no trailing zero coefficient; a
# polynomial in 0 variables is an int.  Zero is () for k >= 1 and 0 for
# k = 0, so ``not a`` tests for zero at every depth.  The "leading integer"
# of a non-zero polynomial is the coefficient of its lexicographically
# largest monomial (outermost variable first); it is multiplicative.


def _zconst(c: int, k: int):
    for _ in range(k):
        c = (c,) if c else ()
    return c


def _zlead(a, k: int) -> int:
    for _ in range(k):
        a = a[-1]
    return a


def _zadd(a, b, k: int):
    if k == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if k == 1:
        for i, c in enumerate(b):
            out[i] += c
    else:
        for i, c in enumerate(b):
            if c:
                out[i] = _zadd(out[i], c, k - 1)
    return _trim(out) if len(a) == len(b) else tuple(out)


def _zneg(a, k: int):
    if k == 0:
        return -a
    if k == 1:
        return tuple(-c for c in a)
    return tuple(_zneg(c, k - 1) for c in a)


def _zsub(a, b, k: int):
    return _zadd(a, _zneg(b, k), k)


def _zmul(a, b, k: int):
    if k == 0:
        return a * b
    if not a or not b:
        return ()
    # Z[x1..xk] is a domain, so the leading coefficient of the product is
    # non-zero and nothing needs trimming
    if k == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple(out)
    out = [()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = _zadd(out[i + j], _zmul(ai, bj, k - 1), k - 1)
    return tuple(out)


def _zdiv(a, b, k: int):
    """The exact quotient a / b; ArithmeticError when b does not divide a."""
    if k == 0:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q
    if not a:
        return ()
    if len(b) == 1:
        b0 = b[0]
        return tuple(_zdiv(c, b0, k - 1) if c else c for c in a)
    nb, lb = len(b), b[-1]
    if len(a) < nb:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    quo = [0 if k == 1 else ()] * (len(a) - nb + 1)
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + nb - 1]
        if not c:
            continue
        q = _zdiv(c, lb, k - 1)
        quo[shift] = q
        if k == 1:
            for i, bc in enumerate(b):
                rem[shift + i] -= q * bc
        else:
            for i, bc in enumerate(b):
                if bc:
                    rem[shift + i] = _zsub(rem[shift + i], _zmul(q, bc, k - 1), k - 1)
    if any(rem[: nb - 1]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _zprem(a, b, k: int):
    """A pseudo-remainder of a by b (deg b >= 1): c*a mod b for some non-zero
    c in Z[x1..x(k-1)], which is all a primitive remainder sequence needs."""
    rem, nb, lb = list(a), len(b), b[-1]
    monic = lb == _zconst(1, k - 1)
    while len(rem) >= nb:
        lead = rem.pop()
        if not lead:
            continue
        shift = len(rem) - nb + 1
        if k == 1:
            if not monic:
                rem = [lb * c for c in rem]
            for i in range(nb - 1):
                rem[shift + i] -= lead * b[i]
        else:
            if not monic:
                rem = [_zmul(lb, c, k - 1) for c in rem]
            for i in range(nb - 1):
                if b[i]:
                    rem[shift + i] = _zsub(rem[shift + i], _zmul(lead, b[i], k - 1), k - 1)
    return _trim(rem)


def _zcontent(a, k: int):
    """The gcd of a's coefficients, a polynomial in k - 1 variables."""
    g = _zconst(0, k - 1)
    one = _zconst(1, k - 1)
    for c in a:
        if c:
            g = _zgcd(g, c, k - 1)
            if g == one:
                break
    return g


def _zprim(a, k: int):
    """The primitive part of a non-zero a, with positive leading integer."""
    c = _zcontent(a, k)
    if _zlead(a, k) < 0:
        c = _zneg(c, k - 1)
    if c == _zconst(1, k - 1):
        return a
    return tuple(_zdiv(x, c, k - 1) if x else x for x in a)


def _zmonomial(a, k: int):
    """The exponents (outermost variable first) of a when it is a monomial
    with coefficient 1, else None."""
    exponents = []
    for _ in range(k):
        if not a or any(a[:-1]):
            return None
        exponents.append(len(a) - 1)
        a = a[-1]
    return tuple(exponents) if a == 1 else None


def _zfrom_terms(terms: dict, k: int):
    """The polynomial with the non-zero coefficients {exponents (outermost
    variable first): c}; every exponent is non-negative."""
    if k == 0:
        return terms.get((), 0)
    inner: dict = {}
    for (e, *rest), c in terms.items():
        inner.setdefault(e, {})[tuple(rest)] = c
    out = [_zconst(0, k - 1)] * (max(inner) + 1)
    for e, sub in inner.items():
        out[e] = _zfrom_terms(sub, k - 1)
    return tuple(out)


def _zshape(a, k: int):
    """(degree summed over the variables, largest bit length of an integer
    coefficient) of a, a rough measure of its size."""
    if k == 0:
        return 0, abs(a).bit_length()
    if not a:
        return 0, 0
    shapes = [_zshape(c, k - 1) for c in a]
    return len(a) - 1 + max(d for d, _ in shapes), max(b for _, b in shapes)


def _zgcd(a, b, k: int):
    """The gcd of a and b in Z[x1..xk], with positive leading integer: the
    gcd of the contents times the gcd of the primitive parts, the latter
    from a primitive polynomial remainder sequence."""
    if k == 0:
        return math.gcd(a, b)
    if not a or not b:
        g = a or b
        return _zneg(g, k) if g and _zlead(g, k) < 0 else g
    content = _zgcd(_zcontent(a, k), _zcontent(b, k), k - 1)
    if len(a) == 1 or len(b) == 1:
        return (content,)
    a, b = _zprim(a, k), _zprim(b, k)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _zprem(a, b, k)
        if not r:
            break
        if len(r) == 1:
            return (content,)
        a, b = b, _zprim(r, k)
    if content == _zconst(1, k - 1):
        return b
    return tuple(_zmul(content, c, k - 1) for c in b)


# IntFractions.reduction sends the generator of depth k to this plus k
_RATFUN_POINT = 65_536


class IntFractions(Ring):
    """The integer tower Q(x1)...(xk), k = ``depth`` >= 0: a value is a
    coprime pair (P, D) in Z[x1..xk] (integer content included) with D's
    leading integer positive, and ``_unit`` is the polynomial 1.  Q is the
    level k = 0, where P and D are ints with D > 0; :class:`IntFractionField`
    is every level k >= 1.  This one arithmetic serves them all.

    Sums and products follow Henrici: they take gcds of the operands'
    parts, which are smaller than the gcd of the unreduced result.  The
    generic core's way, one gcd of the multiplied-out result, is slower
    here.  In single runs from a cold process, with unchanged output,
    ``qnum --ring ratfun:ratfun:Q --d1 t+u^-1 --d2 u+t^-1 --upto 30`` took
    0.66-0.70 s with it against 0.32-0.35 s, and ``jw --ring ratfun:Q --d1
    t+t^-1 --d2 2*t --n 10`` 2.48-2.59 s against 2.29-2.50 s (CPython
    3.11, one core of an Intel Xeon virtual machine)."""

    def _canon(self, num, den):
        k = self.depth
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            return (num, self._unit)
        g = _zgcd(num, den, k)
        if g != self._unit:
            num, den = _zdiv(num, g, k), _zdiv(den, g, k)
        if _zlead(den, k) < 0:
            num, den = _zneg(num, k), _zneg(den, k)
        return (num, den)

    def _add(self, a, b):
        k, one = self.depth, self._unit
        (n1, d1), (n2, d2) = a, b
        if d1 == d2:
            if d1 == one:
                return (_zadd(n1, n2, k), one)
            return self._canon(_zadd(n1, n2, k), d1)
        g = _zgcd(d1, d2, k)
        if g == one:
            return (_zadd(_zmul(n1, d2, k), _zmul(n2, d1, k), k), _zmul(d1, d2, k))
        e1, e2 = _zdiv(d1, g, k), _zdiv(d2, g, k)
        num = _zadd(_zmul(n1, e2, k), _zmul(n2, e1, k), k)
        if not num:
            return (num, one)
        h = _zgcd(num, g, k)
        if h != one:
            num, d2 = _zdiv(num, h, k), _zdiv(d2, h, k)
        return (num, _zmul(e1, d2, k))

    def _neg(self, a):
        return (_zneg(a[0], self.depth), a[1])

    def _mul(self, a, b):
        k, one = self.depth, self._unit
        (n1, d1), (n2, d2) = a, b
        if not n1 or not n2:
            return (_zconst(0, k), one)
        if d1 == one and d2 == one:
            return (_zmul(n1, n2, k), one)
        g1, g2 = _zgcd(n1, d2, k), _zgcd(n2, d1, k)
        if g1 != one:
            n1, d2 = _zdiv(n1, g1, k), _zdiv(d2, g1, k)
        if g2 != one:
            n2, d1 = _zdiv(n2, g2, k), _zdiv(d1, g2, k)
        return (_zmul(n1, n2, k), _zmul(d1, d2, k))

    def _invert(self, a):
        num, den = a
        if not num:
            return None
        if _zlead(num, self.depth) < 0:
            return (_zneg(den, self.depth), _zneg(num, self.depth))
        return (den, num)

    def _is_zero(self, a):
        return not a[0]

    def reduction(self):
        """Integers go to their residues, and the generator of depth k (t = 1,
        u = 2, ...) to the residue _RATFUN_POINT + k."""
        p, depth = _reduction_prime(1), self.depth

        def value(a, k):  # a in Z[x1..xk], by Horner in the outermost variable
            if k == 0:
                return a
            out, x = 0, _RATFUN_POINT + k
            for c in reversed(a):
                out = (out * x + value(c, k - 1)) % p
            return out

        def psi(payload):
            den = value(payload[1], depth) % p
            if not den:
                return None
            return value(payload[0], depth) * pow(den, -1, p) % p

        return p, psi


class Rationals(IntFractions):
    """Q, the level k = 0 of :class:`IntFractions`: a payload is a coprime
    pair (n, d) of ints with d > 0."""

    kind = "Q"
    depth = 0
    _unit = 1
    max_exponent = MAX_EXPONENT
    max_size = MAX_POWER_BITS

    def _key(self):
        return ("Q",)

    def spec(self):
        return "Q"

    def _from_int(self, n):
        return (n, 1)

    def size(self, a) -> int:
        """Bit length of |n| * d; 0 for 1."""
        if a == (1, 1):
            return 0
        return (abs(a[0]) * a[1]).bit_length()

    def _to_str(self, a):
        return str(a[0]) if a[1] == 1 else f"{a[0]}/{a[1]}"


_QQ = Rationals()  # the coefficients of the cyclotomic inverse and printer


_GEN_NAMES = "tuvw"


class FractionField(Ring):
    """Field of rational functions in one variable over a base field.

    Over a tower that bottoms out at Q (``ratfun:Q``, ``ratfun:ratfun:Q``,
    ...), the field is an :class:`IntFractionField`: a value of
    Q(x1)...(xk) is a pair (P, D) of polynomials in Z[x1..xk], nested int
    tuples, with the Henrici core of :class:`IntFractions`, which Q and
    every such level share.  Over any other base, payloads are (numerator,
    denominator) pairs of base-value coefficient tuples, gcd-reduced with
    monic denominator.  Either way, equal values have equal payloads.

    The two cores keep their own sums and products, each the faster on its
    payloads.  This generic core multiplies out each sum and product and
    takes one gcd of the result.  Henrici's method, the integer core's,
    takes two Euclidean gcds over the base field instead, of smaller
    operands, and is slower here.  In single runs from a cold process, with
    unchanged output, ``homology --n 10 --ring ratfun:Fp:5 --q t`` took
    1.23-1.26 s with it against 0.47-0.83 s, and ``homology --n 9 --ring
    ratfun:cyclo:5 --q t`` 1.14-1.29 s against 0.34-0.59 s (CPython 3.11,
    one core of an Intel Xeon virtual machine).
    """

    kind = "ratfun"
    max_exponent = MAX_EXPONENT
    max_size = MAX_POWER_SIZE

    def __new__(cls, base: Ring):
        if isinstance(base, IntFractions):
            cls = IntFractionField
        return super().__new__(cls)

    def __init__(self, base: Ring):
        self.base = base
        # 1 for the innermost rational-function level, 2 for the next, ...
        self.depth = base.depth + 1 if isinstance(base, FractionField) else 1
        k = self.depth - 1
        self.var = _GEN_NAMES[k] if k < len(_GEN_NAMES) else f"t{k}"
        self._unit = (base.one,)  # the polynomial 1

    def _key(self):
        return ("ratfun", self.base._key())

    def spec(self):
        return f"ratfun:{self.base.spec()}"

    def size(self, a) -> int:
        """Degree of the numerator plus degree of the denominator, plus the
        largest size of a coefficient where the base field's payloads grow
        (at least 1); 0 for the constant 1."""
        if a == self.one.payload:
            return 0
        num, den = a
        coeff = 1
        if self.base.max_size is not None:
            coeff = max([1] + [self.base.size(c.payload) for c in num + den])
        return max(0, len(num) - 1) + (len(den) - 1) + coeff

    def _canon(self, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")
        if not num:
            return ((), self._unit)
        if len(den) == 1:
            # constant denominator: already gcd-free, just normalise
            if den[0].is_one():
                return (num, den)
            lead_inv = den[0].inverse()
            return (tuple(c * lead_inv for c in num), self._unit)
        if len(num) > 1:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        lead_inv = den[-1].inverse()
        num = tuple(c * lead_inv for c in num)
        den = tuple(c * lead_inv for c in den)
        return (num, den)

    def _add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if len(d1) == 1 and len(d2) == 1:
            # canonical values with constant denominator have denominator 1
            return (_padd(n1, n2), d1)
        zero = self.base.zero
        num = _padd(_pmul(n1, d2, zero), _pmul(n2, d1, zero))
        return self._canon(num, _pmul(d1, d2, zero))

    def _neg(self, a):
        return (_pneg(a[0]), a[1])

    def _mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        zero = self.base.zero
        if len(d1) == 1 and len(d2) == 1:
            return (_pmul(n1, n2, zero), d1)
        return self._canon(_pmul(n1, n2, zero), _pmul(d1, d2, zero))

    def _invert(self, a):
        num, den = a
        if not num:
            return None
        return self._canon(den, num)

    def _is_zero(self, a):
        return not a[0]

    def _from_int(self, n):
        return self._constant(self.base._from_int(n))

    def _to_str(self, a):
        num, den = a
        num_s = self._poly_str(num)
        if len(den) == 1:  # a canonical constant denominator is 1
            return num_s
        return f"({num_s})/({self._poly_str(den)})"

    def _poly_str(self, coeffs):
        rendered = []
        for c in coeffs:
            s = str(c)
            if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s) and not re.fullmatch(
                r"-?[a-z][0-9]*(\^-?[0-9]+)?", s
            ):
                s = f"({s})"
            rendered.append(s)
        return _poly_text(rendered, self.var)

    @property
    def gen(self) -> RingValue:
        return RingValue(self, ((self.base.zero, self.base.one), self._unit))

    def embed(self, value: RingValue) -> RingValue:
        """Embed a base-field value as a constant rational function."""
        if value.ring != self.base:
            raise RingError("embed expects a base-field value")
        return RingValue(self, self._constant(value.payload))

    def _constant(self, a):
        """The payload of the constant with base payload a."""
        return (((RingValue(self.base, a),) if not self.base._is_zero(a) else ()), self._unit)

    def generators(self):
        gens = {self.var: self.gen}
        for name, value in self.base.generators().items():
            gens[name] = self.embed(value)
        return gens


class IntFractionField(IntFractions, FractionField):
    """Q(x1)...(xk), k >= 1, on integer payloads: the levels of
    :class:`IntFractions` above Q, sharing its arithmetic; printing,
    generators and embedding are :class:`FractionField`'s."""

    def __init__(self, base: Ring):
        super().__init__(base)
        self._unit = _zconst(1, self.depth)

    def size(self, a) -> int:
        """Degrees of P and D, each summed over the variables, plus the
        largest bit length of an integer coefficient; 0 for the constant 1."""
        if a == self.one.payload:
            return 0
        (dp, bp), (dd, bd) = _zshape(a[0], self.depth), _zshape(a[1], self.depth)
        return dp + dd + max(bp, bd)

    def _to_str(self, a):
        # rendered through the monic-denominator form of the generic path:
        # every coefficient divided by D's leading coefficient, a base value
        base, lead = self.base, a[1][-1]
        return super()._to_str([[RingValue(base, base._canon(c, lead)) for c in p] for p in a])

    @property
    def gen(self) -> RingValue:
        k = self.depth
        return RingValue(self, ((_zconst(0, k - 1), _zconst(1, k - 1)), self._unit))

    def _constant(self, a):
        # a base payload is already a coprime pair with positive leading integer
        num, den = a
        return ((num,) if num else (), (den,))


def _poly_text(coeff_strs, var: str) -> str:
    """Render a dense coefficient list (degree-ascending) as a polynomial."""
    parts = []
    for deg in range(len(coeff_strs) - 1, -1, -1):
        s = coeff_strs[deg]
        if s in ("0", "-0"):
            continue
        negative = s.startswith("-")
        body = s[1:] if negative else s
        if deg == 0:
            mono = body
        else:
            power = var if deg == 1 else f"{var}^{deg}"
            mono = power if body == "1" else f"{body}*{power}"
        if not parts:
            parts.append(("-" if negative else "") + mono)
        else:
            parts.append(("-" if negative else "+") + mono)
    return "".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# construction and parsing


# Deepest tower of ``ratfun:`` levels in a ring spec.  Printing a value
# recurses about four frames a level, so at 200 levels `qnum --d1 t --d2 u`
# ran out of CPython's default recursion limit of 1000; at 100 it took 1.3 s
# and `jw --n 3` 0.5 s.
MAX_RATFUN_DEPTH = 100


def construct_ring(spec: str) -> Ring:
    """Build a ring from a specification string.

    Grammar: ``Q`` | ``Fp:<p>`` | ``cyclo:<m>`` | ``ratfun:<base-spec>``,
    with at most MAX_RATFUN_DEPTH ``ratfun:`` levels.
    """
    spec, depth = spec.strip(), 0
    while spec.startswith("ratfun:"):
        spec, depth = spec[7:].strip(), depth + 1
    if depth > MAX_RATFUN_DEPTH:
        raise RingLimitError(f"ring spec nests {depth} ratfun: levels, beyond the limit of "
                             f"{MAX_RATFUN_DEPTH}")
    if spec == "Q":
        ring = Rationals()
    elif spec.startswith("Fp:"):
        body = spec[3:]
        if not re.fullmatch(r"[0-9]+", body):
            raise RingSpecError(f"bad prime field spec {spec!r}")
        ring = PrimeField(int(body))
    elif spec.startswith("cyclo:"):
        body = spec[6:]
        if not re.fullmatch(r"[0-9]+", body):
            raise RingSpecError(f"bad cyclotomic spec {spec!r}")
        m = int(body)
        if m == 0:
            raise RingSpecError("cyclotomic modulus must be positive")
        ring = CyclotomicField(m)
    else:
        raise RingSpecError(f"unknown ring spec {spec!r}")
    for _ in range(depth):
        ring = FractionField(ring)
    return ring


_TOKEN = re.compile(r"\s*(?:([0-9]+)|([a-z][0-9]*)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ElementParseError(f"bad character at {text[pos:]!r}")
            break
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    return tokens


# Deepest nesting of parentheses and signs in an element expression; each
# level costs the recursive-descent parser four stack frames, so this stays
# well inside CPython's default recursion limit of 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, ring: Ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0
        self.gens = ring.generators()
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> RingValue:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RingValue:
        value = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                try:
                    value = value / rhs
                except ZeroDivisionError as exc:
                    raise ElementParseError(str(exc)) from None
        return value

    def factor(self) -> RingValue:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise RingLimitError(
                f"element expression nests parentheses and signs deeper than {MAX_NESTING}"
            )
        try:
            return self._factor()
        finally:
            self.depth -= 1

    def _factor(self) -> RingValue:
        kind, tok = self.peek()
        if (kind, tok) == ("op", "-"):
            self.take()
            return -self.factor()
        if (kind, tok) == ("op", "+"):
            self.take()
            return self.factor()
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.signed_int()
            try:
                value = value**exponent
            except ZeroDivisionError as exc:
                raise ElementParseError(str(exc)) from None
        return value

    def signed_int(self) -> int:
        sign = 1
        kind, tok = self.peek()
        if (kind, tok) in (("op", "-"), ("op", "+")):
            self.take()
            sign = -1 if tok == "-" else 1
            kind, tok = self.peek()
        if kind != "int":
            raise ElementParseError("exponent must be an integer")
        self.take()
        return sign * tok

    def atom(self) -> RingValue:
        kind, tok = self.take()
        if kind == "int":
            return self.ring.from_int(tok)
        if kind == "name":
            if tok not in self.gens:
                raise ElementParseError(f"unknown generator {tok!r} in {self.ring}")
            return self.gens[tok]
        if (kind, tok) == ("op", "("):
            value = self.expr()
            if self.take() != ("op", ")"):
                raise ElementParseError("unbalanced parentheses")
            return value
        raise ElementParseError(f"unexpected token {tok!r}")


def parse_element(ring: Ring, text: str) -> RingValue:
    """Parse an element expression in the ring's generators."""
    parser = _Parser(ring, _tokenize(text))
    if not parser.tokens:
        raise ElementParseError("empty expression")
    value = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ElementParseError(f"trailing input in {text!r}")
    return value


# ---------------------------------------------------------------------------
# triples


class Triple(Frozen):
    """A coefficient ring together with the two loop parameters."""

    _fields = ("ring", "delta1", "delta2")

    def __init__(self, ring: Ring, delta1: RingValue, delta2: RingValue):
        if delta1.ring != ring or delta2.ring != ring:
            raise RingError("loop parameters must belong to the triple's ring")
        self._set(ring=ring, delta1=delta1, delta2=delta2)

    # a cache key and compared by every product: no generic field loop here
    def __eq__(self, other):
        if other.__class__ is not Triple:
            return NotImplemented
        return (self.ring, self.delta1, self.delta2) == (other.ring, other.delta1, other.delta2)

    def __hash__(self):
        return hash((self.ring, self.delta1, self.delta2))

    def swap(self) -> "Triple":
        """The mirror triple with the two loop parameters exchanged."""
        return Triple(self.ring, self.delta2, self.delta1)

    @staticmethod
    def parse(ring_spec: str, d1: str, d2: str) -> "Triple":
        ring = construct_ring(ring_spec)
        return Triple(ring, parse_element(ring, d1), parse_element(ring, d2))

    def __repr__(self):
        return f"Triple({self.ring!r}, {self.delta1}, {self.delta2})"


def generic_tower() -> Triple:
    """The tower Q(t)(u) with independent loop parameters t and u."""
    ring = construct_ring("ratfun:ratfun:Q")
    gens = ring.generators()
    return Triple(ring, gens["t"], gens["u"])
