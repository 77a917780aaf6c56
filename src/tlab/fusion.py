"""Fusion rings and the boundedness classifier.

A fusion ring is a unital based ring with non-negative integer structure
constants, a unit basis element and a dual involution satisfying the
Frobenius condition N[i][j][unit] = delta_{j, dual(i)}.  The classifier
runs the exact continuant recursion in the integral span of the basis,

    [E_0] = 1,  [E_1] = x,  [E_m] = x^(m-1) * [E_{m-1}] - [E_{m-2}],

with the left factor alternating between the class and its dual, and
declares an object strictly N-bounded when the sequence first vanishes at
index N - 1.  Frobenius-Perron dimensions (one power iteration per ring, on
multiplication by the sum of the basis) only terminate the search and label
unbounded objects; all verdicts rest on exact integer arithmetic.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ._plain import Frozen

K0Vector = Tuple[int, ...]
Cell = Tuple[Tuple[int, int], ...]  # the non-zero (k, N_ij^k) of b_i b_j, k ascending


class FusionRingError(ValueError):
    """Schema or axiom violation in fusion-ring data."""


class FusionRing(Frozen):
    """A based ring with non-negative structure constants, stored sparsely:
    table[i][j] is the cell of b_i b_j, so products and the associativity
    sweep visit no zero constant.  `validate` checks the axioms on documents
    as they are loaded; the built-in tables are correct by construction."""

    _fields = ("name", "basis", "unit", "dual", "table", "aliases")
    _uncompared = ("aliases",)

    def __init__(self, name: str, basis: Tuple[str, ...], unit: int, dual: Tuple[int, ...],
                 table: Tuple[Tuple[Cell, ...], ...], aliases: Optional[Dict[str, str]] = None):
        self._set(name=name, basis=basis, unit=unit, dual=dual, table=table,
                  aliases={} if aliases is None else aliases)

    @property
    def rank(self) -> int:
        return len(self.basis)

    # -- label handling ----------------------------------------------------

    def index_of(self, label: Union[int, str]) -> int:
        if isinstance(label, int):
            if not 0 <= label < self.rank:
                raise FusionRingError(f"basis index {label} out of range")
            return label
        if label in self.aliases:
            label = self.aliases[label]
        try:
            return self.basis.index(label)
        except ValueError:
            raise FusionRingError(f"unknown basis label {label!r}") from None

    def basis_vector(self, i: Union[int, str]) -> K0Vector:
        i = self.index_of(i)
        return tuple(1 if j == i else 0 for j in range(self.rank))

    @property
    def unit_vector(self) -> K0Vector:
        return self.basis_vector(self.unit)

    @property
    def zero_vector(self) -> K0Vector:
        return tuple(0 for _ in range(self.rank))

    # -- ring structure ------------------------------------------------------

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> K0Vector:
        out = [0] * self.rank
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if xi:
                row = self.table[i]
                for j, yj in ys:
                    coeff = xi * yj
                    for k, n in row[j]:
                        out[k] += coeff * n
        return tuple(out)

    def dual_vector(self, x: Sequence[int]) -> K0Vector:
        out = [0] * self.rank
        for i, xi in enumerate(x):
            out[self.dual[i]] += xi
        return tuple(out)

    @functools.cached_property
    def fpdims(self) -> Tuple[float, ...]:
        """Frobenius-Perron dimensions of the basis elements, in basis order."""
        return _perron_vector(self)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        r = self.rank
        if not 0 <= self.unit < r:
            raise FusionRingError("unit index out of range")
        if sorted(self.dual) != list(range(r)):
            raise FusionRingError("dual map is not a permutation")
        for i in range(r):
            if self.dual[self.dual[i]] != i:
                raise FusionRingError("dual map is not an involution")
        for i, row in enumerate(self.table):
            for j, cell in enumerate(row):
                for k, n in cell:
                    if n < 0:
                        raise FusionRingError(f"negative structure constant at ({i},{j},{k})")
                    if n > MAX_STRUCTURE_CONSTANT:
                        raise FusionRingError(f"structure constant at ({i},{j},{k}) is beyond the limit of 2^53")
        for j in range(r):
            left, right = dict(self.table[self.unit][j]), dict(self.table[j][self.unit])
            for k in range(r):
                want = 1 if j == k else 0
                if left.get(k, 0) != want:
                    raise FusionRingError(f"left unit law fails at ({j},{k})")
                if right.get(k, 0) != want:
                    raise FusionRingError(f"right unit law fails at ({j},{k})")
        for i, row in enumerate(self.table):
            for j, cell in enumerate(row):
                if dict(cell).get(self.unit, 0) != (1 if j == self.dual[i] else 0):
                    raise FusionRingError(f"duality/Frobenius condition fails at ({i},{j})")
        # (b_i b_j) b_k = sum_m N_ij^m table[m][k] against
        # b_i (b_j b_k) = sum_m N_jk^m table[i][m], over the non-zero cells
        columns = [[row[k] for row in self.table] for k in range(r)]
        for i, row in enumerate(self.table):
            for j, cell in enumerate(row):
                for k, column in enumerate(columns):
                    lhs, rhs = [0] * r, [0] * r
                    for m, a in cell:
                        for l, n in column[m]:
                            lhs[l] += a * n
                    for m, a in self.table[j][k]:
                        for l, n in row[m]:
                            rhs[l] += a * n
                    if lhs != rhs:
                        raise FusionRingError(f"associativity fails at ({i},{j},{k})")

    def describe_vector(self, x: Sequence[int]) -> str:
        parts = []
        for i, c in enumerate(x):
            if c == 0:
                continue
            name = self.basis[i]
            if c == 1:
                parts.append(f"+{name}")
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c:+d}*{name}")
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[1:] if text.startswith("+") else text

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "basis": list(self.basis),
            "unit": self.unit,
            "dual": list(self.dual),
            "N": [[[d.get(k, 0) for k in range(self.rank)] for d in map(dict, row)] for row in self.table],
        }


def _fields(value, field: str, depth: int, kind: type = int):
    """value, lists nested depth levels deep around values of the given kind
    (int or str), as nested tuples; a float, a bool or a value of the other
    kind where one of this kind belongs is refused, not coerced."""
    if depth == 0:
        if type(value) is not kind:
            article = "an integer" if kind is int else "a string"
            raise FusionRingError(f"{field} must be {article}, not {type(value).__name__}")
        return value
    if not isinstance(value, (list, tuple)):
        raise FusionRingError(f"{field} must be a list, not {type(value).__name__}")
    return tuple(_fields(v, f"{field}[{k}]", depth - 1, kind) for k, v in enumerate(value))


def load_fusion_ring(document: Union[str, dict]) -> FusionRing:
    """Build and validate a fusion ring from its JSON document:
    {"name": str, "basis": [str], "unit": int, "dual": [int], "N": [[[int]]]},
    of rank at most MAX_DOCUMENT_RANK."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FusionRingError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise FusionRingError("invalid JSON: nested too deeply") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise FusionRingError("the document is not a JSON object")
    try:
        name = _fields(data.get("name", "unnamed"), "name", 0, str)
        _check_rank(name, len(data["basis"]), MAX_DOCUMENT_RANK)
        basis = _fields(data["basis"], "basis", 1, str)
        for k, label in enumerate(basis):
            if basis.index(label) != k:  # a label names one element
                raise FusionRingError(f"basis[{k}] repeats the label {label!r} of basis[{basis.index(label)}]")
        N, r = _fields(data["N"], "N", 3), len(basis)
        if len(N) != r or any(len(row) != r or any(len(cell) != r for cell in row) for row in N):
            raise FusionRingError("structure-constant table has wrong shape")
        ring = FusionRing(
            name=name,
            basis=basis,
            unit=_fields(data["unit"], "unit", 0),
            dual=_fields(data["dual"], "dual", 1),
            table=tuple(tuple(tuple((k, n) for k, n in enumerate(cell) if n) for cell in row) for row in N),
        )
    except (KeyError, TypeError) as exc:
        raise FusionRingError(f"document does not match the schema: {exc}") from None
    ring.validate()
    return ring


# ---------------------------------------------------------------------------
# built-in rings


def _chebyshev_truncated(name: str, rank: int) -> FusionRing:
    """Rank-r ring with self-dual basis L_0..L_{r-1}, fusion given by the
    truncated recursion L_1 L_i = L_{i-1} + L_{i+1}: the Verlinde rule of
    slq:N and Ver_p, so a fusion ring for every rank."""
    ones = [(k, 1) for k in range(rank)]  # one pair per k, shared by the cells
    return FusionRing(
        name=name,
        basis=tuple(f"L{i}" for i in range(rank)),
        unit=0,
        dual=tuple(range(rank)),
        table=tuple(tuple(tuple(ones[abs(i - j):min(i + j, 2 * rank - 2 - i - j) + 1:2]) for j in range(rank))
                    for i in range(rank)),
    )


# Largest rank of a parametrised built-in, checked before its table is built;
# the table holds the non-zero constants only (slq:201 peaks at 28 MB).  The
# slowest request it admits is `tlab classify` with --format json at the
# CLI's --max-n limit of 256: over verp:101 (rank 100) it took 7-10 s
# (182 MB), over slq:111 (rank 110) 9 s (220 MB) (CPython 3.11, 2-core VM).
MAX_BUILTIN_RANK = 100

# Largest rank of a fusion-ring JSON document, checked on its basis before its
# table is built: `validate` checks associativity with rank^3 pairs of
# products over the non-zero constants, up to rank^2 steps each on a dense
# table; the sweep over a rank-44 table with every non-unit N_ij^k = 1 took
# 14-18 s.  `tlab bound --fusion` on pointed:44 written as JSON took 0.3 s, and
# `classify --fusion --format json` 0.6 s (CPython 3.11, 2-core VM).
MAX_DOCUMENT_RANK = 44

# Largest fusion-ring JSON file in bytes, checked as it is read: a rank-44
# `to_json_dict` takes 0.26 MB compact and 0.97 MB with indent=2, and a 24 MB
# file of zeros took 1.15 s and 107.5 MB to parse before its rank was refused.
MAX_DOCUMENT_BYTES = 4 * 2**20


# Largest structure constant of a fusion ring, checked by `validate`: every
# constant up to 2^53 is an exact float, and the Perron iteration's sums of at
# most MAX_DOCUMENT_RANK^2 of them stay far below float overflow, which
# 10^400 would pass.
MAX_STRUCTURE_CONSTANT = 2**53


def _check_rank(name: str, rank: int, limit: int = MAX_BUILTIN_RANK) -> None:
    if rank > limit:
        raise FusionRingError(f"{name} has rank {rank}, beyond the limit of {limit}")


def _parameter(name: str) -> int:
    """The integer after the colon of a parametrised built-in's name."""
    try:
        return int(name.partition(":")[2])
    except ValueError:
        raise FusionRingError(f"built-in ring {name!r} needs an integer after the colon") from None


def builtin_ring(name: str) -> FusionRing:
    """Built-in fusion rings: slq:N (N >= 3), verp:p (p prime), ising,
    ty_z3, pointed:m; the rank is at most MAX_BUILTIN_RANK.  Each table is a
    fixed function of the name, correct by construction and so not validated
    here; the tests validate every family."""
    if name.startswith("slq:"):
        N = _parameter(name)
        if N < 3:
            raise FusionRingError("slq:N requires N >= 3")
        _check_rank(name, N - 1)
        return _chebyshev_truncated(name, N - 1)
    if name.startswith("verp:"):
        p = _parameter(name)
        _check_rank(name, p - 1)
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise FusionRingError("verp:p requires a prime p")
        return _chebyshev_truncated(name, p - 1)
    if name == "ising":
        # the Verlinde rule of slq:4, relabelled
        return FusionRing(
            name="ising",
            basis=("1", "sigma", "eps"),
            unit=0,
            dual=(0, 1, 2),
            table=_chebyshev_truncated(name, 3).table,
            aliases={"σ": "sigma", "ε": "eps"},
        )
    if name == "ty_z3":
        # Tambara-Yamagami for Z/3: g^3 = 1, gX = X = Xg, X^2 = 1 + g + g2
        return FusionRing(
            name="ty_z3",
            basis=("1", "g", "g2", "X"),
            unit=0,
            dual=(0, 2, 1, 3),
            table=tuple(tuple((((i + j) % 3, 1),) if max(i, j) < 3 else ((3, 1),) if min(i, j) < 3
                              else ((0, 1), (1, 1), (2, 1)) for j in range(4)) for i in range(4)),
        )
    if name.startswith("pointed:"):
        # the group ring Z[Z/m]
        m = _parameter(name)
        if m < 1:
            raise FusionRingError("pointed:m requires m >= 1")
        _check_rank(name, m)
        cells = [((k, 1),) for k in range(m)]
        return FusionRing(
            name=name,
            basis=tuple(f"g{i}" for i in range(m)),
            unit=0,
            dual=tuple((-i) % m for i in range(m)),
            table=tuple(tuple(cells[(i + j) % m] for j in range(m)) for i in range(m)),
        )
    raise FusionRingError(f"unknown built-in ring {name!r}")


# ---------------------------------------------------------------------------
# Frobenius-Perron dimension


# the iteration stops once no dimension moves by more than _POWER_TOL,
# relatively, and its steps no longer shrink: they have reached rounding
_POWER_TOL = 1e-12
_POWER_MAX_ITER = 200000


def _perron_vector(ring: FusionRing) -> Tuple[float, ...]:
    """FPdims d of the basis: the Perron vector of multiplication by the sum
    R of the basis, scaled to 1 at the unit once it has converged; until then
    its largest entry is 1, so that no product grows past the largest d_k.

    FPdim is a character, so by Frobenius reciprocity (N_ij^k = N_{i*k}^j)
    sum_{i,j} N_ij^k d_j = sum_i d_{i*} d_k = FPdim(R) d_k.  The matrix has
    no zero entry, since b_k b_j* b_j contains b_k, so the iteration
    converges to d from any positive vector, with no shift."""
    rows = [[0] * ring.rank for _ in range(ring.rank)]  # rows[k][j] = sum_i N_ij^k
    for row in ring.table:
        for j, cell in enumerate(row):
            for k, n in cell:
                rows[k][j] += n
    vec, step = [1.0] * ring.rank, math.inf
    for _ in range(_POWER_MAX_ITER):
        nxt = [sum(map(float.__mul__, vec, row)) for row in rows]
        top = max(nxt)
        nxt = [x / top for x in nxt]
        previous, step = step, max(abs(a - b) / a for a, b in zip(nxt, vec))
        vec = nxt
        if step <= _POWER_TOL and not 0 < step < previous:
            break
    return tuple(x / vec[ring.unit] for x in vec)


def fpdim(ring: FusionRing, obj: Union[int, str, Sequence[int]]) -> float:
    """Frobenius-Perron dimension of a basis element, or the linear
    extension for a general class."""
    if isinstance(obj, (int, str)):
        return ring.fpdims[ring.index_of(obj)]
    if len(obj) != ring.rank:
        raise FusionRingError("class vector has wrong length")
    return sum(c * d for c, d in zip(obj, ring.fpdims))


# ---------------------------------------------------------------------------
# the classifier


def continuant_sequence(ring: FusionRing, x: Sequence[int], max_m: int) -> List[K0Vector]:
    """Classes [E_0], ..., [E_max_m] of the continuant recursion at x."""
    x = tuple(x)
    xd = ring.dual_vector(x)
    seq = [ring.unit_vector]
    if max_m >= 1:
        seq.append(x)
    for m in range(2, max_m + 1):
        left = x if (m - 1) % 2 == 0 else xd
        nxt = tuple(
            a - b for a, b in zip(ring.multiply(left, seq[m - 1]), seq[m - 2])
        )
        seq.append(nxt)
    return seq


class Verdict(Frozen):
    _fields = ("kind", "n", "reason")

    def __init__(self, kind: str, n: Optional[int] = None, reason: str = ""):
        # kind is "strictly_bounded", "unbounded" or "inconclusive"
        self._set(kind=kind, n=n, reason=reason)

    def __str__(self):
        if self.kind == "strictly_bounded":
            return f"strictly {self.n}-bounded"
        if self.kind == "unbounded":
            return f"unbounded ({self.reason})"
        return f"inconclusive up to {self.n} ({self.reason})"


class BoundReport(Frozen):
    """Classifier output for one class, with certificate data."""

    _fields = ("ring_name", "object_label", "object_class", "fpdim", "verdict", "sequence",
               "zero_indices", "invertibility_certificate", "conjecture_relevant")

    def __init__(self, ring_name: str, object_label: str, object_class: K0Vector, fpdim: float,
                 verdict: Verdict, sequence: Tuple[K0Vector, ...], zero_indices: Tuple[int, ...],
                 invertibility_certificate: Optional[dict], conjecture_relevant: bool):
        self._set(ring_name=ring_name, object_label=object_label, object_class=object_class, fpdim=fpdim,
                  verdict=verdict, sequence=sequence, zero_indices=zero_indices,
                  invertibility_certificate=invertibility_certificate, conjecture_relevant=conjecture_relevant)

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring_name,
            "object": self.object_label,
            "class": list(self.object_class),
            "fpdim": self.fpdim,
            "verdict": {
                "kind": self.verdict.kind,
                "n": self.verdict.n,
                "reason": self.verdict.reason,
            },
            "sequence": [list(v) for v in self.sequence],
            "zero_indices": list(self.zero_indices),
            "invertibility_certificate": self.invertibility_certificate,
            "conjecture_relevant": self.conjecture_relevant,
        }


_FP_TOL = 1e-9


def minimal_bound(
    ring: FusionRing,
    obj: Union[int, str, Sequence[int]],
    max_n: int = 64,
) -> BoundReport:
    """Classify one basis element or integral class.

    The verdict is strictly bounded at N when the continuant class sequence
    first vanishes at index N - 1 (exact integer arithmetic); unbounded when
    the numeric dimension screen reads at least 2 and no vanishing occurs up
    to max_n, or when a non-zero class is a sum of two or more simples;
    inconclusive otherwise.
    """
    if max_n < 3:
        raise FusionRingError("max_n must be at least 3")
    if isinstance(obj, (int, str)):
        index = ring.index_of(obj)
        x = ring.basis_vector(index)
        label = ring.basis[index]
        composite = False
        dim = fpdim(ring, index)
    else:
        x = tuple(int(c) for c in obj)
        dim = fpdim(ring, x)
        label = ring.describe_vector(x)
        composite = all(c >= 0 for c in x) and sum(x) >= 2

    seq = continuant_sequence(ring, x, max_n)
    first_zero = next(
        (m for m in range(1, len(seq)) if not any(seq[m])), None
    )

    zero_indices: Tuple[int, ...] = ()
    certificate = None
    conjecture_relevant = False

    if composite:
        verdict = Verdict(
            "unbounded",
            reason=f"non-simple class of total dimension {dim:.6f} >= 2",
        )
    elif first_zero is not None:
        N = first_zero + 1
        if 3 * N - 1 > max_n:
            seq = continuant_sequence(ring, x, 3 * N - 1)
        zero_indices = tuple(m for m in range(len(seq)) if m and not any(seq[m]))
        prev = seq[N - 2]
        support = [i for i, c in enumerate(prev) if c]
        is_signed_basis = len(support) == 1 and abs(prev[support[0]]) == 1
        certificate = {
            "index": N - 2,
            "class": ring.describe_vector(prev),
            "signed_basis_element": is_signed_basis,
            "fpdim": fpdim(ring, support[0]) if is_signed_basis else None,
        }
        verdict = Verdict("strictly_bounded", N)
        conjecture_relevant = N > 3 and not _is_prime_power(N)
    elif dim >= 2 - _FP_TOL:
        verdict = Verdict(
            "unbounded", reason=f"FPdim {dim:.9f} >= 2, no vanishing up to {max_n}"
        )
    else:
        verdict = Verdict(
            "inconclusive",
            max_n,
            reason=f"FPdim {dim:.9f} < 2 but no vanishing found",
        )
    return BoundReport(
        ring_name=ring.name,
        object_label=label,
        object_class=x,
        fpdim=dim,
        verdict=verdict,
        sequence=tuple(seq),
        zero_indices=zero_indices,
        invertibility_certificate=certificate,
        conjecture_relevant=conjecture_relevant,
    )


def _is_prime_power(n: int) -> bool:
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def classify_all(ring: FusionRing, max_n: int = 64) -> List[BoundReport]:
    """Run the classifier on every basis element."""
    return [minimal_bound(ring, i, max_n) for i in range(ring.rank)]


def summary_table(reports: List[BoundReport]) -> str:
    lines = ["object          FPdim        verdict"]
    for r in reports:
        lines.append(f"{r.object_label:<14}  {r.fpdim:<11.9f}  {r.verdict}")
    return "\n".join(lines)
