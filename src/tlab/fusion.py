"""Fusion rings and the boundedness classifier.

A fusion ring is a unital based ring with non-negative integer structure
constants, a unit basis element and a dual involution satisfying the
Frobenius condition N[i][j][unit] = delta_{j, dual(i)}.  The classifier
runs the exact continuant recursion in the integral span of the basis,

    [E_0] = 1,  [E_1] = x,  [E_m] = x^(m-1) * [E_{m-1}] - [E_{m-2}],

with the left factor alternating between the class and its dual, and
declares an object strictly N-bounded when the sequence first vanishes at
index N - 1.  Frobenius-Perron dimensions (power iteration on the left
multiplication matrix) only terminate the search and label unbounded
objects; all verdicts rest on exact integer arithmetic.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

K0Vector = Tuple[int, ...]


class FusionRingError(ValueError):
    """Schema or axiom violation in fusion-ring data."""


@dataclass(frozen=True)
class FusionRing:
    """A based ring with non-negative structure constants."""

    name: str
    basis: Tuple[str, ...]
    unit: int
    dual: Tuple[int, ...]
    table: Tuple[Tuple[Tuple[int, ...], ...], ...]  # table[i][j][k] = N_{ij}^k
    aliases: Dict[str, str] = field(default_factory=dict, compare=False)

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
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                for k, n in enumerate(self.table[i][j]):
                    if n:
                        out[k] += coeff * n
        return tuple(out)

    def dual_vector(self, x: Sequence[int]) -> K0Vector:
        out = [0] * self.rank
        for i, xi in enumerate(x):
            out[self.dual[i]] += xi
        return tuple(out)

    def left_multiplication_matrix(self, i: Union[int, str]) -> List[List[int]]:
        """Matrix of multiplication by basis element i: entry (k, j) counts
        basis k in the product of i with basis j."""
        i = self.index_of(i)
        return [[self.table[i][j][k] for j in range(self.rank)] for k in range(self.rank)]

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
        if len(self.table) != r or any(
            len(row) != r or any(len(cell) != r for cell in row) for row in self.table
        ):
            raise FusionRingError("structure-constant table has wrong shape")
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if self.table[i][j][k] < 0:
                        raise FusionRingError(
                            f"negative structure constant at ({i},{j},{k})"
                        )
        for j in range(r):
            for k in range(r):
                want = 1 if j == k else 0
                if self.table[self.unit][j][k] != want:
                    raise FusionRingError(f"left unit law fails at ({j},{k})")
                if self.table[j][self.unit][k] != want:
                    raise FusionRingError(f"right unit law fails at ({j},{k})")
        for i in range(r):
            for j in range(r):
                want = 1 if j == self.dual[i] else 0
                if self.table[i][j][self.unit] != want:
                    raise FusionRingError(
                        f"duality/Frobenius condition fails at ({i},{j})"
                    )
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    for l in range(r):
                        lhs = sum(
                            self.table[i][j][m] * self.table[m][k][l] for m in range(r)
                        )
                        rhs = sum(
                            self.table[j][k][m] * self.table[i][m][l] for m in range(r)
                        )
                        if lhs != rhs:
                            raise FusionRingError(
                                f"associativity fails at ({i},{j},{k},{l})"
                            )

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
            "N": [[list(cell) for cell in row] for row in self.table],
        }


def load_fusion_ring(document: Union[str, dict]) -> FusionRing:
    """Build and validate a fusion ring from its JSON document:
    {"name": str, "basis": [str], "unit": int, "dual": [int], "N": [[[int]]]},
    of rank at most MAX_DOCUMENT_RANK."""
    if isinstance(document, str):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise FusionRingError(f"invalid JSON: {exc}") from None
    else:
        data = document
    if not isinstance(data, dict):
        raise FusionRingError("the document is not a JSON object")
    try:
        name = str(data.get("name", "unnamed"))
        _check_rank(name, len(data["basis"]), MAX_DOCUMENT_RANK)
        ring = FusionRing(
            name=name,
            basis=tuple(str(b) for b in data["basis"]),
            unit=int(data["unit"]),
            dual=tuple(int(d) for d in data["dual"]),
            table=tuple(
                tuple(tuple(int(n) for n in cell) for cell in row) for row in data["N"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise FusionRingError(f"document does not match the schema: {exc}") from None
    ring.validate()
    return ring


# ---------------------------------------------------------------------------
# built-in rings


def _chebyshev_truncated(name: str, rank: int) -> FusionRing:
    """Rank-r ring with self-dual basis L_0..L_{r-1}, fusion given by the
    truncated recursion L_1 L_i = L_{i-1} + L_{i+1}."""
    table = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            lo, hi = abs(i - j), min(i + j, 2 * (rank - 1) - i - j)
            for k in range(lo, hi + 1, 2):
                table[i][j][k] = 1
    return FusionRing(
        name=name,
        basis=tuple(f"L{i}" for i in range(rank)),
        unit=0,
        dual=tuple(range(rank)),
        table=tuple(tuple(tuple(cell) for cell in row) for row in table),
    )


# Largest rank of a parametrised built-in, checked before its rank^3 table is
# built (pointed:200 peaks at 144 MB).  The slowest request it admits is
# `tlab classify` with --format json at the CLI's --max-n limit of 256: over
# verp:101 (rank 100) it took 46 s (189 MB), over slq:111 (rank 110) 73 s
# (CPython 3.11, one core of an Intel Xeon virtual machine).
MAX_BUILTIN_RANK = 100

# Largest rank of a fusion-ring JSON document, checked on its basis before its
# table is built: `validate` checks associativity in rank^5 steps, whatever
# the table holds.  `tlab bound --fusion` on pointed:m written as JSON took
# 26 s at rank 40, 41-46 s at 44, 57 s at 46 and 71 s at 48, and `classify
# --fusion --format json` 44 s at 44 (CPython 3.11, 2-core virtual machine).
MAX_DOCUMENT_RANK = 44

# Largest fusion-ring JSON file in bytes, checked as it is read: a rank-44
# `to_json_dict` takes 0.26 MB compact and 0.97 MB with indent=2, and a 24 MB
# file of zeros took 1.15 s and 107.5 MB to parse before its rank was refused.
MAX_DOCUMENT_BYTES = 4 * 2**20


def _check_rank(name: str, rank: int, limit: int = MAX_BUILTIN_RANK) -> None:
    if rank > limit:
        raise FusionRingError(f"{name} has rank {rank}, beyond the limit of {limit}")


def builtin_ring(name: str) -> FusionRing:
    """Built-in fusion rings: slq:N (N >= 3), verp:p (p prime), ising,
    ty_z3, pointed:m; the rank is at most MAX_BUILTIN_RANK."""
    if name.startswith("slq:"):
        N = int(name[4:])
        if N < 3:
            raise FusionRingError("slq:N requires N >= 3")
        _check_rank(name, N - 1)
        ring = _chebyshev_truncated(name, N - 1)
    elif name.startswith("verp:"):
        p = int(name[5:])
        _check_rank(name, p - 1)
        if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
            raise FusionRingError("verp:p requires a prime p")
        ring = _chebyshev_truncated(name, p - 1)
    elif name == "ising":
        base = _chebyshev_truncated(name, 3)
        ring = FusionRing(
            name="ising",
            basis=("1", "sigma", "eps"),
            unit=0,
            dual=(0, 1, 2),
            table=base.table,
            aliases={"σ": "sigma", "ε": "eps"},
        )
    elif name == "ty_z3":
        # basis 1, g, g2, X with g^3 = 1, gX = X = Xg, X^2 = 1 + g + g2
        table = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(3):
            for j in range(3):
                table[i][j][(i + j) % 3] = 1
        for i in range(3):
            table[i][3][3] = 1
            table[3][i][3] = 1
        table[3][3][0] = table[3][3][1] = table[3][3][2] = 1
        ring = FusionRing(
            name="ty_z3",
            basis=("1", "g", "g2", "X"),
            unit=0,
            dual=(0, 2, 1, 3),
            table=tuple(tuple(tuple(cell) for cell in row) for row in table),
        )
    elif name.startswith("pointed:"):
        m = int(name[8:])
        if m < 1:
            raise FusionRingError("pointed:m requires m >= 1")
        _check_rank(name, m)
        table = [[[0] * m for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                table[i][j][(i + j) % m] = 1
        ring = FusionRing(
            name=name,
            basis=tuple(f"g{i}" for i in range(m)),
            unit=0,
            dual=tuple((-i) % m for i in range(m)),
            table=tuple(tuple(tuple(cell) for cell in row) for row in table),
        )
    else:
        raise FusionRingError(f"unknown built-in ring {name!r}")
    # construction formulas are exercised by the validator at every rank the
    # examples use; the quartic associativity sweep is skipped for big ranks
    if ring.rank <= 16:
        ring.validate()
    return ring


# ---------------------------------------------------------------------------
# Frobenius-Perron dimension


_POWER_TOL = 1e-12  # stop once successive eigenvalue estimates differ by less
_POWER_MAX_ITER = 200000


def _power_iteration(matrix: List[List[int]]) -> float:
    """Largest non-negative eigenvalue of a non-negative matrix.

    Iterates on the matrix plus the identity (which breaks the periodicity
    of graded fusion graphs without moving the eigenvector) and reads the
    eigenvalue off the Rayleigh quotient, then subtracts the shift."""
    n = len(matrix)
    if n == 0:
        return 0.0
    shifted = [[matrix[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    vec = [1.0] * n
    previous = None
    for _ in range(_POWER_MAX_ITER):
        nxt = [sum(shifted[i][j] * vec[j] for j in range(n)) for i in range(n)]
        norm = max(abs(x) for x in nxt)
        if norm == 0.0:
            return 0.0
        nxt = [x / norm for x in nxt]
        num = sum(
            nxt[i] * sum(shifted[i][j] * nxt[j] for j in range(n)) for i in range(n)
        )
        den = sum(x * x for x in nxt)
        estimate = num / den
        vec = nxt
        if previous is not None and abs(estimate - previous) < _POWER_TOL:
            return estimate - 1.0
        previous = estimate
    return previous - 1.0


def fpdim(ring: FusionRing, obj: Union[int, str, Sequence[int]]) -> float:
    """Frobenius-Perron dimension of a basis element, or the linear
    extension for a general class."""
    if isinstance(obj, (int, str)):
        return _power_iteration(ring.left_multiplication_matrix(obj))
    basis_dims = [_power_iteration(ring.left_multiplication_matrix(i)) for i in range(ring.rank)]
    return sum(c * d for c, d in zip(obj, basis_dims))


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


@dataclass(frozen=True)
class Verdict:
    kind: str  # "strictly_bounded" | "unbounded" | "inconclusive"
    n: Optional[int] = None
    reason: str = ""

    def __str__(self):
        if self.kind == "strictly_bounded":
            return f"strictly {self.n}-bounded"
        if self.kind == "unbounded":
            return f"unbounded ({self.reason})"
        return f"inconclusive up to {self.n} ({self.reason})"


@dataclass(frozen=True)
class BoundReport:
    """Classifier output for one class, with certificate data."""

    ring_name: str
    object_label: str
    object_class: K0Vector
    fpdim: float
    verdict: Verdict
    sequence: Tuple[K0Vector, ...]
    zero_indices: Tuple[int, ...]
    invertibility_certificate: Optional[dict]
    conjecture_relevant: bool

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
    return _bound(ring, obj, max_n, functools.partial(fpdim, ring))


def _bound(ring: FusionRing, obj, max_n: int, basis_fpdim: Callable[[int], float]) -> BoundReport:
    """minimal_bound, reading the FPdim of the basis element i off
    basis_fpdim(i)."""
    if max_n < 3:
        raise FusionRingError("max_n must be at least 3")
    if isinstance(obj, (int, str)):
        index = ring.index_of(obj)
        x = ring.basis_vector(index)
        label = ring.basis[index]
        composite = False
        dim = basis_fpdim(index)
    else:
        x = tuple(int(c) for c in obj)
        if len(x) != ring.rank:
            raise FusionRingError("class vector has wrong length")
        label = ring.describe_vector(x)
        composite = all(c >= 0 for c in x) and sum(x) >= 2
        dim = fpdim(ring, x)

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
        seq = continuant_sequence(ring, x, max(3 * N - 1, max_n))
        zero_indices = tuple(m for m in range(len(seq)) if m and not any(seq[m]))
        prev = seq[N - 2]
        support = [i for i, c in enumerate(prev) if c]
        is_signed_basis = len(support) == 1 and abs(prev[support[0]]) == 1
        certificate = {
            "index": N - 2,
            "class": ring.describe_vector(prev),
            "signed_basis_element": is_signed_basis,
            "fpdim": basis_fpdim(support[0]) if is_signed_basis else None,
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
    """Run the classifier on every basis element, with one power iteration
    for each."""
    basis_fpdim = functools.lru_cache(maxsize=None)(functools.partial(fpdim, ring))
    return [_bound(ring, i, max_n, basis_fpdim) for i in range(ring.rank)]


def summary_table(reports: List[BoundReport]) -> str:
    lines = ["object          FPdim        verdict"]
    for r in reports:
        lines.append(f"{r.object_label:<14}  {r.fpdim:<11.9f}  {r.verdict}")
    return "\n".join(lines)
