"""Test-side chain maps, shifts and mapping cones of formal complexes.

``build_continuant`` writes E_n = Cone(f_{n-1})[-1] from its closed form
and builds no chain map, so the construction it replaces lives here, as the
reference that ``tests/test_complexes.py`` iterates literally.  The sign
conventions are those of README: C[1]_i = C_{i-1} with negated
differentials, and Cone(f)_i = C_{i-1} (+) D_i with differential
((-d^C, 0), (-f, d^D))."""

from typing import Dict, Optional

from tlab._plain import Plain
from tlab.complexes import ComplexError, FormalComplex, FormalMorphism, FormalObject


class ChainMap(Plain):
    """A degreewise morphism commuting with the differentials."""

    _fields = ("source", "target", "parts")

    def __init__(self, source: FormalComplex, target: FormalComplex, parts: Optional[Dict[int, FormalMorphism]] = None):
        self.source, self.target, self.parts = source, target, {} if parts is None else parts

    def verify(self) -> bool:
        S, T = self.source, self.target

        def f(i):
            return self.parts.get(i) or FormalMorphism.zero(S.triple, S.term(i), T.term(i))

        def d(C, i):
            return C.diffs.get(i) or FormalMorphism.zero(C.triple, C.term(i), C.term(i - 1))

        return all(d(T, i) * f(i) == f(i - 1) * d(S, i) for i in S.degrees())


def shift(complex_: FormalComplex, k: int = 1) -> FormalComplex:
    """The k-fold shift: terms move up by k, differentials pick up (-1)^k."""
    terms = {i + k: obj for i, obj in complex_.terms.items()}
    diffs = {}
    for i, d in complex_.diffs.items():
        diffs[i + k] = d if k % 2 == 0 else -d
    labels = None
    if complex_.labels is not None:
        labels = {i + k: lab for i, lab in complex_.labels.items()}
    return FormalComplex(complex_.triple, terms, diffs, labels)


def cone(f: ChainMap) -> FormalComplex:
    """Mapping cone with terms C_{i-1} (+) D_i and the displayed signs."""
    if not f.verify():
        raise ComplexError("cone requires a chain map")
    C, D = f.source, f.target
    triple = C.triple
    degrees = sorted(set(i + 1 for i in C.terms) | set(D.terms))
    terms = {}
    for i in degrees:
        summands = C.term(i - 1).summands + D.term(i).summands
        terms[i] = FormalObject(summands)
    diffs = {}
    for i in degrees:
        if (i - 1) not in terms or not len(terms[i - 1]):
            continue
        nc_src, nc_tgt = len(C.term(i - 1)), len(C.term(i - 2))
        blocks = {}
        for part, rows, cols, negate in (
            (C.diffs.get(i - 1), 0, 0, True),
            (f.parts.get(i - 1), nc_tgt, 0, True),
            (D.diffs.get(i), nc_tgt, nc_src, False),
        ):
            if part is not None:
                for (a, b), e in part.blocks.items():
                    blocks[rows + a, cols + b] = -e if negate else e
        if blocks:
            diffs[i] = FormalMorphism._from_blocks(triple, terms[i], terms[i - 1], blocks)
    return FormalComplex(triple, terms, diffs)
