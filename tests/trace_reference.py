"""Test-side Markov trace, negligibility and rescaling transport.

``homology --model 2tl`` reads tr(JW_n) as [n+1] and negligibility off that
trace (the proof is beside it in ``cli.py``), and ``_jw_by_table`` uses the
rescaling only through ``rescale_weight``.  The definitions they rest on
live here, as oracles: the trace closes every strand around the right side
and evaluates the loops, negligibility pairs against every basis diagram,
and the transport scales each diagram by lam ** rescale_weight."""

from tlab.rings import RingValue, Triple
from tlab.tldiag import (
    DiagramError,
    PlanarMatching,
    TLMorphism,
    Word,
    compose,
    enumerate_basis,
    rescale_weight,
    tensor,
)


def markov_trace(f: TLMorphism) -> RingValue:
    """Close all strands around the right side with nested arcs and evaluate
    the resulting loops."""
    if f.source != f.target:
        raise DiagramError("markov trace expects an endomorphism")
    triple = f.triple
    n = len(f.source)
    if n == 0:
        return f.coefficient(PlanarMatching(Word.empty(), Word.empty(), ()))
    word = f.source
    closed = word + word.dual()
    cup = PlanarMatching(Word.empty(), closed, tuple((("t", i), ("t", 2 * n - 1 - i)) for i in range(n)))
    cap = PlanarMatching(closed, Word.empty(), tuple((("b", i), ("b", 2 * n - 1 - i)) for i in range(n)))
    widened = tensor(f, TLMorphism.identity(triple, word.dual()))
    result = compose(
        TLMorphism.from_matching(triple, cap),
        compose(widened, TLMorphism.from_matching(triple, cup)),
    )
    return result.coefficient(PlanarMatching(Word.empty(), Word.empty(), ()))


def is_negligible(f: TLMorphism) -> bool:
    """True when every trace pairing against a basis diagram vanishes."""
    if f.source != f.target:
        raise DiagramError("negligibility is defined for endomorphisms")
    for m in enumerate_basis(f.source, f.target):
        if not markov_trace(compose(f, TLMorphism.from_matching(f.triple, m))).is_zero():
            return False
    return True


def rescale_transport(f: TLMorphism, lam: RingValue) -> TLMorphism:
    """Transport along the algebra isomorphism that rescales the two loop
    values to (lam * d1, lam^-1 * d2); each diagram picks up the scalar
    lam ** rescale_weight."""
    lam_inv = lam.inverse()
    if lam_inv is None:
        raise DiagramError("rescaling requires an invertible scalar")
    triple = f.triple
    new_triple = Triple(triple.ring, lam * triple.delta1, lam_inv * triple.delta2)
    terms = {}
    for m, c in f.terms.items():
        terms[m] = c * lam ** rescale_weight(m)
    return TLMorphism(new_triple, f.source, f.target, terms)
