"""tlab: exact Temperley-Lieb diagram calculus, continuant complexes over it,
a concrete two-dimensional fiber-functor model, and a fusion-ring
boundedness classifier, with a command-line front end."""

from .complexes import (
    FormalComplex,
    FormalMorphism,
    FormalObject,
    build_continuant,
    k0_class,
    twinned_subsets,
    validate,
)
from .contpoly import (
    IntPolynomial,
    kappa,
    mu,
    nu,
    qbinom,
    qnum,
)
from .fusion import (
    BoundReport,
    FusionRing,
    builtin_ring,
    classify_all,
    continuant_sequence,
    fpdim,
    load_fusion_ring,
    minimal_bound,
)
from .rings import (
    RingValue,
    Triple,
    construct_ring,
    generic_tower,
    parse_element,
)
from .sl2model import FiberParams, HomologyReport, homology
from .tldiag import (
    NotExists,
    PlanarMatching,
    TLMorphism,
    Word,
    compose,
    enumerate_basis,
    jw,
    partial_trace,
    rotatability,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "FiberParams",
    "FormalComplex",
    "FormalMorphism",
    "FormalObject",
    "FusionRing",
    "HomologyReport",
    "IntPolynomial",
    "NotExists",
    "PlanarMatching",
    "RingValue",
    "TLMorphism",
    "Triple",
    "Word",
    "build_continuant",
    "builtin_ring",
    "classify_all",
    "compose",
    "construct_ring",
    "continuant_sequence",
    "enumerate_basis",
    "fpdim",
    "generic_tower",
    "homology",
    "jw",
    "k0_class",
    "kappa",
    "load_fusion_ring",
    "minimal_bound",
    "mu",
    "nu",
    "parse_element",
    "partial_trace",
    "qbinom",
    "qnum",
    "rotatability",
    "tensor",
    "twinned_subsets",
    "validate",
]
