"""Numerical laboratory for concentration phenomena of the planar
exponential-growth (Moser) functional: exact piecewise-linear radial
calculus, dislocation operators on the disc, decreasing rearrangements with
Lorentz-Zygmund quasinorms, and a constructive profile-decomposition
extractor, plus deterministic sequence generators and a batch CLI."""

from .radial import (
    RadialProfile,
    gauge_apply,
    grad_norm,
    hardy_ratio,
    make_moser,
    moser_annular,
    moser_from_exponent,
    pairing_mstar,
    pointwise_bound_margin,
)
from .functional import (
    FunctionalReport,
    QuadratureSpec,
    evaluate_functional,
    j_direct,
    j_representation,
    moser_limit_experiment,
    weak_discontinuity_demo,
)
from .rearrange import (
    LZIndex,
    RearrangedFunction,
    expl2_disc,
    expl2_quasinorm,
    lz_quasinorm,
    rearrange_disc,
    rearrange_radial,
)
from .disc import (
    DiscFunction,
    DislocationParam,
    PolarGrid,
    average,
    concentration_detect,
    deflate,
    inflate,
)
from .profiles import (
    Decomposition,
    FunctionSequence,
    ProfileTerm,
    dweak_test,
    energy_ledger,
    extract,
    orthogonality_check,
)
from .seqgen import (
    GeneratorSpec,
    counterexample_sequence,
    moser_sequence,
    synthetic_superposition,
    vanishing_sequence,
)

__version__ = "0.1.0"
