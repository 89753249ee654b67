"""Exact truth-value colorings of rays, projections, and POVMs.

The library decides trueness of rays and projection matrices through 3-adic
valuations of exact rational data, colors POVM elements through the sqrt(2)
component of their (1,1) entry, constructs exactly-verified suitable frames
and decompositions arbitrarily close to arbitrary targets, and demonstrates
both the Kochen-Specker contradiction on classic ray sets and its dissolution
under finite-precision perturbation.
"""

from .coloring import (
    ProjectionRep,
    TruthValue,
    classify_decomposition,
    classify_in_frame,
    classify_projection_matrix,
    classify_ray,
    nonorthogonality_certificate,
    truth_sum,
    witness_shift,
)
from .density import ApproxResult, false_ray_near, nearest_true_ray, suitable_frame_near
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    KscolorError,
    NotApplicableError,
    ResourceLimitError,
)
from .fields import (
    GaussianRational,
    QuadComplex,
    QuadRational,
    adjust_denominator,
    rationalize,
    v3,
)
from .kscheck import (
    NullificationReport,
    OrthGraph,
    RaySet,
    brute_force_coloring,
    build_graph,
    dump_rayset,
    find_ks_coloring,
    is_valid_coloring,
    load_builtin,
    load_rayset,
    perturb_to_suitable,
)
from .linalg import (
    Frame,
    GMatrix,
    GVector,
    QuadHermitian,
    frob_dist2,
    gram_schmidt,
    inner_product,
    norm2,
    projector_of,
    psd_check,
    ray_dist2,
    same_ray,
)
from .povm import (
    PovmDecomposition,
    PovmElement,
    classify_element,
    classify_with_witness,
    is_suitable,
    make_suitable_near,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxResult",
    "DegenerateInputError",
    "Frame",
    "GMatrix",
    "GVector",
    "GaussianRational",
    "InvalidInputError",
    "KscolorError",
    "NotApplicableError",
    "NullificationReport",
    "OrthGraph",
    "PovmDecomposition",
    "PovmElement",
    "ProjectionRep",
    "QuadComplex",
    "QuadHermitian",
    "QuadRational",
    "RaySet",
    "ResourceLimitError",
    "TruthValue",
    "adjust_denominator",
    "brute_force_coloring",
    "build_graph",
    "classify_decomposition",
    "classify_element",
    "classify_in_frame",
    "classify_projection_matrix",
    "classify_ray",
    "classify_with_witness",
    "dump_rayset",
    "false_ray_near",
    "find_ks_coloring",
    "frob_dist2",
    "gram_schmidt",
    "inner_product",
    "is_suitable",
    "is_valid_coloring",
    "load_builtin",
    "load_rayset",
    "make_suitable_near",
    "nearest_true_ray",
    "nonorthogonality_certificate",
    "norm2",
    "perturb_to_suitable",
    "projector_of",
    "psd_check",
    "rationalize",
    "ray_dist2",
    "same_ray",
    "suitable_frame_near",
    "truth_sum",
    "v3",
    "witness_shift",
]
