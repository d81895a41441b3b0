"""Desk-scale convex analysis on Hadamard (complete CAT(0)) spaces.

Quasilinearization pairings, formal dual vectors, basepoint couplings
and Fenchel-type conjugates, monotone operator graphs with polars and
relative maximality, and Fitzpatrick-type transforms - all on finite
instances over three concrete spaces (Euclidean, a branch-glued tree,
the hyperboloid sheet), with exact rational arithmetic wherever the
formulas stay rational.
"""

from .extreal import ExtReal, NEG_INF, POS_INF, Scalar, ext, inf, scale, sup
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    RTREE,
    BoundVector,
    GeometryError,
    Point,
    PointValidationError,
    SpaceHandle,
    SpaceMismatchError,
    dist_sq,
    distance,
    euclidean,
    geodesic_point,
    hyperbolic,
    hyperbolic_geodesic,
    make_point,
    minkowski_form,
    random_point,
    rtree,
    sample_points,
)
from .geometry import (
    CauchySchwarzReport,
    CnReport,
    check_cauchy_schwarz,
    check_cn_inequality,
    quasilinearization,
)
from .dual import (
    DualVector,
    canonical_hilbert,
    dual_add,
    dual_norm_approx,
    dual_scale,
    dual_term,
    dual_vector,
    duals_match,
    j_map,
    pair,
    pseudometric_D_approx,
    zero_dual,
)
from .conjugate import (
    DEFAULT_LAMBDA_GRID,
    FunctionTable,
    GammaReport,
    ImproperTableError,
    PairedPoint,
    coupling_pi,
    fenchel_conjugate_p,
    fenchel_young_check,
    function_table,
    gamma_p_membership,
    pair_in,
)
from .monotone import (
    FPropertyReport,
    OperatorGraph,
    PropertyReport,
    f_property_check,
    flatness_check,
    is_maximal_relative,
    is_monotone,
    monotone_polar,
    monotonically_related,
    relatedness_gap,
)
from .fitzpatrick import (
    ExampleRow,
    FitzConvexityReport,
    RepresentationPreconditionError,
    SLevelReport,
    classical_fitzpatrick_oracle,
    convexity_check_fitz,
    fitzpatrick_forms_agree,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    level_set_report,
    roundtrip_check,
    s_map,
    worked_examples,
)

__version__ = "0.1.0"
