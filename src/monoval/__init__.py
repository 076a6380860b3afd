"""Exact computation of continued fractions, monomial valuations on the
rational function field in two variables, positive paths in the tree of
coordinate rings, explicit valuation-ring generators, and step-by-step
blow-up resolution of the plane cusp x^b = y^a.

Everything is exact integer and rational arithmetic; there is no floating
point anywhere, and irrational ratios are handled through continued
fraction digit streams, compared with rationals digit by digit.
"""

from .exactnum import (
    CFExpansion,
    CFStream,
    GREATER,
    LESS,
    Rational,
    cf_alternate,
    cf_canonicalize,
    cf_convergents,
    cf_expand,
    cf_value,
    sqrt2_stream,
    stream_compare,
)
from .laurent import (
    ChartBasis,
    LaurentPolynomial,
    Monomial,
    RationalFunction,
    UNIT,
    X,
    Y,
    ZeroPolynomialError,
    expand_from_chart,
    factor_monomial_content,
    lattice_solve,
    rewrite_in_chart,
)
from .valuation import (
    LexZ2Group,
    MonomialValuation,
    RationalRatioGroup,
    StreamRatioGroup,
    Value,
    ZERO,
)
from .valtree import (
    Branch,
    CorrespondenceReport,
    PositivePath,
    ROOT,
    TreeVertex,
    branch_decomposition,
    cf_correspondence_check,
    children,
    correspondence_report,
    lex_valuation_from_tail,
    positive_child,
    positive_path,
    take_runs,
    walk_runs,
)
from .valring import (
    RingPresentation,
    StructuralMembership,
    bezout,
    membership_by_value,
    membership_structural,
    membership_union,
    ring_generators,
)
from .resolution import (
    ChartState,
    Classification,
    MissesOrigin,
    ResolutionInvariantError,
    ResolutionTrace,
    TheoremReport,
    ThroughOrigin,
    bad_vertex_path,
    blow_up,
    chart_agrees_with_lattice,
    check_theorem,
    classify,
    cusp_polynomial,
    expand_chart,
    initial_chart,
    is_smooth_component,
    off_origin_crossing_report,
    resolve,
    theorem_report,
    verify_reconstruction,
)
from .expr import (
    ExpressionError,
    initial_value,
    lower,
    parse_expression,
    parse_rational_function,
)
from .emit import emit_dot, emit_json
from .verify import VerifyReport, coprime_pairs, run_verify

__version__ = "0.1.0"
