"""foltools: exact verification toolkit for planar polynomial vector fields.

Invariant-curve certificates, branch multiplicities and the Euler identity,
closed-form cycle bounds, reference constructions, certified oval counting,
and numeric hyperbolicity certificates, all over exact Gaussian rationals.
"""

from .bounds import (
    BoundReport,
    MkResult,
    harnack_bound,
    mk_argmax,
    mk_value,
    nodal_degree_bound,
    nondicritical_degree_bound,
    thm1_bound,
    thm2_bound,
    thm4_bound,
)
from .branches import (
    Branch,
    EulerReport,
    branch_multiplicity,
    corollary2_check,
    euler_identity_check,
    genus_and_chi,
    infinity_branch_data,
    local_branches,
)
from .construct import (
    GalleryEntry,
    LogarithmicSpec,
    eee_system,
    gallery,
    logarithmic_form,
    ratio_condition_report,
    thm2b_configuration,
)
from .cycles import (
    CycleCertificate,
    certify_cycle,
    divergence_integral,
    integrate_orbit,
    location_check,
    stability_against_orbit,
)
from .errors import (
    ArityMismatch,
    ConfigError,
    DegenerateInput,
    FolError,
    NonIsolatedSingularities,
    ParseError,
    PreconditionError,
    RootSearchOverflow,
    UncertifiedResult,
    UnsupportedBranch,
)
from .fields import (
    AffineVectorField,
    CofactorCertificate,
    ProjectiveOneForm,
    darboux_check,
    deprojectivize,
    divergence,
    iif_check,
    infinity_invariant,
    invariance_check,
    lie_derivative,
    projectivize,
)
from .gaussian import GaussianRational, gr
from .polyring import (
    MINUS_INFINITY,
    MultiPoly,
    dehomogenize,
    exact_divide,
    homogenize,
    is_squarefree,
    leading_form,
    poly_gcd,
    resultant,
)
from .realtopo import (
    Box,
    Oval,
    OvalSet,
    compactness_check,
    count_ovals,
    default_box,
    trace_oval,
)
from .singularities import (
    CurveSingularity,
    Enumeration,
    ProjectivePoint,
    SingularityRecord,
    Verdict,
    affine_singularities,
    classify_dicritical,
    curve_singularities,
    curve_singularities_decided,
    infinite_singularities,
    is_nodal,
)
from .textio import (
    SystemDocument,
    format_system,
    parse_poly,
    parse_system,
    print_poly,
    report_json,
)

__version__ = "0.1.0"
