"""Symbolic toolkit for corank-one Poisson structures on coordinate charts.

The package provides an exact scalar-expression field (`expr`), the graded
exterior algebra of forms and multivector fields with the operators of
foliated Poisson geometry (`calculus`), structure analysis and adapted
defining forms (`poisson`), the obstruction/modular invariants
(`invariants`), transversality of the top power and the extension across a
transversally vanishing hypersurface (`bgeom`), plus problem files
(`problemfile`), their analysis reports (`pipeline`) and a batch CLI
(`cli`) that runs the bundled example files.
"""

__version__ = "0.1.0"

from .expr import (  # noqa: F401
    Chart,
    FuncGen,
    ScalarExpr,
    Verdict,
    VerdictKind,
    ZeroTester,
    apply_function,
    cos,
    exp,
    log,
    parse_scalar,
    rational,
    sin,
    symbol,
)
from .calculus import (  # noqa: F401
    DiffForm,
    MultiVector,
    basis_form,
    basis_vector,
    ext_deriv,
    exterior_divide,
    interior,
    is_zero_graded,
    leafwise_equal,
    lie_derivative,
    parse_graded,
    power,
    scalar_form,
    schouten,
    volume_form,
    wedge,
    zero_form,
    zero_multivector,
)
from .poisson import (  # noqa: F401
    PoissonStructure,
    invert_bivector,
    invert_twoform,
    linear_solve,
)
from .invariants import (  # noqa: F401
    ObstructionCertificate,
    ObstructionResult,
    PeriodWitness,
    TransversePoissonReport,
    check_transverse_poisson,
    check_weinstein_identity,
    compute_beta,
    compute_mu,
    godbillon_vey,
    modular_field,
    second_obstruction,
    unimodularity_check,
    verify_certificate,
)
from .bgeom import (  # noqa: F401
    BExtension,
    BTransversalityReport,
    b_transversality_check,
    extend_to_b,
)
