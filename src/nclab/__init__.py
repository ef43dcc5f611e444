"""nclab: exact symbolic algebra for free algebras, generic matrices and
truncated star products."""

__version__ = "0.1.0"

from .fields import GF, QQ, Field, Scalar  # noqa: F401
from .freealg import FreePoly, commutator, parse_free, pretty  # noqa: F401
from .genmat import (  # noqa: F401
    BivariatePoly,
    GenericMatrix,
    annihilator_stability,
    find_annihilator,
    make_generic,
    pi_reduce,
    standard_identity,
    trace_and_charpoly,
)
from .quantize import (  # noqa: F401
    FormalSeries,
    PoissonTensor,
    StarContext,
    matrix_star,
    matrix_star_commutator,
    poisson_bracket,
    quantize_lift,
    star_commutator,
    star_mul,
    verify_correspondence,
)
from .rings import CommPoly, RationalFunction, Variable  # noqa: F401
