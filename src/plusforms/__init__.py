"""Exact q-expansions of half-integral weight modular forms in the Kohnen
plus space, mod-3 congruence verification up to Sturm bounds, and
class-number density censuses over fundamental discriminants."""

from .qseries import (  # noqa: F401
    QSeries,
    RingTag,
    RATIONAL,
    RingMismatchError,
    NonIntegralCoefficientError,
)
from .level_one_forms import (  # noqa: F401
    Form,
    FormMeta,
    Weight2EmptyError,
    bernoulli,
    delta,
    dim_s,
    eisenstein,
    mk_basis,
)
from .arith import kronecker, sigma  # noqa: F401
from .class_numbers import (  # noqa: F401
    Discriminant,
    NonNegativeInputError,
    class_number_of_field,
    field_discriminant,
    form_class_number,
    gen_bernoulli,
    hurwitz,
    is_fundamental,
)
from .cohen_eisenstein import (  # noqa: F401
    PlusConditionError,
    PlusForm,
    PlusSpaceDimensionError,
    ResidueConditionViolatedError,
    WeightMismatchError,
    cohen_h,
    cohen_series,
    cohen_series_many,
    g_ab,
    plus_isomorphism,
    plus_space_basis,
    theta,
)
from .operators import (  # noqa: F401
    Character,
    NotOddPrimeError,
    ap_project,
    hecke_t,
    r_t,
    twist,
    u_op,
    v_op,
)
from .constructions import (  # noqa: F401
    CHI3,
    CHI3_SQUARED,
    NamedForm,
    f_form,
    g31,
    hurwitz_progression,
    phi,
    psi,
    psi10,
)
from .congruence_engine import (  # noqa: F401
    CongruenceReport,
    HalfIntegralWeightError,
    index_gamma0,
    sturm_bound,
    verify_congruence,
)
from .census import (  # noqa: F401
    BridgeViolationError,
    CensusReport,
    beta_census_crosscheck,
    n2minus,
    nonvanishing_census,
    starstar_ok,
)

__version__ = "0.1.0"
