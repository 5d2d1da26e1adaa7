"""gainorder: stochastic orders, couplings, and ergodic capacity for fading
channels known only through their gain statistics."""

from .capacity import (
    RateRegion,
    RateValue,
    UnclassifiedScenarioError,
    c_of,
    ergodic_rate,
    exponential_rate_closed_form,
    pair_sum_rate,
    region_from_constraints,
    strong_ic_region,
    very_strong_ic_region,
    wtc_secrecy_capacity,
)
from .classifier import (
    BCScenario,
    ClassificationReport,
    ICScenario,
    WTCScenario,
    classify_bc,
    classify_ic_strong,
    classify_ic_very_strong,
    classify_wtc,
)
from .coupling import (
    MaximalCouplingSpec,
    comonotone_samples,
    copula_joint_ccdf,
    copula_joint_cdf,
    maximal_coupling_samples,
    maximal_coupling_spec,
    min_copula,
    residual_supports_separated,
    verify_copula_axioms,
)
from .distributions import (
    BernoulliGain,
    Empirical,
    EvaluationGrid,
    Exponential,
    GainDistribution,
    NakagamiGain,
    PointMass,
    RatioExpExp,
    RatioLaw,
    build_ratio,
    distribution_from_spec,
)
from .markov import (
    MarkovCertificate,
    MarkovChannelSpec,
    ccdf_matrix,
    check_indecomposable,
    check_markov_degraded,
    comparable_pairs,
    coupled_paths,
    markov_spec_from_json,
    super_state,
)
from .stochastic_order import (
    OrderVerdict,
    Relation,
    check_usual_order,
    check_usual_order_discrete,
    overlap_mass,
    total_variation,
)
from .verify import (
    VerificationReport,
    ks_statistic,
    mc_ergodic_rate,
    run_verification_suite,
    verify_copula_equivalence,
    verify_same_marginals,
    verify_strong_ic_independence,
)

__version__ = "0.1.0"
