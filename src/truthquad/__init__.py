"""True values of causal estimands by Gaussian quadrature, with MC baselines."""

from .distributions import (
    Dist,
    Exponential,
    Gamma,
    MVNormal,
    Normal,
    Uniform,
    dist_from_json,
    dist_to_json,
    pdf,
    rule_for,
    sample,
)
from .errors import (
    NonFiniteEvaluationError,
    NumericDomainError,
    PointBudgetError,
    ValidationError,
)
from .grids import (
    CovSpec,
    Decomposition,
    GridND,
    integrate_nd,
    product_grid,
    rotate_grid,
    tensor_grid,
)
from .mc import (
    Comparison,
    MCConfig,
    MCSummary,
    compare,
    mc_cde,
    mc_confounding,
    mc_hr_counterfactual,
    mc_hr_mediation,
    mc_marginal_prob,
    mc_odds_ratio,
    mc_rmst_mediation,
    po_odds_ratio,
    potential_outcome_sim,
)
from .rules import (
    Rule1D,
    RuleKind,
    compute_rule,
    genlaguerre_kind,
    hermite_kind,
    integrate_1d,
    laguerre_kind,
    legendre_kind,
    rescale_rule,
)
from .scenarios import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    LModel,
    RMSTScenario,
    TruthResult,
    cde_truth,
    counterfactual_density,
    counterfactual_hazard,
    counterfactual_survival,
    hr_mediation_truth,
    marginal_prob,
    odds_ratio_truth,
    rmst,
    rmst_mediation_truth,
    scenario_for_case,
    weibull_density,
    weibull_hazard,
    weibull_survival,
)
from .special import (
    ClosedFormCase,
    ZETA5,
    closed_form_odds_ratio,
    closed_form_probs,
    dilog,
    expit,
    polylog5,
    zeta5_partial_sum,
)

__version__ = "0.1.0"
