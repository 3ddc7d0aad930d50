"""Hierarchical Kendall copulas: dependence modeling with clustered variables.

Clusters of variables are joined by arbitrary copulas, summarized through
their Kendall distribution functions V = K(C(U)), and the summaries are
coupled by a nesting copula. The package covers Kendall distribution
functions (closed-form Archimedean and empirical), exact and approximate
level-set sampling, model density and likelihood, two-step and joint
maximum-likelihood estimation, and Value-at-Risk backtesting.
"""

from .copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    copula_cdf,
    copula_logpdf,
    copula_pdf,
    copula_sample,
    quantile_curve,
)
from .errors import HierKendallError
from .estimation import (
    FitOptions,
    FitReport,
    NodeSpec,
    StudyConfig,
    build_model,
    fit_cluster,
    fit_joint_mle,
    fit_two_step,
    pseudo_observations,
    simulation_study,
)
from .generators import (
    ArchimedeanGenerator,
    generator_inverse,
    generator_inverse_derivative,
    generator_value,
    tau_from_theta,
    theta_from_tau,
)
from .hierarchical import (
    HierarchicalModel,
    InnerNode,
    LeafNode,
    cross_cluster_margin_pdf,
    inner,
    leaf,
    model_density,
    model_loglik,
    model_sample,
    nesting_pit,
)
from .kendall import (
    KendallFunction,
    closed_form_kendall,
    empirical_kendall_build,
    empirical_kendall_from_values,
    kendall_cdf,
    kendall_inverse,
)
from .levelset import (
    EpsilonRule,
    sample_levelset_conditional_batch,
    sample_levelset_projected_batch,
    sample_levelset_rejection_batch,
)
from .backtest import (
    BacktestReport,
    christoffersen_tests,
    forecast_var,
    kupiec_uc,
    rolling_backtest,
)

__version__ = "0.1.0"
