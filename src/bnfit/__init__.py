"""bnfit: parameter estimation for discrete Bayesian networks with
missing data, plus learning-rate spectrum analysis.

Batch rules EM(eta), EG(eta), and gradient projection; one-sample online
variants with pluggable learning-rate schedules; exact inference by
variable elimination with an enumeration oracle; and an experiment
harness with forward sampling and ignorable missingness.
"""

from .estimation import (
    FitConfig,
    FitResult,
    SufficientStats,
    TraceRecord,
    distance_chi2,
    distance_kl,
    eg_eta_step,
    em_eta_step,
    expected_stats,
    fit,
    gp_step,
    gradient,
    is_fixpoint,
)
from .harness import (
    EvalSpec,
    ExperimentArm,
    ExperimentConfig,
    MissingnessSpec,
    evaluate_queries,
    forward_sample,
    obscure,
    query_error,
    run_experiment,
)
from .inference import (
    enumerate_case_probability,
    enumerate_family_posteriors,
    enumerate_joint,
    family_posteriors,
    joint_probability,
    log_marginal_likelihood,
    parent_config_marginals,
    posterior_marginal,
)
from .model import (
    BnError,
    Network,
    NetworkStructure,
    NumericalError,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
    parent_config_index,
    random_init,
    uniform_init,
)
from .netio import (
    DataCase,
    DataSet,
    load_dataset,
    parse_network,
    read_dataset,
    read_network,
    serialize_network,
    write_dataset,
    write_network,
    write_trace,
)
from .networks import builtin_network, chain3, tree8, twolayer15
from .online import (
    LearningRateSchedule,
    OnlineRunResult,
    OnlineState,
    init_online_state,
    online_eg_step,
    online_em_step,
    online_gp_step,
    run_stream,
)
from .spectral import (
    NotAFixpointError,
    SpectralReport,
    build_report,
    contraction_rate,
    empirical_rate,
    eta_star,
    eigen_range,
    jacobian,
    phi_apply,
    report_to_json,
)

__version__ = "0.1.0"
