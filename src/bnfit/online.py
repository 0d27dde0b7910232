"""One-sample update rules with pluggable learning-rate schedules.

The learner keeps a current network, consumes one case at a time, and
moves its parameters after each case.  A step is the batch update, made
by the rule dispatcher `fit` uses (`estimation._apply_rule`), with the
single case's family posteriors as the expected counts.

The EM and EG rules divide by an estimate of the parent-configuration
mass.  Which estimate depends on the schedule:

* ``fixed`` and ``inverse_t`` use the prior marginal P(Pa_i = j) under
  the current model, without conditioning on the incoming case.  It
  comes from the step's own inference pass, as the posteriors of an
  all-missing row batched with the case.
* ``per_row_count`` uses the case-conditioned mass P(Pa_i = j | y) and a
  rate of 1 / (visits + 1).  On a fully observed stream this makes each
  row an exact running average of its cases, so one pass reproduces the
  batch empirical conditional frequencies.

Rows whose mass estimate falls below ROW_MASS_FLOOR are frozen for the
step.  Updates are strictly sequential per state; independent states may
run concurrently.  There is no order-invariance: streaming the same cases
in a different order generally gives a different model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .estimation import RULES, SufficientStats, _apply_rule
# parent_config_marginals is not called here; it stays bound in this
# module because perfbench/tracing.py wraps it by this name.
from .inference import batch_family_posteriors, parent_config_marginals  # noqa: F401
from .model import (
    PROB_FLOOR,
    Network,
    ParameterVector,
    ValidationError,
    ZeroProbabilityError,
    check_number,
    check_same_structure,
    param_delta_stats,
)
from .netio import MISSING, DataCase, DataSet, _check_states

ETA_MAX = 2.0

# Floor for the exact running-average path: small enough not to disturb
# the average at the tested precision, large enough that states never
# seen so far keep a representable, nonzero probability.
RUNNING_AVG_FLOOR = 1e-15

SCHEDULE_KINDS = ("fixed", "inverse_t", "per_row_count")


@dataclass(frozen=True)
class LearningRateSchedule:
    """fixed(eta) | inverse_t(c, t0): eta_t = c/(t + t0) | per_row_count.

    Produced rates are always in (0, ETA_MAX].
    """

    kind: str
    eta: float = 1.0
    c: float = 1.0
    t0: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValidationError(f"unknown schedule {self.kind!r}")
        if self.kind == "fixed":
            check_number(self.eta, "the fixed rate", above=0, high=ETA_MAX)
        if self.kind == "inverse_t":
            check_number(self.c, "inverse_t c", above=0)
            check_number(self.t0, "inverse_t t0", low=0)

    @classmethod
    def fixed(cls, eta: float) -> "LearningRateSchedule":
        return cls("fixed", eta=eta)

    @classmethod
    def inverse_t(cls, c: float, t0: float = 0.0) -> "LearningRateSchedule":
        return cls("inverse_t", c=c, t0=t0)

    @classmethod
    def per_row_count(cls) -> "LearningRateSchedule":
        return cls("per_row_count")

    @property
    def conditioned_mass(self) -> bool:
        """Whether EM/EG divide by the case-conditioned parent mass."""
        return self.kind == "per_row_count"

    def _rate(self, t: int) -> float:
        """The rate every row gets at step t under ``fixed`` and ``inverse_t``."""
        if self.kind == "fixed":
            return self.eta
        denom = t + self.t0
        return ETA_MAX if denom <= 0 else min(self.c / denom, ETA_MAX)

    def row_rates(self, t: int, visit_mass: np.ndarray) -> np.ndarray:
        if self.kind == "per_row_count":
            return 1.0 / (visit_mass + 1.0)
        return np.full(visit_mass.shape, self._rate(t))


@dataclass(frozen=True)
class OnlineState:
    """Current model, step counter, and per-row cumulative visit mass.

    ``last_case_ll`` is log P(case) under the model *before* the most
    recent step consumed it; it falls out of the step's single inference
    pass.
    """

    network: Network
    t: int
    visit_mass: tuple[np.ndarray, ...]
    last_case_ll: float | None = None

    @property
    def theta(self) -> ParameterVector:
        return self.network.theta


def init_online_state(network: Network) -> OnlineState:
    masses = tuple(
        np.zeros(network.structure.parent_config_count(i))
        for i in range(network.structure.n_vars)
    )
    return OnlineState(network, 0, masses)


def _case_posteriors(
    state: OnlineState, case: DataCase, prior_mass: bool = False
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], float]:
    """The case's family posteriors, two parent masses per family, and log P(case).

    The first mass is P(Pa_i = j | case), which every step adds to the
    visit masses.  The second is the one the row update divides by: the
    same list, or with `prior_mass` the prior P(Pa_i = j).  An all-missing
    row then joins the case in the same inference pass, and its family
    posteriors summed over the child's states are the prior parent
    marginals.
    """
    rows = case.states[None, :]
    if prior_mass:
        rows = np.vstack([rows, np.full_like(rows, MISSING)])
    posts, lls = batch_family_posteriors(state.network, rows)
    visits = [p[0].sum(axis=1) for p in posts]
    mass = [p[-1].sum(axis=1) for p in posts] if prior_mass else visits
    return [p[0] for p in posts], visits, mass, float(lls[0])


def _step(
    rule: str, state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """The batch update of `rule` with the case's posteriors as the expected counts."""
    counting = schedule.conditioned_mass
    posts, visits, mass, case_ll = _case_posteriors(state, case, rule != "gp" and not counting)
    if counting:
        eta, floor = [schedule.row_rates(state.t, m) for m in state.visit_mass], RUNNING_AVG_FLOOR
    else:
        eta, floor = schedule._rate(state.t), PROB_FLOOR
    theta = _apply_rule(state.theta, SufficientStats(tuple(posts), tuple(mass)), rule, eta, floor)
    masses = tuple(m + v for m, v in zip(state.visit_mass, visits))
    return OnlineState(state.network.with_theta(theta), state.t + 1, masses, case_ll)


def online_em_step(
    state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """Single-case EM(eta): move visited rows toward the case posteriors.

    Under the counting schedule the update is an exact running average of
    the per-case conditionals, so it uses a much smaller probability
    floor: the standard floor's injections would distort the average at
    the 1e-9 scale, while dropping the floor entirely would let exact
    zeros reject later cases as impossible.
    """
    return _step("em", state, case, schedule)


def online_eg_step(
    state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """Single-case EG(eta): exponentiated-gradient reweighting of each row."""
    return _step("eg", state, case, schedule)


def online_gp_step(
    state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """Projected step along the instantaneous likelihood gradient.

    The gradient of log P(y) is the case posterior over the table entry;
    rows the case does not touch have a zero gradient and stay put.
    """
    return _step("gp", state, case, schedule)


@dataclass(frozen=True)
class OnlineTraceRecord:
    t: int
    case_ll: float | None
    step_l2: float
    skipped: bool


@dataclass(frozen=True)
class OnlineRunResult:
    state: OnlineState
    trace: tuple[OnlineTraceRecord, ...]
    n_skipped: int


def run_stream(
    network: Network,
    cases: DataSet | Sequence[DataCase] | Iterable[DataCase],
    rule: str,
    schedule: LearningRateSchedule,
) -> OnlineRunResult:
    """Apply the chosen rule to each case in arrival order.

    A case with probability zero under the current model is skipped and
    counted rather than aborting the stream; the model and visit masses
    are left untouched for that case (the step counter still advances).
    A dataset of another structure, or a case that does not fit the
    structure, raises ValidationError.
    """
    if rule not in RULES:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {RULES}")
    checked = isinstance(cases, DataSet)
    if checked:
        check_same_structure(cases.structure, network.structure, "the stream", "the network")
    stream = cases.cases() if checked else cases
    state = init_online_state(network)
    trace: list[OnlineTraceRecord] = []
    for k, case in enumerate(stream):
        if not checked:
            if not isinstance(case, DataCase):
                raise ValidationError(f"stream case {k} is a {type(case).__name__}, not a DataCase")
            _check_states(network.structure, case.states[None], f"stream case {k}")
        before = state
        try:
            state = _step(rule, before, case, schedule)
        except ZeroProbabilityError:
            trace.append(OnlineTraceRecord(before.t, None, 0.0, True))
            state = replace(before, t=before.t + 1, last_case_ll=None)
            continue
        _, step_l2 = param_delta_stats(state.theta, before.theta)
        trace.append(OnlineTraceRecord(before.t, state.last_case_ll, step_l2, False))
    return OnlineRunResult(state, tuple(trace), sum(r.skipped for r in trace))
