"""One-sample update rules with pluggable learning-rate schedules.

The learner keeps a current network, consumes one case at a time, and
moves its parameters after each case.  Three rules mirror the batch
module; the expected counts are replaced by the single case's family
posteriors.

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

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .estimation import ROW_MASS_FLOOR, _eg_rows, _em_rows
# parent_config_marginals is not called here; it stays bound in this
# module because perfbench/tracing.py wraps it by this name.
from .inference import batch_family_posteriors, parent_config_marginals  # noqa: F401
from .model import (
    PROB_FLOOR,
    Network,
    ParameterVector,
    ValidationError,
    ZeroProbabilityError,
    clamp_rows,
    param_delta_stats,
)
from .netio import MISSING, DataCase, DataSet

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
        if self.kind == "fixed" and not (0.0 < self.eta <= ETA_MAX):
            raise ValidationError(f"fixed rate must be in (0, {ETA_MAX}]")
        if self.kind == "inverse_t":
            if not (math.isfinite(self.c) and self.c > 0):
                raise ValidationError("inverse_t needs a finite c > 0")
            if not (math.isfinite(self.t0) and self.t0 >= 0):
                raise ValidationError("inverse_t needs a finite t0 >= 0")

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

    def row_rates(self, t: int, visit_mass: np.ndarray) -> np.ndarray:
        if self.kind == "fixed":
            return np.full(visit_mass.shape, self.eta)
        if self.kind == "inverse_t":
            denom = t + self.t0
            rate = ETA_MAX if denom <= 0 else min(self.c / denom, ETA_MAX)
            return np.full(visit_mass.shape, rate)
        return 1.0 / (visit_mass + 1.0)


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
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """The case's family posteriors, a parent mass per family, and log P(case).

    The mass is P(Pa_i = j | case), or with `prior_mass` the prior
    P(Pa_i = j): an all-missing row then joins the case in the same
    inference pass, and its family posteriors summed over the child's
    states are the prior parent marginals.
    """
    rows = case.states[None, :]
    if prior_mass:
        rows = np.vstack([rows, np.full_like(rows, MISSING)])
    posts, lls = batch_family_posteriors(state.network, rows)
    return [p[0] for p in posts], [p[-1].sum(axis=1) for p in posts], float(lls[0])


def _advance(
    state: OnlineState,
    theta: ParameterVector,
    posts: list[np.ndarray],
    case_ll: float,
) -> OnlineState:
    masses = tuple(
        m + p.sum(axis=1) for m, p in zip(state.visit_mass, posts)
    )
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
    posts, mass, case_ll = _case_posteriors(state, case, not schedule.conditioned_mass)
    floor = RUNNING_AVG_FLOOR if schedule.conditioned_mass else PROB_FLOOR
    tables = []
    for i, t in enumerate(state.theta.tables):
        rates = schedule.row_rates(state.t, state.visit_mass[i])
        tables.append(_em_rows(t, posts[i], mass[i], rates, floor=floor))
    return _advance(state, ParameterVector(tables, _validate=False), posts, case_ll)


def online_eg_step(
    state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """Single-case EG(eta): exponentiated-gradient reweighting of each row."""
    posts, mass, case_ll = _case_posteriors(state, case, not schedule.conditioned_mass)
    tables = []
    for i, t in enumerate(state.theta.tables):
        rates = schedule.row_rates(state.t, state.visit_mass[i])
        tables.append(_eg_rows(t, posts[i], mass[i], rates))
    return _advance(state, ParameterVector(tables, _validate=False), posts, case_ll)


def online_gp_step(
    state: OnlineState, case: DataCase, schedule: LearningRateSchedule
) -> OnlineState:
    """Projected step along the instantaneous likelihood gradient.

    The gradient of log P(y) is the case posterior over the table entry;
    rows the case does not touch have a zero gradient and stay put.
    """
    posts, _, case_ll = _case_posteriors(state, case)
    tables = []
    for i, t in enumerate(state.theta.tables):
        rates = schedule.row_rates(state.t, state.visit_mass[i])
        with np.errstate(invalid="ignore", divide="ignore"):
            grad = np.where(posts[i] > 0.0, posts[i] / np.maximum(t, 1e-300), 0.0)
        step = grad - grad.mean(axis=1, keepdims=True)
        tables.append(clamp_rows(t + rates[:, None] * step))
    return _advance(state, ParameterVector(tables, _validate=False), posts, case_ll)


_STEPS = {"em": online_em_step, "eg": online_eg_step, "gp": online_gp_step}


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
    """
    if rule not in _STEPS:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {tuple(_STEPS)}")
    step = _STEPS[rule]
    stream: Iterable[DataCase]
    if isinstance(cases, DataSet):
        stream = cases.cases()
    else:
        stream = cases
    state = init_online_state(network)
    trace: list[OnlineTraceRecord] = []
    n_skipped = 0
    for case in stream:
        t_before = state.t
        theta_before = state.theta
        try:
            state = step(state, case, schedule)
        except ZeroProbabilityError:
            n_skipped += 1
            trace.append(OnlineTraceRecord(t_before, None, 0.0, True))
            state = replace(state, t=state.t + 1, last_case_ll=None)
            continue
        _, step_l2 = param_delta_stats(state.theta, theta_before)
        trace.append(OnlineTraceRecord(t_before, state.last_case_ll, step_l2, False))
    return OnlineRunResult(state, tuple(trace), n_skipped)
