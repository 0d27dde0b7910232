"""Batch estimation: expected sufficient statistics and update rules.

The three batch rules share one skeleton: compute the dataset-averaged
family posteriors (the E-step), then move every CPT row.

* ``em_eta_step``: convex combination of the current row and the ratio of
  expected counts; eta = 1 is the classical EM M-step, eta > 1
  extrapolates beyond it.
* ``eg_eta_step``: multiplicative update with an exponentiated gradient
  factor and row renormalization.
* ``gp_step``: additive update of the projected likelihood gradient
  (the gradient minus its row mean, so row sums are preserved).

Rows whose expected parent mass falls below ROW_MASS_FLOOR are frozen for
the iteration: their update would divide by (nearly) zero and the data
carries no information about them.  After every rule the rows are clamped
to the probability floor and renormalized, which keeps eta > 1 steps on
the simplex.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .inference import (
    batch_family_posteriors,
    log_likelihood_cases,
    parent_config_marginals,
)
from .model import (
    PROB_FLOOR,
    Network,
    NetworkStructure,
    NumericalError,
    ParameterVector,
    ValidationError,
    ZeroProbabilityError,
    clamp_rows,
    param_delta_stats,
    random_init,
    uniform_init,
)
from .netio import DataSet

# Rows with expected parent mass at or below this are skipped by a step.
ROW_MASS_FLOOR = 1e-12

# Exponent clip for the exponentiated-gradient rule; keeps arithmetic
# finite when a table entry sits at the probability floor without
# changing which entry a row favors.
EXP_CLIP = 500.0

# Cases per vectorized E-step block; block boundaries are fixed so the
# reduction order (and hence the result) is run-to-run identical.
E_STEP_CHUNK = 1024


@dataclass(frozen=True)
class SufficientStats:
    """Expected counts: joint[i][j, k] = mean_l P(X_i=k, Pa_i=j | y_l).

    ``parent`` holds the per-row marginals.  ``from_joint`` derives them
    by summation, which is the only construction used by the estimators;
    building an instance with a custom ``parent`` is allowed for rule
    variants that estimate the row mass differently.
    """

    joint: tuple[np.ndarray, ...]
    parent: tuple[np.ndarray, ...]

    @classmethod
    def from_joint(cls, joint: list[np.ndarray]) -> "SufficientStats":
        return cls(tuple(joint), tuple(j.sum(axis=1) for j in joint))


def expected_stats(network: Network, dataset: DataSet) -> SufficientStats:
    stats, _ = expected_stats_with_ll(network, dataset)
    return stats


def _e_step_blocks(
    network: Network, dataset: DataSet
) -> Iterator[tuple[int, list[np.ndarray], np.ndarray]]:
    """Yield (start, family posteriors, log-likelihoods) per E_STEP_CHUNK block.

    `start` is the block's first row in `dataset`; the rest is what
    `_block_posteriors` gives for that block.
    """
    n = len(dataset)
    if n == 0:
        raise ValidationError("cannot compute expected statistics of an empty dataset")
    for start in range(0, n, E_STEP_CHUNK):
        yield (start, *_block_posteriors(network, dataset, start))


def _block_posteriors(
    network: Network, dataset: DataSet, start: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """`batch_family_posteriors` of the E_STEP_CHUNK-row block from `start`.

    A zero-probability case is reported by its row in `dataset`.
    """
    try:
        return batch_family_posteriors(network, dataset.values[start : start + E_STEP_CHUNK])
    except ZeroProbabilityError as e:
        raise _zero_probability(start + (e.case_index or 0)) from None


def _zero_probability(row: int) -> ZeroProbabilityError:
    return ZeroProbabilityError(
        f"case {row} has probability 0 under the current parameters", case_index=row
    )


def expected_stats_with_ll(network: Network, dataset: DataSet) -> tuple[SufficientStats, float]:
    """E-step plus the mean train log-likelihood from the same pass."""
    s = network.structure
    sums = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    ll_total = 0.0
    for _, posts, lls in _e_step_blocks(network, dataset):
        for i in range(s.n_vars):
            sums[i] += posts[i].sum(axis=0)
        ll_total += float(lls.sum())
    n = len(dataset)
    joint = [a / n for a in sums]
    return SufficientStats.from_joint(joint), ll_total / n


def gradient(stats: SufficientStats, theta: ParameterVector) -> list[np.ndarray]:
    """Entrywise expected count over table entry; no normalization.

    A table entry of exactly zero can only carry an expected count of
    zero (its configurations are unreachable), and the likelihood does
    not depend on it, so 0/0 cells are defined as 0.
    """
    out = []
    for j, t in zip(stats.joint, theta.tables):
        with np.errstate(invalid="ignore", divide="ignore"):
            g = np.where(j > 0.0, j / np.maximum(t, 1e-300), 0.0)
        out.append(g)
    return out


def gp_step(theta: ParameterVector, grad: list[np.ndarray], eta: float) -> ParameterVector:
    """Projected gradient ascent: add the row-mean-free gradient."""
    tables = []
    for t, g in zip(theta.tables, grad):
        step = g - g.mean(axis=1, keepdims=True)
        tables.append(clamp_rows(t + eta * step))
    return ParameterVector(tables, _validate=False)


def _row_rates(eta: float | np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scalar or per-row rate -> column vector over the masked rows."""
    arr = np.broadcast_to(np.asarray(eta, dtype=np.float64), mask.shape)
    return arr[mask][:, None]


def _em_rows(
    rows: np.ndarray,
    joint: np.ndarray,
    parent: np.ndarray,
    eta: float | np.ndarray,
    floor: float | None = PROB_FLOOR,
) -> np.ndarray:
    """The EM(eta) row update, clamped to `floor`.

    ``floor=None`` is the smooth map: no clamp, and every row with
    positive mass moves, not only those above ROW_MASS_FLOOR.
    """
    out = rows.copy()
    mask = parent > (0.0 if floor is None else ROW_MASS_FLOOR)
    if np.any(mask):
        e = _row_rates(eta, mask)
        updated = e * (joint[mask] / parent[mask, None]) + (1.0 - e) * rows[mask]
        out[mask] = updated if floor is None else clamp_rows(updated, floor)
    return out


def em_eta_step(
    theta: ParameterVector,
    stats: SufficientStats,
    eta: float,
    floor: float | None = PROB_FLOOR,
) -> ParameterVector:
    """Move each visited row toward its expected-count ratio by factor eta."""
    tables = [
        _em_rows(t, j, p, eta, floor)
        for t, j, p in zip(theta.tables, stats.joint, stats.parent)
    ]
    return ParameterVector(tables, _validate=False)


def _eg_rows(
    rows: np.ndarray, joint: np.ndarray, parent: np.ndarray, eta: float | np.ndarray
) -> np.ndarray:
    out = rows.copy()
    mask = parent > ROW_MASS_FLOOR
    if np.any(mask):
        e = _row_rates(eta, mask)
        denom = rows[mask] * parent[mask, None]
        # zero-count cells get a zero exponent; see gradient() on 0/0
        with np.errstate(invalid="ignore", divide="ignore"):
            exponent = np.where(
                joint[mask] > 0.0, e * joint[mask] / np.maximum(denom, 1e-300), 0.0
            )
        weights = rows[mask] * np.exp(np.clip(exponent, 0.0, EXP_CLIP))
        out[mask] = clamp_rows(weights / weights.sum(axis=1, keepdims=True))
    return out


def eg_eta_step(theta: ParameterVector, stats: SufficientStats, eta: float) -> ParameterVector:
    """Multiplicative update: entries scaled by an exponentiated gradient."""
    tables = [
        _eg_rows(t, j, p, eta)
        for t, j, p in zip(theta.tables, stats.joint, stats.parent)
    ]
    return ParameterVector(tables, _validate=False)


def is_fixpoint(theta: ParameterVector, stats: SufficientStats, tol: float) -> tuple[bool, float]:
    """Largest gap between a visited row and its expected-count ratio."""
    residual = 0.0
    for t, j, p in zip(theta.tables, stats.joint, stats.parent):
        mask = p > ROW_MASS_FLOOR
        if np.any(mask):
            gap = np.abs(t[mask] - j[mask] / p[mask, None])
            residual = max(residual, float(gap.max()))
    return residual < tol, residual


# -- distances -------------------------------------------------------------


def distance_kl(
    theta_a: ParameterVector,
    theta_b: ParameterVector,
    parent_weights: list[np.ndarray],
) -> float:
    """Row-wise KL divergence, weighted by parent-configuration mass.

    With exact parent marginals of theta_a this equals the KL divergence
    of the two joint distributions the networks induce.
    """
    total = 0.0
    for a, b, w in zip(theta_a.tables, theta_b.tables, parent_weights):
        rows = np.sum(a * np.log(a / b), axis=1)
        total += float(np.dot(w, rows))
    return total


def distance_chi2(
    theta_a: ParameterVector,
    theta_b: ParameterVector,
    parent_weights: list[np.ndarray],
) -> float:
    """Weighted half sum of squared row differences over the reference row."""
    total = 0.0
    for a, b, w in zip(theta_a.tables, theta_b.tables, parent_weights):
        rows = 0.5 * np.sum((a - b) ** 2 / b, axis=1)
        total += float(np.dot(w, rows))
    return total


# Exact P(Pa_i = j) under the network, for use as KL/chi2 weights.
model_parent_marginals = parent_config_marginals


# -- the fit loop ------------------------------------------------------------

RULES = ("em", "eg", "gp")
INITS = ("network", "random", "uniform", "file")


@dataclass(frozen=True)
class FitConfig:
    rule: str = "em"
    eta: float = 1.0
    max_iters: int = 200
    tol_ll: float | None = 1e-6
    tol_param: float | None = None
    init: str = "network"
    seed: int = 0
    init_theta: ParameterVector | None = None
    warm_start_em1: bool = False
    record_thetas: bool = False

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValidationError("eta must be a finite nonnegative number")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be nonnegative")
        if self.tol_ll is None and self.tol_param is None:
            raise ValidationError("at most one stopping tolerance may be disabled")
        for name in ("tol_ll", "tol_param"):
            tol = getattr(self, name)
            if tol is not None and not math.isfinite(tol):
                raise ValidationError(f"{name} must be finite")
        if self.init not in INITS:
            raise ValidationError(f"unknown init {self.init!r}; expected one of {INITS}")
        if self.init == "file" and self.init_theta is None:
            raise ValidationError("init='file' requires init_theta")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    train_ll: float
    test_ll: float | None
    max_param_delta: float
    l2_step: float
    wall_ms: float


@dataclass(frozen=True)
class FitResult:
    theta: ParameterVector
    trace: tuple[TraceRecord, ...]
    termination: str
    thetas: tuple[ParameterVector, ...] | None = None

    @property
    def iterations(self) -> int:
        return self.trace[-1].iteration


def initial_theta(
    structure: NetworkStructure,
    init: str,
    seed: int = 0,
    theta: ParameterVector | None = None,
) -> ParameterVector:
    """The starting point `init` names: a random or uniform draw, or `theta`."""
    if init == "random":
        return random_init(structure, seed)
    if init == "uniform":
        return uniform_init(structure)
    assert theta is not None
    theta.check_shapes(structure)
    return theta


def _apply_rule(theta: ParameterVector, stats: SufficientStats, rule: str, eta: float) -> ParameterVector:
    if eta == 0.0:
        return theta
    if rule == "em":
        return em_eta_step(theta, stats, eta)
    if rule == "eg":
        return eg_eta_step(theta, stats, eta)
    return gp_step(theta, gradient(stats, theta), eta)


def _mean_test_ll(network: Network, test: DataSet | None) -> float | None:
    if test is None or len(test) == 0:
        return None
    return float(np.mean(log_likelihood_cases(network, test.values)))


def fit(
    network: Network,
    dataset: DataSet,
    config: FitConfig,
    test: DataSet | None = None,
) -> FitResult:
    """Iterate E-step + configured update rule until a stopping rule fires.

    Trace row 0 records the initial point; row s records the state after
    s updates.  ``warm_start_em1`` makes the first update a plain EM(1)
    step before switching to the configured rule, mirroring the usual
    protocol for eta > 1 runs.  An update that leaves a non-finite table
    entry (a diverging step under a very large eta) raises NumericalError
    naming the iteration, the rule and eta.
    """
    given = network.theta if config.init == "network" else config.init_theta
    theta = initial_theta(network.structure, config.init, config.seed, given)
    net = network.with_theta(theta)
    t_prev = time.perf_counter()

    def wall() -> float:
        nonlocal t_prev
        now = time.perf_counter()
        ms = (now - t_prev) * 1000.0
        t_prev = now
        return ms

    def context(err: ZeroProbabilityError, iteration: int) -> ZeroProbabilityError:
        return ZeroProbabilityError(f"iteration {iteration}: {err}", case_index=err.case_index)

    try:
        stats, train_ll = expected_stats_with_ll(net, dataset)
    except ZeroProbabilityError as e:
        raise context(e, 0) from None
    trace = [TraceRecord(0, train_ll, _mean_test_ll(net, test), 0.0, 0.0, wall())]
    thetas = [theta] if config.record_thetas else None

    termination = "max_iters"
    for s in range(1, config.max_iters + 1):
        if config.warm_start_em1 and s == 1:
            rule, eta = "em", 1.0
        else:
            rule, eta = config.rule, config.eta
        # a diverging update overflows; the check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            new_theta = _apply_rule(theta, stats, rule, eta)
        if not all(np.isfinite(t).all() for t in new_theta.tables):
            raise NumericalError(
                f"iteration {s}: the {rule} update with eta={eta!r} "
                "gave non-finite parameters"
            )
        net = network.with_theta(new_theta)
        try:
            stats, new_train_ll = expected_stats_with_ll(net, dataset)
        except ZeroProbabilityError as e:
            raise context(e, s) from None
        max_delta, l2_step = param_delta_stats(new_theta, theta)
        trace.append(
            TraceRecord(s, new_train_ll, _mean_test_ll(net, test), max_delta, l2_step, wall())
        )
        if thetas is not None:
            thetas.append(new_theta)
        theta = new_theta
        if config.tol_ll is not None and abs(new_train_ll - train_ll) < config.tol_ll:
            termination = "tol_ll"
            train_ll = new_train_ll
            break
        train_ll = new_train_ll
        if config.tol_param is not None and max_delta < config.tol_param:
            termination = "tol_param"
            break

    return FitResult(
        theta=theta,
        trace=tuple(trace),
        termination=termination,
        thetas=tuple(thetas) if thetas is not None else None,
    )
