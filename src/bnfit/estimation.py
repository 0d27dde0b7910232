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

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .inference import batch_family_posteriors, log_likelihood_cases
from .model import (
    PROB_FLOOR,
    Network,
    NumericalError,
    ParameterVector,
    ValidationError,
    ZeroProbabilityError,
    check_number,
    check_same_structure,
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
# reduction order (and hence the result) is run-to-run identical.  Also a
# spectral probe pass's column budget: P probes take at most
# E_STEP_CHUNK // P cases per pass, so its factors are no larger than an
# E-step block's.
E_STEP_CHUNK = 1024

# A learning rate: one for every row, or per table an array of row rates.
_Eta = float | Sequence[np.ndarray]


@dataclass(frozen=True)
class SufficientStats:
    """Expected counts: joint[i][j, k] = mean_l P(X_i=k, Pa_i=j | y_l).

    ``parent`` holds the row masses the updates divide by: the sums over k
    (``from_joint``) in a batch step, or a schedule's estimate online.
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
    network: Network, dataset: DataSet, summed: bool = False
) -> Iterator[tuple[int, list[np.ndarray], np.ndarray]]:
    """Yield (start, family posteriors, log-likelihoods) per E_STEP_CHUNK block.

    `start` is the block's first row in `dataset`; the rest is what
    `_block_posteriors` gives for that block.
    """
    check_same_structure(dataset.structure, network.structure, "the data", "the network")
    n = len(dataset)
    if n == 0:
        raise ValidationError("cannot compute expected statistics of an empty dataset")
    for start in range(0, n, E_STEP_CHUNK):
        yield (start, *_block_posteriors(network, dataset, start, summed))


def _block_posteriors(
    network: Network, dataset: DataSet, start: int, summed: bool = False
) -> tuple[list[np.ndarray], np.ndarray]:
    """`batch_family_posteriors` of the E_STEP_CHUNK-row block from `start`.

    A zero-probability case is reported by its row in `dataset`.
    """
    block = dataset.values[start : start + E_STEP_CHUNK]
    try:
        return batch_family_posteriors(network, block, summed=summed)
    except ZeroProbabilityError as e:
        raise ZeroProbabilityError.of_row(start + (e.case_index or 0)) from None


def expected_stats_with_ll(network: Network, dataset: DataSet) -> tuple[SufficientStats, float]:
    """E-step plus the mean train log-likelihood from the same pass."""
    s = network.structure
    sums = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    ll_total = 0.0
    for _, counts, lls in _e_step_blocks(network, dataset, summed=True):
        for a, c in zip(sums, counts):
            a += c
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


def _gp_rows(rows: np.ndarray, grad: np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """Projected gradient step on a block of rows: add the row-mean-free gradient."""
    step = grad - grad.mean(axis=1, keepdims=True)
    return clamp_rows(rows + np.reshape(eta, (-1, 1)) * step)


def gp_step(theta: ParameterVector, grad: list[np.ndarray], eta: _Eta) -> ParameterVector:
    """Projected gradient ascent: add the row-mean-free gradient."""
    return ParameterVector(_by_arity(_gp_rows, theta.tables, (grad,), eta), _validate=False)


def _by_arity(
    kernel: Callable[..., np.ndarray],
    tables: Sequence[np.ndarray],
    columns: tuple[Sequence[np.ndarray], ...],
    eta: _Eta,
    **kwargs,
) -> list[np.ndarray]:
    """Apply a row kernel once per group of tables with equal row length.

    A group's tables are stacked row-wise, and so are their entries of
    each sequence in `columns` (per-table arrays with one entry per table
    row) and, when `eta` is a per-table sequence of row rates, their
    rates; a scalar `eta` goes to every row.  ``kernel(rows, *columns,
    eta, **kwargs)`` updates each row on its own, so the stacked result,
    split back per table, is the per-table result.
    """
    groups: dict[int, list[int]] = {}
    for i, t in enumerate(tables):
        groups.setdefault(t.shape[1], []).append(i)
    if isinstance(eta, (list, tuple)):
        columns = columns + (eta,)
    else:
        kwargs["eta"] = eta
    out: list[np.ndarray] = [np.empty(0)] * len(tables)
    for ids in groups.values():
        stacked = [
            seq[ids[0]] if len(ids) == 1 else np.concatenate([seq[i] for i in ids])
            for seq in (tables, *columns)
        ]
        rows = kernel(*stacked, **kwargs)
        start = 0
        for i in ids:
            stop = start + tables[i].shape[0]
            out[i] = rows[start:stop]
            start = stop
    return out


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
    eta: _Eta,
    floor: float | None = PROB_FLOOR,
) -> ParameterVector:
    """Move each visited row toward its expected-count ratio by factor eta."""
    tables = _by_arity(_em_rows, theta.tables, (stats.joint, stats.parent), eta, floor=floor)
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


def eg_eta_step(theta: ParameterVector, stats: SufficientStats, eta: _Eta) -> ParameterVector:
    """Multiplicative update: entries scaled by an exponentiated gradient."""
    tables = _by_arity(_eg_rows, theta.tables, (stats.joint, stats.parent), eta)
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

    With the exact parent marginals of theta_a
    (`inference.parent_config_marginals`) this equals the KL divergence
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


# -- the fit loop ------------------------------------------------------------

RULES = ("em", "eg", "gp")
INITS = ("network", "random", "uniform")


@dataclass(frozen=True)
class FitConfig:
    rule: str = "em"
    eta: float = 1.0
    max_iters: int = 200
    tol_ll: float | None = 1e-6
    tol_param: float | None = None
    init: str = "network"
    seed: int = 0
    warm_start_em1: bool = False
    record_thetas: bool = False

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValidationError(f"unknown rule {self.rule!r}; expected one of {RULES}")
        check_number(self.eta, "eta", low=0)
        check_number(self.max_iters, "max_iters", integer=True, low=0)
        if self.tol_ll is None and self.tol_param is None:
            raise ValidationError("at most one stopping tolerance may be disabled")
        for name in ("tol_ll", "tol_param"):
            if getattr(self, name) is not None:
                check_number(getattr(self, name), name, low=0)
        check_number(self.seed, "seed", integer=True, low=0)
        if self.init not in INITS:
            raise ValidationError(f"unknown init {self.init!r}; expected one of {INITS}")


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


def _apply_rule(
    theta: ParameterVector,
    stats: SufficientStats,
    rule: str,
    eta: _Eta,
    floor: float | None = PROB_FLOOR,
) -> ParameterVector:
    """The one place a rule name becomes an update, batch and online; `floor` reaches only EM."""
    if eta == 0.0:
        return theta
    if rule == "em":
        return em_eta_step(theta, stats, eta, floor)
    if rule == "eg":
        return eg_eta_step(theta, stats, eta)
    return gp_step(theta, gradient(stats, theta), eta)


def _mean_test_ll(network: Network, test: DataSet | None) -> float | None:
    """Mean log-likelihood of the test set; an impossible case is named
    by its row in the test set."""
    if test is None or len(test) == 0:
        return None
    check_same_structure(test.structure, network.structure, "the test set", "the network")
    try:
        return float(np.mean(log_likelihood_cases(network, test.values)))
    except ZeroProbabilityError as e:
        raise ZeroProbabilityError.of_row(e.case_index or 0, "test set") from None


def fit(
    network: Network,
    dataset: DataSet,
    config: FitConfig,
    test: DataSet | None = None,
) -> FitResult:
    """Iterate E-step + configured update rule until a stopping rule fires.

    The start point is ``network.theta`` (init "network") or a random or
    uniform draw.  Trace row 0 records the initial point; row s records
    the state after s updates.  ``warm_start_em1`` makes the first update
    a plain EM(1) step before switching to the configured rule, mirroring
    the usual protocol for eta > 1 runs.  An update that leaves a
    non-finite table entry (a diverging step under a very large eta)
    raises NumericalError naming the iteration, the rule and eta.
    """
    if config.init == "random":
        theta = random_init(network.structure, config.seed)
    elif config.init == "uniform":
        theta = uniform_init(network.structure)
    else:
        theta = network.theta
    trace: list[TraceRecord] = []
    thetas = [] if config.record_thetas else None
    termination = "max_iters"
    t_prev = time.perf_counter()
    for s in range(config.max_iters + 1):
        max_delta = l2_step = 0.0
        if s > 0:
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
            max_delta, l2_step = param_delta_stats(new_theta, theta)
            theta = new_theta
        net = network.with_theta(theta)
        try:
            stats, train_ll = expected_stats_with_ll(net, dataset)
            test_ll = _mean_test_ll(net, test)
        except ZeroProbabilityError as e:
            raise ZeroProbabilityError(f"iteration {s}: {e}", case_index=e.case_index) from None
        now = time.perf_counter()
        wall_ms, t_prev = (now - t_prev) * 1000.0, now
        trace.append(TraceRecord(s, train_ll, test_ll, max_delta, l2_step, wall_ms))
        if thetas is not None:
            thetas.append(theta)
        if s == 0:
            continue
        if config.tol_ll is not None and abs(train_ll - trace[-2].train_ll) < config.tol_ll:
            termination = "tol_ll"
            break
        if config.tol_param is not None and max_delta < config.tol_param:
            termination = "tol_param"
            break

    return FitResult(
        theta=theta,
        trace=tuple(trace),
        termination=termination,
        thetas=tuple(thetas) if thetas is not None else None,
    )
