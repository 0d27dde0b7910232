"""Local convergence analysis of the EM(eta) operator.

Near a maximum-likelihood fixpoint the EM(eta) map is approximately
linear, and its linearization is I - eta * M for a matrix M whose
eigenvalues lie in [0, 1].  The per-iteration contraction factor is then

    rho(eta) = max(|1 - eta * lambda_min|, |1 - eta * lambda_max|)

over the nonzero eigenvalues, which is minimized at

    eta_star = 2 / (lambda_min + lambda_max) >= 1.

This module computes M at eta = 1 on a simplex chart (per row of r
states, r - 1 free coordinates, the last entry absorbing the step so
probes stay on the simplex).  Eigenvalues below a cutoff are treated as
a rank-deficient subspace and excluded, mirroring the restriction to the
span of the per-case posterior vectors; the report flags when that
happens.

Each coordinate's column of M is exact and costs one E-step.
P(y; theta) is multilinear in the CPT entries: every term of the sum
over completions holds exactly one entry of each table.  A probe moves
entries of one table only, so each case's probability, and each
unnormalized family joint P(x_f, pa_f, y) = theta_f * dP/dtheta_f, is
affine in the step delta (dP/dtheta_f contains no entry of table f).
The base pass, shared by all coordinates, and one pass at +h fix both
lines, and so the exact derivative of every family posterior.

The theory's contraction factor is stated in a reweighted norm; the
empirical rate reported here is measured in the plain L2 norm, so
predicted-versus-measured comparisons are approximate by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimation import (
    SufficientStats,
    _block_posteriors,
    _e_step_blocks,
    _zero_probability,
    em_eta_step,
    expected_stats,
    is_fixpoint,
)
from .model import (
    PROB_FLOOR, Network, NumericalError, ParameterVector, ValidationError, param_delta_stats
)
from .netio import DataSet

# Dense eigendecomposition only: refuse larger free-coordinate charts.
MAX_JACOBIAN_DIM = 2000

# Fixpoint residual the analysis point must satisfy.
FIXPOINT_TOL = 1e-6

# Eigenvalues below this are treated as numerically zero.
EIGEN_CUTOFF = 1e-8

FD_STEP = 1e-5

# The exact derivative and the forward-difference quotient at the probe
# step h must agree this closely: the quotient's error is O(h), so at a
# small h a larger gap means the derivative is wrong.
FD_AGREEMENT = 1e-3


class NotAFixpointError(NumericalError):
    """The analysis point does not satisfy the fixpoint equation."""


@dataclass(frozen=True)
class RhoEntry:
    eta: float
    predicted: float
    empirical: float | None = None


@dataclass(frozen=True)
class SpectralReport:
    lambda_min: float
    lambda_max: float
    eta_star: float
    rho: tuple[RhoEntry, ...]
    rank_deficient: bool
    theta_residual: float


def phi_apply(
    network: Network, dataset: DataSet, eta: float, clamp: bool = True
) -> ParameterVector:
    """One EM(eta) pass: expected statistics, then the EM row update.

    ``clamp=False`` skips the floor-and-renormalize, and moves every row
    with positive mass, so finite-difference probes see the smooth map;
    probe steps are small enough to stay interior on their own.
    """
    stats = expected_stats(network, dataset)
    return em_eta_step(network.theta, stats, eta, PROB_FLOOR if clamp else None)


def _free_coords(network: Network) -> list[tuple[int, int, int]]:
    coords = []
    s = network.structure
    for i in range(s.n_vars):
        q, r = s.table_shape(i)
        for j in range(q):
            for k in range(r - 1):
                coords.append((i, j, k))
    return coords


def _to_free(theta: ParameterVector, coords: list[tuple[int, int, int]]) -> np.ndarray:
    return np.array([theta.tables[i][j, k] for (i, j, k) in coords])


def _probe(theta: ParameterVector, i: int, j: int, k: int, delta: float) -> ParameterVector:
    """Shift one free coordinate, balancing the row's last entry."""
    tables = [t.copy() for t in theta.tables]
    tables[i][j, k] += delta
    tables[i][j, -1] -= delta
    return ParameterVector(tables, _validate=False)


def jacobian(network: Network, dataset: DataSet, h: float = FD_STEP) -> np.ndarray:
    """M = I - grad(Phi) at eta = 1 on the free-coordinate chart, exactly.

    Each coordinate takes one inference pass, at a step of +h, besides the
    base pass all coordinates share.  A probe moves entries of one table
    only, and P(y) is multilinear in the tables, so a case's probability
    and its unnormalized family joints are affine in the step: with
    s = delta / h and rho = P(y; +h) / P(y), the family posterior at
    delta is exactly

        (p0 + s * (rho * p1 - p0)) / (1 + s * (rho - 1)),

    where p0 and p1 are the posteriors at the base point and at +h.  Its
    slope at delta = 0 is rho * (p1 - p0) / h, so the case mean of that
    slope is the derivative of the expected statistics, with no
    truncation error; the quotient rule on joint / parent mass gives the
    derivative of the EM(1) map.  A row with zero parent mass keeps its
    (probed) entries, so its derivative is the identity on the probed
    coordinate.

    The result does not depend on h beyond rounding, but h must stay
    small: as a guard against a wrong slope, the result must agree with
    the forward-difference quotient (Phi(+h) - Phi) / h, whose error is
    O(h), to FD_AGREEMENT entrywise.  A step of +h or -h that would make
    some case's probability nonpositive raises ZeroProbabilityError
    naming its row, as evaluating it directly would.
    """
    return _jacobian(network, dataset, h)[0]


def _case_last(post: np.ndarray) -> np.ndarray:
    """(N, q, r) family posteriors as a (q * r, N) matrix, a view if it can be."""
    return np.moveaxis(post, 0, -1).reshape(-1, post.shape[0])


def _jacobian(network: Network, dataset: DataSet, h: float) -> tuple[np.ndarray, float]:
    """`jacobian`, and the fixpoint residual read from its base pass.

    Cases are taken one E_STEP_CHUNK block at a time, and within a block
    one coordinate at a time, so only the block's base posteriors and one
    probe's are held.  All families' entries are laid out side by side in
    one axis of Q = sum_i q_i * r_i; per coordinate the case sums of the
    slope and of the posteriors at +h accumulate as (m, Q) arrays.
    """
    coords = _free_coords(network)
    m = len(coords)
    if m > MAX_JACOBIAN_DIM:
        raise ValidationError(
            f"free-coordinate dimension {m} exceeds {MAX_JACOBIAN_DIM}"
        )
    theta = network.theta
    n = len(dataset)
    base_sums = [np.zeros(t.shape) for t in theta.tables]
    n_entries = sum(t.size for t in theta.tables)
    slope_sums = np.zeros((m, n_entries))
    moved_sums = np.zeros((m, n_entries))
    for start, base, lls in _e_step_blocks(network, dataset):
        for f, p in enumerate(base):
            base_sums[f] += p.sum(axis=0)
        # The base statistics are complete once the last block's base pass
        # is in: a one-block dataset off the fixpoint runs no probe.
        if start + len(lls) == n:
            stats = SufficientStats.from_joint([a / n for a in base_sums])
            ok, residual = is_fixpoint(theta, stats, FIXPOINT_TOL)
            if not ok:
                raise NotAFixpointError(
                    f"analysis point has fixpoint residual {residual:.3g} > {FIXPOINT_TOL}"
                )
        base = [_case_last(p) for p in base]
        for c, (i, j, k) in enumerate(coords):
            probe = network.with_theta(_probe(theta, i, j, k, h))
            moved, moved_lls = _block_posteriors(probe, dataset, start)
            rho = np.exp(moved_lls - lls)
            # P(y; theta - h) / P(y; theta) = 2 - rho; the pass at +h has
            # already refused a case with P(y; theta + h) = rho * P(y) <= 0.
            bad = np.flatnonzero(~(rho < 2.0))
            if bad.size:
                raise _zero_probability(start + int(bad[0]))
            moved = [_case_last(p) for p in moved]
            slope_sums[c] += np.concatenate([(p1 - p0) @ rho for p0, p1 in zip(base, moved)])
            moved_sums[c] += np.concatenate([p1.sum(axis=1) for p1 in moved])
            # free this probe's posteriors before the next probe's pass
            del moved

    grad, forward, frozen = [], [], []
    offset = 0
    for t, joint in zip(theta.tables, base_sums):
        q, r = t.shape
        block = slice(offset, offset + q * r)
        offset += q * r
        joint = joint / n
        parent = joint.sum(axis=1)
        # the rows phi_apply(clamp=False) moves; the others keep the probe
        mask = parent > 0.0
        frozen.append(np.repeat(~mask, r - 1))
        ratio = joint[mask] / parent[mask, None]
        slope = slope_sums[:, block].reshape(m, q, r)[:, mask] / (n * h)
        at_h = moved_sums[:, block].reshape(m, q, r)[:, mask]
        d_phi = np.zeros((m, q, r))
        d_fwd = np.zeros((m, q, r))
        # quotient rule on joint / parent, and (Phi(+h) - Phi) / h
        d_phi[:, mask] = (slope - ratio * slope.sum(axis=2, keepdims=True)) / parent[mask, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            d_fwd[:, mask] = (at_h / at_h.sum(axis=2, keepdims=True) - ratio) / h
        grad.append(d_phi[:, :, :-1].reshape(m, -1))
        forward.append(d_fwd[:, :, :-1].reshape(m, -1))
    # column c is the derivative along coordinate c
    grad = np.concatenate(grad, axis=1).T
    disagreement = float(np.max(np.abs(grad - np.concatenate(forward, axis=1).T)))
    if not disagreement <= FD_AGREEMENT:
        raise NumericalError(
            f"exact and forward-difference derivatives disagree by {disagreement:.3g}"
        )
    frozen = np.flatnonzero(np.concatenate(frozen))
    grad[frozen, frozen] = 1.0
    return np.eye(m) - grad, residual


def eigen_range(m_matrix: np.ndarray, cutoff: float = EIGEN_CUTOFF) -> tuple[float, float, bool]:
    """(smallest eigenvalue above cutoff, largest eigenvalue, any below cutoff).

    The matrix is similar to a symmetric positive-semidefinite one, so
    eigenvalues are real up to numerical noise; real parts are used.
    """
    try:
        eigs = np.linalg.eigvals(m_matrix).real
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue solve failed: {e}") from None
    above = eigs[eigs > cutoff]
    if above.size == 0:
        raise NumericalError("all eigenvalues fall below the cutoff")
    return float(above.min()), float(eigs.max()), bool(np.any(eigs < cutoff))


def eta_star(lambda_min: float, lambda_max: float) -> float:
    """The rate equalizing the two contraction factors: 2/(lmin + lmax)."""
    if not (0.0 < lambda_min <= lambda_max):
        raise ValidationError("need 0 < lambda_min <= lambda_max")
    return 2.0 / (lambda_min + lambda_max)


def contraction_rate(eta: float, lambda_min: float, lambda_max: float) -> float:
    """Per-iteration shrink factor of the linearized EM(eta) map."""
    if not eta > 0:
        raise ValidationError("eta must be positive")
    if not (0.0 < lambda_min <= lambda_max):
        raise ValidationError("need 0 < lambda_min <= lambda_max")
    return max(abs(1.0 - eta * lambda_min), abs(1.0 - eta * lambda_max))


NEAR_FIXPOINT = 0.05
DISTANCE_FLOOR = 1e-13


def empirical_rate(thetas: list[ParameterVector], theta_star: ParameterVector) -> float:
    """Geometric-mean shrink ratio of L2 distances to the fixpoint.

    Uses the trailing run of iterates that are near the fixpoint (below
    NEAR_FIXPOINT) but still above the numerical noise floor.
    """
    dists = [param_delta_stats(th, theta_star)[1] for th in thetas]
    window: list[float] = []
    for d in reversed(dists):
        if DISTANCE_FLOOR < d < NEAR_FIXPOINT:
            window.append(d)
        else:
            break
    window.reverse()
    if len(window) < 4:
        raise NumericalError(
            "need at least 4 iterates near the fixpoint and above the noise floor"
        )
    return float((window[-1] / window[0]) ** (1.0 / (len(window) - 1)))


def build_report(
    network: Network,
    dataset: DataSet,
    etas: list[float],
    empirical: dict[float, float] | None = None,
) -> SpectralReport:
    """Jacobian, eigenvalue range, eta_star, and a rho table for the etas."""
    m_matrix, residual = _jacobian(network, dataset, FD_STEP)
    lmin, lmax, deficient = eigen_range(m_matrix)
    entries = []
    for eta in etas:
        emp = None if empirical is None else empirical.get(eta)
        entries.append(RhoEntry(eta, contraction_rate(eta, lmin, lmax), emp))
    return SpectralReport(
        lambda_min=lmin,
        lambda_max=lmax,
        eta_star=eta_star(lmin, lmax),
        rho=tuple(entries),
        rank_deficient=deficient,
        theta_residual=residual,
    )


def report_to_json(report: SpectralReport) -> str:
    rho = []
    for e in report.rho:
        entry: dict = {"eta": e.eta, "predicted": e.predicted}
        if e.empirical is not None:
            entry["empirical"] = e.empirical
        rho.append(entry)
    doc = {
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "eta_star": report.eta_star,
        "rank_deficient": report.rank_deficient,
        "theta_residual": report.theta_residual,
        "rho": rho,
    }
    return json.dumps(doc, indent=2) + "\n"
