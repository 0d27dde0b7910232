"""Local convergence analysis of the EM(eta) operator.

Near a maximum-likelihood fixpoint the EM(eta) map is approximately
linear, and its linearization is I - eta * M for a matrix M whose
eigenvalues lie in [0, 1].  The per-iteration contraction factor is then

    rho(eta) = max(|1 - eta * lambda_min|, |1 - eta * lambda_max|)

over the nonzero eigenvalues, which is minimized at

    eta_star = 2 / (lambda_min + lambda_max) >= 1.

This module estimates M numerically: central finite differences of the
EM(1) operator on a simplex chart (per row of r states, r - 1 free
coordinates, the last entry absorbing the step so probes stay on the
simplex).  Eigenvalues below a cutoff are treated as a rank-deficient
subspace and excluded, mirroring the restriction to the span of the
per-case posterior vectors; the report flags when that happens.

The theory's contraction factor is stated in a reweighted norm; the
empirical rate reported here is measured in the plain L2 norm, so
predicted-versus-measured comparisons are approximate by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .estimation import SufficientStats, _em_rows, expected_stats, is_fixpoint
from .model import Network, NumericalError, ParameterVector, ValidationError, param_delta_stats
from .netio import DataSet

# Dense eigendecomposition only: refuse larger free-coordinate charts.
MAX_JACOBIAN_DIM = 2000

# Fixpoint residual the analysis point must satisfy.
FIXPOINT_TOL = 1e-6

# Eigenvalues below this are treated as numerically zero.
EIGEN_CUTOFF = 1e-8

FD_STEP = 1e-5

# The h and h/2 difference quotients must agree this closely.
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

    ``clamp=False`` skips the floor-and-renormalize so finite-difference
    probes see the smooth map; probe steps are small enough to stay
    interior on their own.
    """
    stats = expected_stats(network, dataset)
    return _phi_from_stats(network.theta, stats, eta, clamp)


def _phi_from_stats(
    theta: ParameterVector, stats: SufficientStats, eta: float, clamp: bool
) -> ParameterVector:
    if clamp:
        tables = [
            _em_rows(t, j, p, eta)
            for t, j, p in zip(theta.tables, stats.joint, stats.parent)
        ]
    else:
        tables = []
        for t, j, p in zip(theta.tables, stats.joint, stats.parent):
            out = t.copy()
            mask = p > 0.0
            if np.any(mask):
                ratio = j[mask] / p[mask, None]
                out[mask] = eta * ratio + (1.0 - eta) * t[mask]
            tables.append(out)
    return ParameterVector(tables, _validate=False)


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
    """Estimate M = I - grad(Phi) at eta = 1 on the free-coordinate chart.

    Central differences at steps h and h/2; the two estimates are
    Richardson-combined and must agree to FD_AGREEMENT entrywise.
    """
    coords = _free_coords(network)
    m = len(coords)
    if m > MAX_JACOBIAN_DIM:
        raise ValidationError(
            f"free-coordinate dimension {m} exceeds {MAX_JACOBIAN_DIM}"
        )
    stats = expected_stats(network, dataset)
    ok, residual = is_fixpoint(network.theta, stats, FIXPOINT_TOL)
    if not ok:
        raise NotAFixpointError(
            f"analysis point has fixpoint residual {residual:.3g} > {FIXPOINT_TOL}"
        )

    def grad_phi(step: float) -> np.ndarray:
        cols = np.empty((m, m))
        for c, (i, j, k) in enumerate(coords):
            plus = phi_apply(network.with_theta(_probe(network.theta, i, j, k, step)),
                             dataset, 1.0, clamp=False)
            minus = phi_apply(network.with_theta(_probe(network.theta, i, j, k, -step)),
                              dataset, 1.0, clamp=False)
            cols[:, c] = (_to_free(plus, coords) - _to_free(minus, coords)) / (2.0 * step)
        return cols

    j_h = grad_phi(h)
    j_half = grad_phi(h / 2.0)
    disagreement = float(np.max(np.abs(j_h - j_half)))
    if disagreement > FD_AGREEMENT:
        raise NumericalError(
            f"finite-difference estimates at h and h/2 disagree by {disagreement:.3g}"
        )
    grad = (4.0 * j_half - j_h) / 3.0
    return np.eye(m) - grad


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
    stats = expected_stats(network, dataset)
    _, residual = is_fixpoint(network.theta, stats, FIXPOINT_TOL)
    m_matrix = jacobian(network, dataset)
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
