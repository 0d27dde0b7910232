"""Local convergence analysis of the EM(eta) operator.

Near a maximum-likelihood fixpoint the EM(eta) map is approximately
linear, and its linearization is I - eta * M for a matrix M whose
eigenvalues lie in [0, 1].  The per-iteration contraction factor is then

    rho(eta) = max(|1 - eta * lambda_min|, |1 - eta * lambda_max|)

over the nonzero eigenvalues, which is minimized at

    eta_star = 2 / (lambda_min + lambda_max) >= 1.

This module computes M at eta = 1 on a simplex chart (per row of r
states, r - 1 free coordinates, the last entry absorbing the step so
probes stay on the simplex).  Eigenvalues at or below a cutoff are
treated as a rank-deficient subspace and excluded, mirroring the
restriction to the span of the per-case posterior vectors; the report
flags when that happens.

Each coordinate's column of M is exact.  P(y; theta) is multilinear in
the CPT entries: every term of the sum over completions holds exactly
one entry of each table.  A probe moves entries of one table only, so
each case's probability, and each unnormalized family joint
P(x_f, pa_f, y) = theta_f * dP/dtheta_f, is affine in the step delta
(dP/dtheta_f contains no entry of table f).  The base pass, shared by
all coordinates, and the probe at +h fix both lines, and so the exact
derivative of every family posterior.  The probes of one table ride one
inference pass, stacked on its probe axis (see `inference`): the
quantities they change are second partials of the network polynomial
(Darwiche 2003), and what does not depend on the probed table is
computed once for all of them.  P(y) is the product of one scalar per
part of the elimination, so a probe changes only its table's part, and
what it changes there depends on a case only through the case's values
on the part's family variables.  Those repeat:
a pass runs on one case per distinct signature, weighted by its count.

The theory's contraction factor is stated in a reweighted norm; the
empirical rate reported here is measured in the plain L2 norm, so
predicted-versus-measured comparisons are approximate by design.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import estimation
from .estimation import (
    SufficientStats,
    _apply_rule,
    _block_posteriors,
    _e_step_blocks,
    expected_stats,
    is_fixpoint,
)
from .inference import probe_case_sums, table_parts
from .model import (
    PROB_FLOOR, Network, NumericalError, ParameterVector, ValidationError, ZeroProbabilityError,
    check_number, param_delta_stats,
)
from .netio import DataSet

# Dense eigendecomposition only: refuse larger free-coordinate charts.
MAX_JACOBIAN_DIM = 2000

# Fixpoint residual the analysis point must satisfy.
FIXPOINT_TOL = 1e-6

# Eigenvalues below this are treated as numerically zero.
EIGEN_CUTOFF = 1e-8

FD_STEP = 1e-5

# The secant (Phi(+h) - Phi) / h and the mean of the exact derivatives at
# 0 and +h (the trapezoid rule) must agree this closely: their gap is
# O(h^2), so at a moderate h a larger one means a derivative is wrong.
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
    probe steps are small enough to stay interior on their own.  At
    eta = 0 it returns the network's theta itself, as a fit's update does.
    """
    stats = expected_stats(network, dataset)
    return _apply_rule(network.theta, stats, "em", eta, PROB_FLOOR if clamp else None)


def _free_coords(network: Network) -> list[tuple[int, int, int]]:
    coords = []
    s = network.structure
    for i in range(s.n_vars):
        q, r = s.table_shape(i)
        for j in range(q):
            for k in range(r - 1):
                coords.append((i, j, k))
    return coords


def jacobian(network: Network, dataset: DataSet, h: float = FD_STEP) -> np.ndarray:
    """M = I - grad(Phi) at eta = 1 on the free-coordinate chart, exactly.

    Each coordinate is probed at a step of +h.  The probes of a table share
    inference passes, one per group of them (`_probe_groups`) and
    sub-block of distinct cases (`_probe_passes`), besides the base pass
    all coordinates share.  A probe moves entries of one table only, and
    P(y) is multilinear in the tables, so a case's probability and its
    unnormalized family joints are affine in the step: with
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

    The families outside the probed table's part of a block's plan
    (`inference.table_parts`) keep their base posteriors under the probe,
    so their slopes are exactly 0; an entry of M coupling two tables that
    no block puts in one part is exactly 0.  In a block of two or more
    rows that all observe a table's variables, that table is a part of
    its own.  The part's families, and rho, depend on a case only through
    its values on the part's family variables, so a probe pass runs on
    one case per distinct signature of those values, weighted by its
    count, and replays the block's plan with the reverse sweep over the
    part only (`inference.probe_case_sums`).  Repeated or reordered cases
    change M only by rounding.

    The result does not depend on h beyond rounding.  As a guard against
    a wrong slope, the same passes give the exact slope at +h as well,
    (p1 - p0) / (rho * h), and the mean of the derivatives of the map at 0
    and at +h must agree with the secant (Phi(+h) - Phi) / h to
    FD_AGREEMENT entrywise; by the trapezoid rule their gap is O(h^2).  A
    step of +h or -h that would make some case's probability nonpositive
    raises ZeroProbabilityError naming the first such row, as evaluating
    it directly would.
    """
    return _jacobian(network, dataset, h)[0]


def _flat_posteriors(posteriors: list[np.ndarray]) -> np.ndarray:
    """A pass's family posteriors as one (Q, N) matrix on the flat entry axis."""
    return np.concatenate([p.reshape(len(p), -1).T for p in posteriors])


def _probe_groups(
    theta: ParameterVector, coords: list[tuple[int, int, int]], h: float
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The probes at +h as (table, (P, q, r) stack of probed copies, coordinates).

    A group holds probes of one table, at most E_STEP_CHUNK of them.  The
    probes that leave an entry negative, the row's last entry being below
    h, form groups of their own: a negative entry leaves `_safe_total` no
    bound and sends its whole pass to the checked replay.
    """
    at = np.array(coords, dtype=np.intp).reshape(-1, 3)
    groups = []
    for i, table in enumerate(theta.tables):
        cols = np.flatnonzero(at[:, 0] == i)
        probed = np.repeat(table[None], cols.size, axis=0)
        # copy c: coordinate c up by h, its row's last entry down by h
        probed[np.arange(cols.size), at[cols, 1], at[cols, 2]] += h
        probed[np.arange(cols.size), at[cols, 1], -1] -= h
        negative = probed.min(axis=(1, 2)) < 0.0
        for kind in (~negative, negative):
            for c in range(0, np.count_nonzero(kind), estimation.E_STEP_CHUNK):
                part = np.flatnonzero(kind)[c : c + estimation.E_STEP_CHUNK]
                groups.append((i, probed[part], cols[part]))
    return groups


def _signatures(
    network: Network, values: np.ndarray, variables: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct signature of `values` on `variables`,
    in first-occurrence order, and how many rows share it.

    A row's signature is one mixed-radix integer, with MISSING as the digit
    after a variable's last state.  Before the radix product could pass
    2**62 the codes so far are renumbered densely, below the row count.
    """
    code = np.zeros(len(values), dtype=np.int64)
    bound = 1
    for v in variables:
        radix = network.structure.arity(v) + 1
        if bound * radix > 2**62:
            _, code = np.unique(code, return_inverse=True)
            bound = int(code.max()) + 1
        column = values[:, v]
        code = code * radix + np.where(column < 0, radix - 1, column)
        bound *= radix
    _, first, counts = np.unique(code, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], counts[order]


def _probe_passes(
    network: Network,
    block: np.ndarray,
    start: int,
    group: tuple[int, np.ndarray, np.ndarray],
    inside: np.ndarray,
    reps: np.ndarray,
    counts: np.ndarray,
    p0: np.ndarray,
    lls: np.ndarray,
    sums: np.ndarray,
) -> None:
    """Add a probe group's case sums over the block of cases from `start`
    to its coordinates' rows of `sums`, for the families `inside` the
    probed table's part of the block's plan.

    Cases that agree on the part's family variables have the same
    posteriors of its families and the same rho = P(y; +h) / P(y) under
    every probe, so the passes run on one row per such signature, `reps`,
    and weigh it by its `counts`.  A pass takes at most E_STEP_CHUNK // P
    of them, so it has at most E_STEP_CHUNK (probe, case) columns, and
    replays the block's plan.  It returns the sums of rho * p1, p1 / rho
    and p1, times the counts, for the part's families; one product of the
    representatives' base posteriors `p0` with the weights turns the first
    two into the sums of rho * (p1 - p0) and (p1 - p0) / rho.
    """
    table, probed, cols = group
    width = estimation.E_STEP_CHUNK // len(probed)
    reached = np.flatnonzero(np.repeat(inside, [t.size for t in network.theta.tables]))
    at = cols[:, None]
    for a in range(0, len(reps), width):
        rows, weight = reps[a : a + width], counts[a : a + width]
        base_lls = lls[rows]

        def weigh(moved_lls: np.ndarray) -> np.ndarray:
            rho = np.exp(moved_lls - base_lls)
            # P(y; theta - h) / P(y; theta) = 2 - rho; the pass at +h has
            # already refused a case with P(y; theta + h) = rho * P(y) <= 0.
            bad = np.flatnonzero(~(rho < 2.0).all(axis=0))
            if bad.size:
                raise ZeroProbabilityError.of_row(int(bad[0]))
            return np.stack([rho, 1.0 / rho, np.ones_like(rho)]) * weight

        try:
            out, weights = probe_case_sums(network, block, rows, table, probed, weigh)
        except ZeroProbabilityError as e:
            raise ZeroProbabilityError.of_row(start + int(rows[e.case_index or 0])) from None
        if reached.size:
            # the part's families' (q_i * r_i, P, 3) sums, on the flat entry axis
            sums[:, at, reached] += np.concatenate(
                [o.reshape(-1, *o.shape[-2:]) for o in out if o is not None]
            ).T
            shifts = p0[np.ix_(reached, rows)] @ weights[:2].reshape(2 * len(cols), -1).T
            sums[:2, at, reached] -= shifts.T.reshape(2, len(cols), -1)


def _jacobian(network: Network, dataset: DataSet, h: float) -> tuple[np.ndarray, float]:
    """`jacobian`, and the fixpoint residual read from its base pass.

    Every table entry has one place on a flat axis of Q = sum_i q_i * r_i
    entries, table after table and row after row; `starts` holds each
    row's first entry and `free` each coordinate's entry.  Every block's
    base pass runs first, so a point off the fixpoint is refused after one
    pass per block.  Then cases are taken one E_STEP_CHUNK block at a
    time; a block's base posteriors fill one (Q, N) matrix, and its probes
    go one table at a time: the block's signatures on the table's part
    (`_signatures`), the base sums of the families outside it, then one
    group at a time (`_probe_groups`, `_probe_passes`).  Besides the
    last block's base matrix, kept from the first sweep, only the block's
    base matrix is held.  Per coordinate the case sums of the slopes at 0
    and at +h and of the posteriors at +h accumulate in one (3, m, Q)
    array.  Row sums on the flat axis are `np.add.reduceat` over `starts`.
    """
    check_number(h, "h", above=0)
    coords = _free_coords(network)
    m = len(coords)
    if m > MAX_JACOBIAN_DIM:
        raise ValidationError(
            f"free-coordinate dimension {m} exceeds {MAX_JACOBIAN_DIM}"
        )
    theta = network.theta
    n = len(dataset)
    offsets = np.cumsum([0] + [t.size for t in theta.tables])
    # row starts per table: a table's size need not be a multiple of the
    # next table's row length
    starts = np.concatenate(
        [np.arange(o, o + t.size, t.shape[1]) for o, t in zip(offsets, theta.tables)]
    )
    free = np.array([offsets[i] + j * theta.tables[i].shape[1] + k for i, j, k in coords])
    row = np.searchsorted(starts, free, side="right") - 1
    base_sum = np.zeros(offsets[-1])
    blocks = []
    for start, base, lls in _e_step_blocks(network, dataset):
        p0 = _flat_posteriors(base)
        del base
        base_sum += p0.sum(axis=1)
        blocks.append(start)
    last = (p0, lls)
    flat = np.split(base_sum / n, offsets[1:-1])
    per_table = [a.reshape(t.shape) for a, t in zip(flat, theta.tables)]
    ok, residual = is_fixpoint(theta, SufficientStats.from_joint(per_table), FIXPOINT_TOL)
    if not ok:
        raise NotAFixpointError(
            f"analysis point has fixpoint residual {residual:.3g} > {FIXPOINT_TOL}"
        )
    groups = _probe_groups(theta, coords, h)
    table_of = np.array([i for i, _, _ in coords])
    sizes = [t.size for t in theta.tables]
    families = [{i, *pa} for i, pa in enumerate(network.structure.parents)]
    sums = np.zeros((3, m, offsets[-1]))
    for start in blocks:
        if start == blocks[-1]:
            p0, lls = last
        else:
            base, lls = _block_posteriors(network, dataset, start)
            p0 = _flat_posteriors(base)
            del base
        block = dataset.values[start : start + len(lls)]
        parts = np.array(table_parts(network, block))
        block_sum = p0.sum(axis=1)
        for table, of_table in groupby(groups, key=lambda g: g[0]):
            inside = parts == parts[table]
            variables = families[table].union(*(families[u] for u in np.flatnonzero(inside)))
            reps, counts = _signatures(network, block, sorted(variables))
            outside = np.flatnonzero(np.repeat(~inside, sizes))
            sums[2, np.flatnonzero(table_of == table)[:, None], outside] += block_sum[outside]
            for group in of_table:
                _probe_passes(network, block, start, group, inside, reps, counts, p0, lls, sums)

    # Below, row c holds the derivative along coordinate c at every free
    # entry.  An entry whose row has zero parent mass keeps its probed
    # value in phi_apply(clamp=False): it has no quotient, and its
    # derivative is the identity.
    joint = base_sum / n
    parent = np.add.reduceat(joint, starts)[row]
    moving = parent > 0.0
    sums[:2] /= n * h
    slope, slope_h, at_h = sums[..., free]
    slope_mass, slope_h_mass, mass_h = np.add.reduceat(sums, starts, axis=2)[..., row]
    with np.errstate(divide="ignore", invalid="ignore"):
        # quotient rule on joint / parent, at 0 and at +h; the gap of
        # (Phi(+h) - Phi) / h to the mean of the two
        ratio = joint[free] / parent
        d_phi = (slope - ratio * slope_mass) / parent
        ratio_h = at_h / mass_h
        d_phi_h = (slope_h - ratio_h * slope_h_mass) / (mass_h / n)
        gap = (ratio_h - ratio) / h - 0.5 * (d_phi + d_phi_h)
    disagreement = float(np.max(np.abs(np.where(moving, gap, 0.0))))
    if not disagreement <= FD_AGREEMENT:
        raise NumericalError(
            f"the secant over h and the exact derivatives disagree by {disagreement:.3g}"
        )
    # column c of the result is the derivative along coordinate c
    grad = np.where(moving, d_phi, 0.0).T
    frozen = np.flatnonzero(~moving)
    grad[frozen, frozen] = 1.0
    return np.eye(m) - grad, residual


def eigen_range(m_matrix: np.ndarray) -> tuple[float, float, bool]:
    """(smallest eigenvalue above EIGEN_CUTOFF, largest one, any at or below it).

    The matrix is similar to a symmetric positive-semidefinite one, so
    eigenvalues are real up to numerical noise; real parts are used.  A
    matrix that is not square, or has no entry, is refused.
    """
    shape = np.shape(m_matrix)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise ValidationError(f"eigen_range needs a nonempty square matrix, got shape {shape}")
    try:
        eigs = np.linalg.eigvals(m_matrix).real
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"eigenvalue solve failed: {e}") from None
    above = eigs[eigs > EIGEN_CUTOFF]
    if above.size == 0:
        raise NumericalError("all eigenvalues fall below the cutoff")
    return float(above.min()), float(eigs.max()), bool(np.any(eigs <= EIGEN_CUTOFF))


def _check_range(lambda_min: float, lambda_max: float) -> None:
    check_number(lambda_min, "lambda_min", above=0)
    check_number(lambda_max, "lambda_max", above=0)
    if not lambda_min <= lambda_max:
        raise ValidationError(f"lambda_min {lambda_min!r} exceeds lambda_max {lambda_max!r}")


def eta_star(lambda_min: float, lambda_max: float) -> float:
    """The rate equalizing the two contraction factors: 2/(lmin + lmax)."""
    _check_range(lambda_min, lambda_max)
    return 2.0 / (lambda_min + lambda_max)


def contraction_rate(eta: float, lambda_min: float, lambda_max: float) -> float:
    """Per-iteration shrink factor of the linearized EM(eta) map."""
    check_number(eta, "eta", above=0)
    _check_range(lambda_min, lambda_max)
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
    """Jacobian, eigenvalue range, eta_star, and a rho table for the etas.

    `empirical` maps some of the etas to measured rates (`empirical_rate`).
    The etas and the measured rates, finite and nonnegative, are checked
    before any inference pass runs.
    """
    for eta in etas:
        check_number(eta, "eta", above=0)
    for eta, rate in (empirical or {}).items():
        if eta not in etas:
            raise ValidationError(
                f"empirical rate given for eta {eta!r}, which is not among the etas"
            )
        check_number(rate, "empirical rate", low=0)
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
