"""Exact inference: case likelihoods and per-family posteriors.

Two independent routes compute the same quantities:

* The main route is variable elimination with a min-degree ordering.  It
  is batched over data cases: factors carry a leading case axis so one
  elimination pass answers a query for every case in a dataset chunk at
  once.  Products keep a separate per-case log-scale accumulator, so
  probabilities far below float underflow stay representable.

  A likelihood pass eliminates every variable once and releases each
  factor as soon as its bucket has consumed it.  The family posteriors
  come from the same elimination differentiated in reverse (Darwiche
  2003): P(x_i, pa_i | y) = theta_i * dP(y)/dtheta_i / P(y).  The
  forward pass records each bucket on a tape; the reverse sweep walks the
  tape backwards and gives every factor a bucket consumed an adjoint:
  the bucket output's adjoint times the bucket's other factors, summed
  down to the factor's scope.  A family posterior is its evidence-folded
  CPT factor times that factor's adjoint, normalized per case, so
  per-case scalars cancel: the forward log-scales, and the rescaling of
  adjoints that leave float range.  Each message is released once its
  bucket's reverse step is done.

  A marginal query is batched over cases too: one elimination of every
  variable outside the query answers it for a whole case matrix.

* The oracle route (`enumerate_*`) sums over all joint completions.  It
  exists for tests and sanity checks and shares no code with the main
  route beyond the network types.

A "family" is a variable together with its parents; the family posterior
for case y is P(X_i = k, Pa_i = j | y), stored in the same (q_i, r_i)
layout as the variable's CPT.  For every family these entries sum to 1
over (j, k): they partition the evidence-conditioned joint.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .model import Network, NetworkStructure, ValidationError, ZeroProbabilityError
from .netio import DataCase, MISSING

MAX_ENUM_STATES = 1 << 20

# Factor entries stay raw floats until a case's total sinks below this;
# then that total is pulled out into the case's log-scale accumulator,
# keeping evidence probabilities far below float underflow representable.
RESCALE_TRIGGER = 1e-100


# -- batched factors ------------------------------------------------------


@dataclass
class _Factor:
    """values[b, ...] * exp(logscale[b]) over the sorted variable scope.

    The leading axis is the case batch; it may have length 1 and rely on
    broadcasting when the factor is case-independent.  ``logscale`` is a
    scalar 0.0 until a rescale makes it a per-case array.
    """

    scope: tuple[int, ...]
    values: np.ndarray
    logscale: np.ndarray | float


def _align(
    values: np.ndarray, scope: tuple[int, ...], union: tuple[int, ...], arities: tuple[int, ...]
) -> np.ndarray:
    """Reshape `values` with singleton axes so it broadcasts over the union."""
    if scope == union:
        return values
    shape = (values.shape[0],) + tuple(
        arities[v] if v in scope else 1 for v in union
    )
    return values.reshape(shape)


def _multiply(factors: list[_Factor], arities: tuple[int, ...]) -> _Factor:
    if len(factors) == 1:
        return factors[0]
    union = tuple(sorted(set().union(*(f.scope for f in factors))))
    values = _align(factors[0].values, factors[0].scope, union, arities)
    logscale = factors[0].logscale
    for f in factors[1:]:
        values = values * _align(f.values, f.scope, union, arities)
        logscale = logscale + f.logscale
    return _Factor(union, values, logscale)


def _sum_axes(values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """`values` summed over `axes`.

    Batched sums run as a matrix-vector product over a copy with the
    summed axes moved last; numpy's own reduction over a few short axes
    is several times slower.
    """
    if values.shape[0] == 1:
        return values.sum(axis=axes)
    keep = [a for a in range(values.ndim) if a not in axes]
    moved = values.transpose(keep + list(axes))
    shape = moved.shape[: len(keep)]
    flat = np.ascontiguousarray(moved).reshape(math.prod(shape), -1)
    return (flat @ np.ones(flat.shape[1])).reshape(shape)


def _sum_out(factor: _Factor, var: int) -> _Factor:
    values = _sum_axes(factor.values, (1 + factor.scope.index(var),))
    scope = tuple(v for v in factor.scope if v != var)
    return _Factor(scope, values, factor.logscale)


def _case_divisors(values: np.ndarray, high: float = np.inf) -> np.ndarray | None:
    """Per-case totals of the cases whose total left [RESCALE_TRIGGER, high].

    Returns None when no case needs rescaling.  Other cases get divisor
    1, and so do cases that are identically zero: they signal
    zero-probability evidence and are reported by the caller.  Totals
    rather than maxima, because they are the cheaper per-case reduction.
    """
    if values.shape[0] == 1:
        total = float(values.sum())
        if RESCALE_TRIGGER < total <= high or not total > 0.0:
            return None
        return np.full((1,) * values.ndim, total)
    total = _sum_axes(values, tuple(range(1, values.ndim)))
    move = (total > 0.0) & ((total <= RESCALE_TRIGGER) | (total > high))
    if not move.any():
        return None
    return np.where(move, total, 1.0).reshape((-1,) + (1,) * (values.ndim - 1))


def _maybe_rescale(factor: _Factor) -> _Factor:
    """Pull the totals of near-underflowing cases into the log-scale accumulator."""
    div = _case_divisors(factor.values)
    if div is None:
        return factor
    logscale = factor.logscale + np.log(div.reshape(-1))
    return _Factor(factor.scope, factor.values / div, logscale)


@lru_cache(maxsize=1024)
def _min_degree_order(scopes: tuple[tuple[int, ...], ...], elim: frozenset[int]) -> tuple[int, ...]:
    """Min-degree elimination ordering; ties broken by variable id.

    A lazy min-heap on (degree, id); popped entries gone stale are skipped."""
    nbrs: dict[int, set[int]] = {}
    for sc in scopes:
        for a in sc:
            nbrs.setdefault(a, set()).update(b for b in sc if b != a)
    heap = [(len(nbrs[v]), v) for v in elim if v in nbrs]
    heapq.heapify(heap)
    order = []
    while heap:
        degree, v = heapq.heappop(heap)
        if v not in nbrs or degree != len(nbrs[v]):
            continue
        order.append(v)
        vs = nbrs.pop(v)
        for a in vs:
            nbrs[a] = (nbrs[a] | vs) - {a, v}
            if a in elim:
                heapq.heappush(heap, (len(nbrs[a]), a))
    return tuple(order)


def _cpt_factor(network: Network, i: int, evidence: np.ndarray | None) -> _Factor:
    """CPT of variable i as a batched factor, with i's evidence folded in."""
    s = network.structure
    axis_vars = list(s.parents[i]) + [i]
    shape = tuple(s.arity(v) for v in axis_vars)
    values = network.theta.tables[i].reshape(shape)
    perm = sorted(range(len(axis_vars)), key=lambda p: axis_vars[p])
    scope = tuple(axis_vars[p] for p in perm)
    values = values.transpose(tuple(perm))[None]
    if evidence is not None:
        pos = scope.index(i)
        ev_shape = (evidence.shape[0],) + (1,) * pos + (s.arity(i),) + (1,) * (len(scope) - pos - 1)
        values = values * evidence.reshape(ev_shape)
    return _Factor(scope, values, 0.0)


def _evidence_columns(structure: NetworkStructure, values: np.ndarray) -> list[np.ndarray | None]:
    """Per variable: (B, r) indicator-or-ones matrix, or None if never observed."""
    missing = values < 0
    observed = ~missing.all(axis=0)
    out: list[np.ndarray | None] = []
    for i in range(structure.n_vars):
        if not observed[i]:
            out.append(None)
            continue
        states = np.arange(structure.arity(i))
        ev = (values[:, i, None] == states) | missing[:, i, None]
        out.append(ev.astype(np.float64))
    return out


def _cpt_factors(network: Network, values: np.ndarray) -> list[_Factor]:
    s = network.structure
    evidence = _evidence_columns(s, values)
    return [_cpt_factor(network, i, evidence[i]) for i in range(s.n_vars)]


def _arities(structure: NetworkStructure) -> tuple[int, ...]:
    return tuple(structure.arity(i) for i in range(structure.n_vars))


# One bucket of an elimination: the ids of the factors it multiplies, the
# union of their scopes, and the scope of the message it produces.
_Bucket = tuple[list[int], tuple[int, ...], tuple[int, ...]]


def _eliminate(
    factors: list[_Factor | None],
    elim: frozenset[int],
    arities: tuple[int, ...],
    tape: list[_Bucket] | None = None,
) -> _Factor:
    """Sum the variables in `elim` out of the product of `factors`.

    Without a tape, each factor is released as soon as its bucket
    consumes it.  With one, every bucket's message is appended to
    `factors`, so a factor's id is its position there, and each bucket
    is recorded; the final product of the leftover factors is recorded
    as one more bucket and appended as the last factor.
    """
    order = _min_degree_order(tuple(f.scope for f in factors), elim)
    live = list(enumerate(factors))
    for var in order:
        touching = [kf for kf in live if var in kf[1].scope]
        live = [kf for kf in live if var not in kf[1].scope]
        product = _multiply([f for _, f in touching], arities)
        message = _maybe_rescale(_sum_out(product, var))
        if tape is not None:
            tape.append(([k for k, _ in touching], product.scope, message.scope))
            factors.append(message)
        live.append((len(factors) - 1, message))
    result = _multiply([f for _, f in live], arities)
    if tape is not None:
        tape.append(([k for k, _ in live], result.scope, result.scope))
        factors.append(result)
    return result


def _family_posterior(
    structure: NetworkStructure, i: int, factor: _Factor, adjoint: np.ndarray, n_cases: int
) -> np.ndarray:
    """Evidence-folded CPT factor times its adjoint, CPT-shaped and normalized per case."""
    target = list(structure.parents[i]) + [i]
    perm = [factor.scope.index(v) for v in target]
    joint = (factor.values * adjoint).transpose([0] + [1 + p for p in perm])
    joint = np.ascontiguousarray(joint).reshape(joint.shape[0], *structure.table_shape(i))
    return _normalize(joint, n_cases, "family posteriors")


def _normalize(joint: np.ndarray, n_cases: int, what: str) -> np.ndarray:
    """Each case's joint divided by its total, broadcast to n_cases rows."""
    total = _sum_axes(joint, tuple(range(1, joint.ndim)))
    _raise_zero(np.broadcast_to(total, (n_cases,)), what)
    post = joint / total.reshape((-1,) + (1,) * (joint.ndim - 1))
    return np.broadcast_to(post, (n_cases,) + post.shape[1:])


def _raise_zero(total: np.ndarray, what: str) -> None:
    bad = np.nonzero(~(total > 0.0))[0]
    if bad.size:
        idx = int(bad[0])
        raise ZeroProbabilityError(
            f"{what}: case {idx} has probability 0 under the current parameters",
            case_index=idx,
        )


# -- public single-case operations ----------------------------------------


def joint_probability(network: Network, case: DataCase) -> float:
    """Chain-rule product for a fully observed case."""
    s = network.structure
    states = case.states
    if np.any(states < 0):
        raise ValidationError("joint_probability requires a fully observed case")
    p = 1.0
    for i in range(s.n_vars):
        j = 0
        for q in s.parents[i]:
            j = j * s.arity(q) + int(states[q])
        p *= float(network.theta.tables[i][j, int(states[i])])
    return p


def log_marginal_likelihood(network: Network, case: DataCase) -> float:
    """log P(observed part of the case), by variable elimination."""
    lls = log_likelihood_cases(network, case.states[None, :])
    return float(lls[0])


def log_likelihood_cases(network: Network, values: np.ndarray) -> np.ndarray:
    """log P(y) for every row of an (N, V) case matrix."""
    s = network.structure
    res = _eliminate(_cpt_factors(network, values), frozenset(range(s.n_vars)), _arities(s))
    total = np.broadcast_to(res.values, (values.shape[0],))
    _raise_zero(total, "log-likelihood")
    return np.log(total) + res.logscale


def family_posteriors(network: Network, case: DataCase) -> list[np.ndarray]:
    """P(X_i = k, Pa_i = j | case) for every family, CPT-shaped."""
    post, _ = batch_family_posteriors(network, case.states[None, :])
    return [p[0] for p in post]


def batch_family_posteriors(
    network: Network, values: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Family posteriors for every case row, plus per-case log-likelihoods.

    Returns ([(N, q_i, r_i) arrays], (N,) log-likelihood vector), both
    from one forward elimination and its reverse sweep.
    """
    s = network.structure
    n_cases = values.shape[0]
    arities = _arities(s)
    factors: list[_Factor | None] = list(_cpt_factors(network, values))
    tape: list[_Bucket] = []
    root = _eliminate(factors, frozenset(range(s.n_vars)), arities, tape)
    total = np.broadcast_to(root.values, (n_cases,))
    _raise_zero(total, "family posteriors")
    loglik = np.log(total) + root.logscale

    posteriors: list[np.ndarray] = [np.empty(0)] * s.n_vars
    adjoints = {len(factors) - 1: np.ones(1)}
    for step in reversed(range(len(tape))):
        touching, union, out_scope = tape[step]
        upstream = _align(adjoints.pop(s.n_vars + step), out_scope, union, arities)
        aligned = {u: _align(factors[u].values, factors[u].scope, union, arities) for u in touching}
        for t in touching:
            f = factors[t]
            # The bucket's other factors first: their product is mostly
            # smaller than the union, which the upstream adjoint nearly spans.
            adj = reduce(np.multiply, [aligned[u] for u in touching if u != t] + [upstream])
            axes = tuple(1 + p for p, v in enumerate(union) if v not in f.scope)
            if axes:
                adj = _sum_axes(adj, axes)
            div = _case_divisors(adj, 1.0 / RESCALE_TRIGGER)
            if div is not None:
                adj = adj / div
            if t < s.n_vars:
                posteriors[t] = _family_posterior(s, t, f, adj, n_cases)
            else:
                adjoints[t] = np.broadcast_to(adj, adj.shape[:1] + f.values.shape[1:])
        for t in touching:
            factors[t] = None
    return posteriors, loglik


def batch_posterior_marginals(network: Network, values: np.ndarray, var_ids: list[int]) -> np.ndarray:
    """Joint posterior over `var_ids`, axes in the given order, for every
    row of an (N, V) case matrix; a read-only view when no case has evidence."""
    if len(set(var_ids)) != len(var_ids):
        raise ValidationError("duplicate variables in marginal query")
    s = network.structure
    elim = frozenset(range(s.n_vars)) - frozenset(var_ids)
    res = _eliminate(_cpt_factors(network, values), elim, _arities(s))
    perm = [res.scope.index(v) for v in var_ids]
    joint = res.values.transpose([0] + [1 + p for p in perm])
    return _normalize(joint, values.shape[0], "marginal query")


def posterior_marginal(network: Network, case: DataCase, var_ids: list[int]) -> np.ndarray:
    """Joint posterior over the given variables, axes in the given order."""
    return batch_posterior_marginals(network, case.states[None, :], var_ids)[0]


def parent_config_marginals(network: Network) -> list[np.ndarray]:
    """Exact prior P(Pa_i = j) for every variable, as (q_i,) arrays."""
    s = network.structure
    empty = DataCase(np.full(s.n_vars, MISSING, dtype=np.int64))
    post = family_posteriors(network, empty)
    return [p.sum(axis=1) for p in post]


# -- enumeration oracle ----------------------------------------------------


def _check_enum_size(structure: NetworkStructure, free: list[int]) -> None:
    total = 1
    for v in free:
        total *= structure.arity(v)
        if total > MAX_ENUM_STATES:
            raise ValidationError(
                f"state space too large to enumerate (> {MAX_ENUM_STATES})"
            )


def _completions(structure: NetworkStructure, case_states: np.ndarray) -> np.ndarray:
    """All full assignments consistent with the case, as an (T, V) matrix."""
    free = [i for i in range(structure.n_vars) if case_states[i] < 0]
    _check_enum_size(structure, free)
    t = 1
    for v in free:
        t *= structure.arity(v)
    full = np.tile(case_states, (t, 1))
    if free:
        grids = np.meshgrid(*[np.arange(structure.arity(v)) for v in free], indexing="ij")
        for col, v in enumerate(free):
            full[:, v] = grids[col].ravel()
    return full


def _assignment_weights(network: Network, full: np.ndarray) -> np.ndarray:
    """Chain-rule weight of each full assignment row."""
    s = network.structure
    w = np.ones(full.shape[0])
    for i in range(s.n_vars):
        j = np.zeros(full.shape[0], dtype=np.int64)
        for p in s.parents[i]:
            j = j * s.arity(p) + full[:, p]
        w *= network.theta.tables[i][j, full[:, i]]
    return w


def enumerate_case_probability(network: Network, case: DataCase) -> float:
    """P(observed part of the case) by summing all completions."""
    full = _completions(network.structure, case.states)
    return float(_assignment_weights(network, full).sum())


def enumerate_family_posteriors(network: Network, case: DataCase) -> list[np.ndarray]:
    """Same contract as family_posteriors, via exhaustive summation."""
    s = network.structure
    full = _completions(s, case.states)
    w = _assignment_weights(network, full)
    total = w.sum()
    if not total > 0.0:
        raise ZeroProbabilityError(
            "enumeration: evidence has probability 0", case_index=None
        )
    out = []
    for i in range(s.n_vars):
        j = np.zeros(full.shape[0], dtype=np.int64)
        for p in s.parents[i]:
            j = j * s.arity(p) + full[:, p]
        acc = np.zeros(s.table_shape(i))
        np.add.at(acc, (j, full[:, i]), w)
        out.append(acc / total)
    return out


def enumerate_joint(network: Network) -> np.ndarray:
    """The full joint as a flat array, C-ordered over declared variables."""
    s = network.structure
    empty = np.full(s.n_vars, MISSING, dtype=np.int64)
    full = _completions(s, empty)
    return _assignment_weights(network, full)
