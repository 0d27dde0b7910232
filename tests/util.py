"""Shared test helpers: random model generators and independent oracles.

The oracles here are deliberately naive (explicit loops, raw-table
arithmetic) so they share no code path with the library's vectorized
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from bnfit.estimation import expected_stats, is_fixpoint
from bnfit.inference import RESCALE_TRIGGER, _min_degree_order
from bnfit.model import (
    Network, NetworkStructure, ParameterVector, ValidationError, Variable, random_init
)
from bnfit.netio import MISSING, DataCase, DataSet
from bnfit.networks import chain3
from bnfit.spectral import (
    FD_AGREEMENT, FD_STEP, FIXPOINT_TOL, NotAFixpointError, _free_coords, phi_apply
)


def alt_chain3() -> Network:
    """chain3 with a third state for A: the same names, another structure."""
    s = chain3().structure
    a = s.variables[0]
    structure = NetworkStructure((Variable(0, a.name, a.states + ("s2",)), *s.variables[1:]),
                                 s.parents)
    return Network(structure, random_init(structure, 3))


def random_structure(
    rng: np.random.Generator,
    n_vars: int,
    max_parents: int = 3,
    arities: tuple[int, ...] = (2, 3),
) -> NetworkStructure:
    """Random DAG over declared order: parents drawn from earlier variables."""
    variables = []
    for i in range(n_vars):
        r = int(rng.choice(arities))
        variables.append(Variable(i, f"X{i}", tuple(f"s{k}" for k in range(r))))
    parents = []
    for i in range(n_vars):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        ids = sorted(int(p) for p in rng.choice(i, size=k, replace=False)) if k else []
        parents.append(tuple(ids))
    return NetworkStructure(tuple(variables), tuple(parents))


def random_tables(
    rng: np.random.Generator, structure: NetworkStructure, alpha: float = 1.5, floor: float = 0.05
) -> ParameterVector:
    """Dirichlet rows blended toward uniform so entries stay above ~floor."""
    tables = []
    for i in range(structure.n_vars):
        q, r = structure.table_shape(i)
        rows = rng.dirichlet(np.full(r, alpha), size=q)
        rows = (1.0 - floor * r) * rows + floor
        tables.append(rows / rows.sum(axis=1, keepdims=True))
    return ParameterVector(tables)


def random_network(
    rng: np.random.Generator,
    n_vars: int,
    max_parents: int = 3,
    arities: tuple[int, ...] = (2, 3),
    alpha: float = 1.5,
) -> Network:
    structure = random_structure(rng, n_vars, max_parents, arities)
    return Network(structure, random_tables(rng, structure, alpha))


def case_from_dict(structure: NetworkStructure, observed: dict[str, str]) -> DataCase:
    """Build a case from {variable name: state name}; everything else missing."""
    states = np.full(structure.n_vars, MISSING, dtype=np.int64)
    for name, state in observed.items():
        v = structure.by_name(name)
        states[v.index] = v.state_index(state)
    return DataCase(states)


def dataset_from_cases(structure: NetworkStructure, cases: Sequence[DataCase]) -> DataSet:
    if not cases:
        return DataSet(structure, np.zeros((0, structure.n_vars), dtype=np.int64))
    return DataSet(structure, np.stack([c.states for c in cases]))


def decode_parent_config(structure: NetworkStructure, i: int, j: int) -> dict[int, int]:
    """Inverse of parent_config_index: row index -> parent assignment."""
    q = structure.parent_config_count(i)
    if not (0 <= j < q):
        raise ValidationError(f"row index {j} out of range [0, {q})")
    out: dict[int, int] = {}
    for p in reversed(structure.parents[i]):
        r = structure.variables[p].arity
        out[p] = j % r
        j //= r
    return out


def random_partial_case(
    rng: np.random.Generator, structure: NetworkStructure, p_observed: float = 0.5
) -> DataCase:
    states = np.full(structure.n_vars, MISSING, dtype=np.int64)
    for i in range(structure.n_vars):
        if rng.random() < p_observed:
            states[i] = int(rng.integers(structure.arity(i)))
    return DataCase(states)


# -- naive oracles ----------------------------------------------------------


def parent_row_of(structure: NetworkStructure, i: int, assignment: np.ndarray) -> int:
    j = 0
    for p in structure.parents[i]:
        j = j * structure.arity(p) + int(assignment[p])
    return j


def oracle_joint_of_assignment(network: Network, assignment: np.ndarray) -> float:
    p = 1.0
    for i in range(network.structure.n_vars):
        j = parent_row_of(network.structure, i, assignment)
        p *= float(network.theta.tables[i][j, int(assignment[i])])
    return p


def all_assignments(structure: NetworkStructure, case: DataCase | None = None):
    """Yield every full assignment, fixed to the case's observed values."""
    states = (
        np.full(structure.n_vars, MISSING, dtype=np.int64)
        if case is None
        else case.states.copy()
    )

    def rec(i: int, current: np.ndarray):
        if i == structure.n_vars:
            yield current.copy()
            return
        if states[i] != MISSING:
            current[i] = states[i]
            yield from rec(i + 1, current)
        else:
            for k in range(structure.arity(i)):
                current[i] = k
                yield from rec(i + 1, current)

    yield from rec(0, np.zeros(structure.n_vars, dtype=np.int64))


def oracle_case_probability(network: Network, case: DataCase) -> float:
    return sum(
        oracle_joint_of_assignment(network, a)
        for a in all_assignments(network.structure, case)
    )


def oracle_family_posteriors(network: Network, case: DataCase) -> list[np.ndarray]:
    s = network.structure
    acc = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    total = 0.0
    for a in all_assignments(s, case):
        w = oracle_joint_of_assignment(network, a)
        total += w
        for i in range(s.n_vars):
            acc[i][parent_row_of(s, i, a), int(a[i])] += w
    return [x / total for x in acc]


def oracle_complete_counts(network: Network, values: np.ndarray) -> list[np.ndarray]:
    """Empirical joint frequencies count(x, pa)/N from complete cases."""
    s = network.structure
    acc = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    for row in values:
        for i in range(s.n_vars):
            acc[i][parent_row_of(s, i, row), int(row[i])] += 1.0
    return [a / values.shape[0] for a in acc]


def oracle_marginal(network: Network, case: DataCase, var_ids: list[int]) -> np.ndarray:
    """P(var_ids | case), axes in the given order, by summing completions."""
    s = network.structure
    acc = np.zeros(tuple(s.arity(v) for v in var_ids))
    for a in all_assignments(s, case):
        acc[tuple(int(a[v]) for v in var_ids)] += oracle_joint_of_assignment(network, a)
    return acc / acc.sum()


# -- reference elimination ----------------------------------------------------
#
# Variable elimination as the library ran it before it compiled plans:
# every call rebuilds each bucket's union scope, aligned shapes and sum
# axes from the factor scopes.  The plan replay must reproduce it bit for
# bit: same multiplications, in the same order, on arrays of the same
# shapes.  It shares the library's `_min_degree_order`, which
# `TestMinDegreeOrder` checks against a reference of its own.
#
# A batch of two or more rows conditions on the eliminated variables that
# every row observes: each CPT factor keeps only the entries at the
# case's values of those variables, built here entry by entry, and a
# family with all its variables fixed is a factor of empty scope.  The
# last step of a full elimination multiplies scalars, one per connected
# part; it rescales each CPT factor and each partial product and gives
# scalar m the adjoint 1 / m.


@dataclass
class _Factor:
    """values[..., b] * exp(logscale[b]) over the sorted variable scope."""

    scope: tuple[int, ...]
    values: np.ndarray
    logscale: np.ndarray | float


def _align(values, scope, union, arities):
    if scope == union:
        return values
    shape = tuple(arities[v] if v in scope else 1 for v in union)
    return values.reshape(shape + values.shape[-1:])


def _multiply(factors, arities, rescale_each=False):
    if len(factors) == 1:
        return factors[0]
    union = tuple(sorted(set().union(*(f.scope for f in factors))))
    product = _Factor(union, _align(factors[0].values, factors[0].scope, union, arities),
                      factors[0].logscale)
    for f in factors[1:]:
        product = _Factor(union, product.values * _align(f.values, f.scope, union, arities),
                          product.logscale + f.logscale)
        if rescale_each:
            product = _rescaled(product)
    return product


def _case_divisors(values, high=np.inf):
    total = values.reshape(-1, values.shape[-1]).sum(axis=0)
    if total.shape[0] == 1:
        t = float(total[0])
        return None if RESCALE_TRIGGER < t <= high or not t > 0.0 else total
    if RESCALE_TRIGGER < total.min() and total.max() <= high:
        return None
    move = (total > 0.0) & ((total <= RESCALE_TRIGGER) | (total > high))
    if not move.any():
        return None
    return np.where(move, total, 1.0)


def _rescaled(factor):
    div = _case_divisors(factor.values)
    if div is None:
        return factor
    return _Factor(factor.scope, factor.values / div, factor.logscale + np.log(div))


def _fixed(values: np.ndarray, elim: frozenset[int]) -> frozenset[int]:
    """The variables of `elim` that every row of a batch of two or more observes."""
    if values.shape[0] < 2:
        return frozenset()
    return frozenset(v for v in elim if (values[:, v] >= 0).all())


def _scope_split(s: NetworkStructure, i: int, fixed: frozenset[int]):
    """CPT i's sorted scope without `fixed`, and its fixed variables."""
    scope = sorted(list(s.parents[i]) + [i])
    return tuple(v for v in scope if v not in fixed), [v for v in scope if v in fixed]


def _reference_factors(network: Network, values: np.ndarray, fixed: frozenset[int]):
    """The CPT factors, of empty scope for a family with every variable fixed."""
    s = network.structure
    n_cases = values.shape[0]
    missing = values < 0
    observed = ~missing.all(axis=0)
    factors = []
    for i in range(s.n_vars):
        table = network.theta.tables[i]
        rest, held = _scope_split(s, i, fixed)
        if held:
            f = np.empty(tuple(s.arity(v) for v in rest) + (n_cases,))
            for c in range(n_cases):
                assignment = values[c].copy()
                for states in np.ndindex(*f.shape[:-1]):
                    assignment[list(rest)] = states
                    f[states + (c,)] = table[parent_row_of(s, i, assignment), assignment[i]]
            scope = rest
        else:
            axis_vars = list(s.parents[i]) + [i]
            shape = tuple(s.arity(v) for v in axis_vars)
            perm = sorted(range(len(axis_vars)), key=lambda p: axis_vars[p])
            scope = tuple(axis_vars[p] for p in perm)
            f = table.reshape(shape).transpose(tuple(perm))[..., None]
        if observed[i] and i not in fixed:
            ev = ((values[:, i] == np.arange(s.arity(i))[:, None]) | missing[:, i]).astype(np.float64)
            pos = scope.index(i)
            ev_shape = (1,) * pos + (s.arity(i),) + (1,) * (len(scope) - pos - 1) + ev.shape[-1:]
            f = f * ev.reshape(ev_shape)
        factors.append(_Factor(scope, f, 0.0))
    return factors


def _reference_eliminate(factors, elim, arities, tape=None):
    n_cpts = len(factors)
    order = _min_degree_order(tuple(f.scope for f in factors), elim)
    live = list(enumerate(factors))
    for var in order:
        touching = [kf for kf in live if var in kf[1].scope]
        live = [kf for kf in live if var not in kf[1].scope]
        product = _multiply([f for _, f in touching], arities)
        summed = product.values.sum(axis=product.scope.index(var))
        scope = tuple(v for v in product.scope if v != var)
        message = _rescaled(_Factor(scope, summed, product.logscale))
        if tape is not None:
            tape.append(([k for k, _ in touching], product.scope, message.scope))
        factors.append(message)
        live.append((len(factors) - 1, message))
    live = [(k, _rescaled(f) if k < n_cpts else f) for k, f in live]
    result = _multiply([f for _, f in live], arities, rescale_each=True)
    if tape is not None:
        tape.append(([k for k, _ in live], result.scope, result.scope))
        factors.append(result)
    return result


def _arities(structure: NetworkStructure) -> tuple[int, ...]:
    return tuple(structure.arity(i) for i in range(structure.n_vars))


def _reference_normalize(joint, n_cases):
    total = joint.reshape(-1, joint.shape[-1]).sum(axis=0)
    assert np.all(total > 0.0)
    post = (joint / total).transpose([joint.ndim - 1, *range(joint.ndim - 1)])
    if post.shape[0] == n_cases:
        return post
    return np.broadcast_to(post, (n_cases,) + post.shape[1:])


def _reference_scatter(s: NetworkStructure, i: int, values: np.ndarray, rest, post) -> np.ndarray:
    """(N, q, r) posteriors of family i, zero off each case's fixed values;
    `post` is (N, rest...) over the unfixed variables `rest`."""
    out = np.zeros((values.shape[0],) + s.table_shape(i))
    for c in range(values.shape[0]):
        assignment = values[c].copy()
        for states in np.ndindex(*post.shape[1:]):
            assignment[list(rest)] = states
            out[c, parent_row_of(s, i, assignment), assignment[i]] = post[(c,) + states]
    return out


def reference_log_likelihood_cases(network: Network, values: np.ndarray) -> np.ndarray:
    s = network.structure
    elim = frozenset(range(s.n_vars))
    fixed = _fixed(values, elim)
    factors = _reference_factors(network, values, fixed)
    res = _reference_eliminate(factors, elim - fixed, _arities(s))
    return np.log(np.broadcast_to(res.values, (values.shape[0],))) + res.logscale


def reference_family_posteriors(network: Network, values: np.ndarray):
    """(family posteriors, log-likelihoods), as `batch_family_posteriors`."""
    s = network.structure
    n_cases = values.shape[0]
    arities = _arities(s)
    elim = frozenset(range(s.n_vars))
    fixed = _fixed(values, elim)
    factors = _reference_factors(network, values, fixed)
    tape = []
    root = _reference_eliminate(factors, elim - fixed, arities, tape)
    loglik = np.log(np.broadcast_to(root.values, (n_cases,))) + root.logscale
    posteriors = [None] * s.n_vars
    adjoints = {}
    for step in reversed(range(len(tape))):
        touching, union, out_scope = tape[step]
        last = step == len(tape) - 1
        upstream = None if last else _align(adjoints.pop(s.n_vars + step), out_scope, union, arities)
        aligned = {u: _align(factors[u].values, factors[u].scope, union, arities) for u in touching}
        for t in touching:
            f = factors[t]
            if last:
                # the derivative of log P(y), the sum of the scalars' logs
                adj = 1.0 / aligned[t]
            else:
                adj = reduce(np.multiply, [aligned[u] for u in touching if u != t] + [upstream])
            axes = tuple(p for p, v in enumerate(union) if v not in f.scope)
            if axes:
                adj = adj.sum(axis=axes)
            div = _case_divisors(adj, 1.0 / RESCALE_TRIGGER)
            if div is not None:
                adj = adj / div
            if t < s.n_vars and _scope_split(s, t, fixed)[1]:
                post = _reference_normalize(f.values * adj, n_cases)
                posteriors[t] = _reference_scatter(s, t, values, f.scope, post)
            elif t < s.n_vars:
                target = list(s.parents[t]) + [t]
                perm = [f.scope.index(v) for v in target]
                joint = (f.values * adj).transpose(perm + [len(perm)])
                joint = joint.reshape(*s.table_shape(t), joint.shape[-1])
                posteriors[t] = _reference_normalize(joint, n_cases)
            else:
                shape = f.values.shape[:-1] + adj.shape[-1:]
                adjoints[t] = adj if adj.shape == shape else np.broadcast_to(adj, shape)
        for t in touching:
            factors[t] = None
    return posteriors, loglik


def reference_posterior_marginals(network: Network, values: np.ndarray, var_ids: list[int]):
    s = network.structure
    elim = frozenset(range(s.n_vars)) - frozenset(var_ids)
    fixed = _fixed(values, elim)
    factors = _reference_factors(network, values, fixed)
    res = _reference_eliminate(factors, elim - fixed, _arities(s))
    perm = [res.scope.index(v) for v in var_ids]
    return _reference_normalize(res.values.transpose(perm + [len(perm)]), values.shape[0])


# -- spectral references -----------------------------------------------------


def to_free(theta: ParameterVector, coords: list[tuple[int, int, int]]) -> np.ndarray:
    return np.array([theta.tables[i][j, k] for (i, j, k) in coords])


def probe(theta: ParameterVector, i: int, j: int, k: int, delta: float) -> ParameterVector:
    """Shift one free coordinate, balancing the row's last entry."""
    tables = [t.copy() for t in theta.tables]
    tables[i][j, k] += delta
    tables[i][j, -1] -= delta
    return ParameterVector(tables, _validate=False)


def reference_jacobian(network, dataset, h=FD_STEP):
    """The four-probe finite-difference Jacobian: one full E-step per image."""
    coords = _free_coords(network)
    m = len(coords)
    ok, residual = is_fixpoint(network.theta, expected_stats(network, dataset), FIXPOINT_TOL)
    if not ok:
        raise NotAFixpointError(f"fixpoint residual {residual:.3g}")

    def grad_phi(step):
        cols = np.empty((m, m))
        for c, (i, j, k) in enumerate(coords):
            plus = phi_apply(network.with_theta(probe(network.theta, i, j, k, step)),
                             dataset, 1.0, clamp=False)
            minus = phi_apply(network.with_theta(probe(network.theta, i, j, k, -step)),
                              dataset, 1.0, clamp=False)
            cols[:, c] = (to_free(plus, coords) - to_free(minus, coords)) / (2.0 * step)
        return cols

    j_h = grad_phi(h)
    j_half = grad_phi(h / 2.0)
    assert np.max(np.abs(j_h - j_half)) <= FD_AGREEMENT
    return np.eye(m) - (4.0 * j_half - j_h) / 3.0
