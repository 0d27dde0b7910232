"""Shared test helpers: random model generators and independent oracles.

The oracles here are deliberately naive (explicit loops, raw-table
arithmetic) so they share no code path with the library's vectorized
implementations.
"""

from __future__ import annotations

import numpy as np

from bnfit.model import Network, NetworkStructure, ParameterVector, Variable
from bnfit.netio import MISSING, DataCase


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
