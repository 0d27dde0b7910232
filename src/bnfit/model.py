"""Discrete Bayesian network representation.

A network is a DAG of discrete variables plus one conditional probability
table (CPT) per variable.  The CPT of variable i is a (q_i, r_i) array:
r_i is the number of states of the variable, q_i the number of joint
parent configurations.  Row j enumerates parent configurations in
lexicographic order with the *first* parent most significant; this
ordering is part of the file-format contract and must never change.

Networks and parameter vectors are immutable values: every update rule
produces a new ParameterVector instead of mutating in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Entries of every CPT row are kept at or above this floor by all update
# rules, so expressions that divide by a table entry stay finite.
PROB_FLOOR = 1e-9

# Row sums must match 1 to within this tolerance at all times.
ROW_SUM_TOL = 1e-9

# Dense CPTs only: refuse variables beyond these sizes.
MAX_ARITY = 64
MAX_PARENT_CONFIGS = 1 << 20

_NAME_CHARS = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")


class BnError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BnError):
    """Malformed input: bad structure, bad file, bad configuration."""


class NumericalError(BnError):
    """Numerical failure: zero-probability evidence, eigen trouble, ..."""


class ZeroProbabilityError(NumericalError):
    """Evidence with probability zero under the current parameters."""

    def __init__(self, message: str, case_index: int | None = None):
        super().__init__(message)
        self.case_index = case_index

    @classmethod
    def of_row(cls, row: int, where: str = "") -> "ZeroProbabilityError":
        """The error for case `row` of the caller's data; `where` precedes "case" ("test set")."""
        name = f"{where} case" if where else "case"
        return cls(f"{name} {row} has probability 0 under the current parameters", case_index=row)


# An int beyond the largest float is not finite either.
_FLOAT_MAX = float(np.finfo(np.float64).max)


def check_number(value, what: str, integer: bool = False, low: float | None = None,
                 above: float | None = None, high: float | None = None) -> None:
    """Raise ValidationError unless `value` is a valid numeric setting.

    The one check of every numeric setting; nothing is converted.  A count
    or seed (`integer`) is a non-bool int, numpy's too; a real is a non-bool
    int or float, numpy's too, and finite.  The value lies in [low, high],
    or (above, high]; in use are [0, inf), (0, inf), [0, 1] and (0, ETA_MAX].
    """
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    kind = "integer" if integer else "number"
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(f"{what} must be {'an' if integer else 'a'} {kind}, got {value!r}")
    finite = integer or (abs(value) <= _FLOAT_MAX if isinstance(value, int) else abs(value) < np.inf)
    lower_ok = (low is None or value >= low) and (above is None or value > above)
    if finite and lower_ok and (high is None or value <= high):
        return
    if high is not None:
        bounds = (f"[{low}" if above is None else f"({above}") + f", {high}]"
        desc = f"{'an' if integer else 'a'} {kind} in {bounds}"
    else:
        sign = "nonnegative " if low == 0 else "positive " if above == 0 else ""
        desc = f"a {'' if integer else 'finite '}{sign}{kind}"
    raise ValidationError(f"{what} must be {desc}, got {value!r}")


def _check_token(name: str, what: str) -> None:
    if not name or not set(name) <= _NAME_CHARS:
        raise ValidationError(
            f"{what} {name!r} must be a nonempty string over [A-Za-z0-9_-]"
        )


@dataclass(frozen=True)
class Variable:
    """A discrete variable: an integer id, a name, and ordered state names."""

    index: int
    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        _check_token(self.name, "variable name")
        for s in self.states:
            _check_token(s, "state name")
        if len(self.states) < 2:
            raise ValidationError(f"variable {self.name!r} needs arity >= 2")
        if len(self.states) > MAX_ARITY:
            raise ValidationError(
                f"variable {self.name!r} has arity {len(self.states)} > {MAX_ARITY}"
            )
        if len(set(self.states)) != len(self.states):
            raise ValidationError(f"variable {self.name!r} has duplicate state names")

    @property
    def arity(self) -> int:
        return len(self.states)

    def state_index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ValidationError(
                f"unknown state {state!r} for variable {self.name!r}"
            ) from None


def _toposort(n: int, parents: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Kahn's algorithm; raises ValidationError on a cycle.

    Ties are broken by variable id so the ordering is deterministic.
    """
    indeg = [len(p) for p in parents]
    children: list[list[int]] = [[] for _ in range(n)]
    for child in range(n):
        for p in parents[child]:
            children[p].append(child)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for c in sorted(children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        ready.sort()
    if len(order) != n:
        raise ValidationError("cycle detected in parent graph")
    return tuple(order)


@dataclass(frozen=True)
class NetworkStructure:
    """The qualitative part of a network: variables and parent sets."""

    variables: tuple[Variable, ...]
    parents: tuple[tuple[int, ...], ...]
    topo_order: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable names")
        for i, v in enumerate(self.variables):
            if v.index != i:
                raise ValidationError(
                    f"variable {v.name!r} has index {v.index}, expected {i}"
                )
        if len(self.parents) != len(self.variables):
            raise ValidationError("parents list length != number of variables")
        for i, plist in enumerate(self.parents):
            if len(set(plist)) != len(plist):
                raise ValidationError(
                    f"duplicate parent for variable {self.variables[i].name!r}"
                )
            for p in plist:
                if not (0 <= p < len(self.variables)):
                    raise ValidationError(f"unknown parent id {p}")
                if p == i:
                    raise ValidationError(
                        f"variable {self.variables[i].name!r} cannot be its own parent"
                    )
            if self.parent_config_count(i) > MAX_PARENT_CONFIGS:
                raise ValidationError(
                    f"variable {self.variables[i].name!r} has too many parent "
                    f"configurations for a dense CPT (> {MAX_PARENT_CONFIGS})"
                )
        object.__setattr__(self, "topo_order", _toposort(len(self.variables), self.parents))

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def by_name(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ValidationError(f"unknown variable {name!r}")

    def arity(self, i: int) -> int:
        return self.variables[i].arity

    def parent_config_count(self, i: int) -> int:
        q = 1
        for p in self.parents[i]:
            q *= self.variables[p].arity
        return q

    def table_shape(self, i: int) -> tuple[int, int]:
        return (self.parent_config_count(i), self.arity(i))


def parent_config_index(structure: NetworkStructure, i: int, assignment: dict[int, int]) -> int:
    """Encode an assignment of Pa_i as a CPT row index.

    The encoding is lexicographic with the first parent most significant.
    `assignment` must cover exactly the parents of variable i.
    """
    plist = structure.parents[i]
    if set(assignment) != set(plist):
        raise ValidationError(
            f"assignment must cover exactly the parents of {structure.variables[i].name!r}"
        )
    j = 0
    for p in plist:
        s = assignment[p]
        r = structure.variables[p].arity
        if not (0 <= s < r):
            raise ValidationError(
                f"state {s} out of range for parent {structure.variables[p].name!r}"
            )
        j = j * r + s
    return j


def parent_rows(structure: NetworkStructure, i: int, states: np.ndarray) -> np.ndarray:
    """parent_config_index, unchecked, of the parent states of one case (V,) or
    of each row of a case matrix (N, V); the parents must be observed."""
    j = np.zeros(states.shape[:-1], dtype=np.int64)
    for p in structure.parents[i]:
        j = j * structure.variables[p].arity + states[..., p]
    return j


class ParameterVector:
    """All CPTs of a network, one (q_i, r_i) float array per variable.

    Rows are probability distributions: entries in [PROB_FLOOR, 1] and
    summing to 1 within ROW_SUM_TOL.  Arrays are copied on construction
    and marked read-only.
    """

    __slots__ = ("tables",)

    def __init__(self, tables: list[np.ndarray], *, _validate: bool = True):
        frozen = []
        for t in tables:
            a = np.array(t, dtype=np.float64)
            a.setflags(write=False)
            frozen.append(a)
        self.tables: tuple[np.ndarray, ...] = tuple(frozen)
        if _validate:
            self._validate()

    def _validate(self) -> None:
        for i, t in enumerate(self.tables):
            if t.ndim != 2:
                raise ValidationError(f"table {i} is not 2-D")
            if np.any(t < 0) or np.any(t > 1):
                raise ValidationError(f"table {i} has entries outside [0, 1]")
            sums = t.sum(axis=1)
            if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
                raise ValidationError(f"table {i} has a row not summing to 1")

    def check_shapes(self, structure: NetworkStructure) -> None:
        if len(self.tables) != structure.n_vars:
            raise ValidationError("table count != number of variables")
        for i in range(structure.n_vars):
            if self.tables[i].shape != structure.table_shape(i):
                raise ValidationError(
                    f"table shape {self.tables[i].shape} != "
                    f"{structure.table_shape(i)} for variable "
                    f"{structure.variables[i].name!r}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return len(self.tables) == len(other.tables) and all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self.tables, other.tables)
        )

    def __repr__(self) -> str:
        return f"ParameterVector({len(self.tables)} tables)"


def clamp_rows(raw: np.ndarray, floor: float = PROB_FLOOR) -> np.ndarray:
    """Push a block of rows back onto the interior of the simplex.

    Entries below the floor (including negatives produced by eta > 1
    extrapolation) are raised to it, then each row is rescaled to sum
    to 1.  The floor-and-rescale runs twice: when the unnormalized row
    sum is far from 1 the first rescale can push floored entries back
    under the floor, and the second round settles them at it (to within
    one rounding).
    """
    out = np.maximum(raw, floor)
    out /= out.sum(axis=-1, keepdims=True)
    out = np.maximum(out, floor)
    out /= out.sum(axis=-1, keepdims=True)
    return out


@dataclass(frozen=True)
class Network:
    """A structure paired with a concrete parameter vector."""

    structure: NetworkStructure
    theta: ParameterVector

    def __post_init__(self):
        self.theta.check_shapes(self.structure)

    def with_theta(self, theta: ParameterVector) -> "Network":
        return Network(self.structure, theta)


def check_same_structure(
    a: NetworkStructure, b: NetworkStructure, a_name: str, b_name: str
) -> None:
    """Raise ValidationError, naming both sides, unless `a` and `b` are equal."""
    if a is not b and a != b:
        raise ValidationError(f"{a_name} and {b_name} have different structures")


def uniform_init(structure: NetworkStructure) -> ParameterVector:
    """Every row the uniform distribution over the variable's states."""
    tables = []
    for i in range(structure.n_vars):
        q, r = structure.table_shape(i)
        tables.append(np.full((q, r), 1.0 / r))
    return ParameterVector(tables)


def random_init(structure: NetworkStructure, seed: int) -> ParameterVector:
    """Each row drawn from the flat Dirichlet (uniform on the simplex).

    Deterministic for a given seed: rows are drawn variable by variable
    in declared order, row by row.
    """
    check_number(seed, "seed", integer=True, low=0)
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(structure.n_vars):
        q, r = structure.table_shape(i)
        rows = rng.dirichlet(np.ones(r), size=q)
        tables.append(clamp_rows(rows))
    return ParameterVector(tables)


def param_delta_stats(theta_a: ParameterVector, theta_b: ParameterVector) -> tuple[float, float]:
    """(max absolute entry change, plain L2 norm of the change)."""
    max_d = 0.0
    sq = 0.0
    for a, b in zip(theta_a.tables, theta_b.tables):
        d = np.abs(a - b)
        if d.size:
            max_d = max(max_d, float(d.max()))
            sq += float(np.sum(d * d))
    return max_d, float(np.sqrt(sq))
