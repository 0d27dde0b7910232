"""Exact inference: case likelihoods and per-family posteriors.

Two independent routes compute the same quantities:

* The main route is variable elimination with a min-degree ordering.  It
  is batched over data cases: factors carry a trailing case axis so one
  elimination pass answers a query for every case in a dataset chunk at
  once.  The case axis is innermost, so every multiply, sum-out and
  per-case total runs over contiguous case vectors rather than over the
  two or three states of a variable.  Products keep a separate per-case
  log-scale accumulator, so probabilities far below float underflow stay
  representable.  Results are returned case-first.

  A likelihood pass eliminates every variable once and releases each
  factor as soon as its bucket has consumed it.  The family posteriors
  come from the same elimination differentiated in reverse (Darwiche
  2003): P(x_i, pa_i | y) = theta_i * dP(y)/dtheta_i / P(y).  The
  forward pass keeps every bucket's output; the reverse sweep walks the
  buckets backwards and gives every message a bucket consumed an
  adjoint: the bucket output's adjoint times the bucket's other factors,
  summed down to the message's scope.  Each message is released once its
  bucket's reverse step is done.

  Every family posterior takes one route.  A bucket holding a CPT factor
  forms one product J, its factors times its output's adjoint.  A CPT
  factor f is constant over the bucket's axes outside its scope, so f
  times its adjoint is J summed over those axes: a family's posteriors,
  per case, summed or probe-weighted, are its bucket's J summed to its
  scope.  In a bucket that also holds a message, J is that message's
  adjoint product times the message.  The unchecked replay's root
  carries log-scale 0, so a root adjoint seeded with 1 / P(y) makes J's
  entries posteriors already, and no family is normalized.  The seed
  cannot overflow: the unchecked result is kept only when
  P(y) > 2 * RESCALE_TRIGGER * B, and with seed 1 every adjoint total is
  at most B (`_safe_total`), so with seed 1 / P(y) every adjoint total is
  below 1 / (2 * RESCALE_TRIGGER) and no entry of J exceeds 1.  The
  checked replay seeds 1 and rescales adjoints by arbitrary per-case
  divisors, so there each family divides its sum of J by its total per
  (probe, case) column, and per-case scalars cancel: the forward
  log-scales and the rescaling of adjoints alike.  An E-step needs only
  each family's posteriors summed over the cases, its expected counts,
  and `summed=True` returns those; an unchecked, unconditioned replay
  sums each bucket's J over the cases before its families sum it to
  their scopes.

  A marginal query is batched over cases too: one elimination of every
  variable outside the query answers it for a whole case matrix.

  Every factor also has a probe axis, just before the case axis.  Its
  length is 1, except where one table is replaced by a stack of P probed
  copies (`probe_case_sums`, for the spectral Jacobian): that table's
  factor has length P there, and every message and adjoint that depends
  on it gets length P by broadcasting, while the others are computed
  once for all the probes.  A root total, a rescale check and a
  normalization are per (probe, case) column.  Such a pass returns no
  per-case posteriors but K weighted case sums per family,
  sum_c W[k, p, c] P_p(x_i, pa_i | y_c), with weights computed from the
  pass's own log-likelihoods between the two sweeps and taken where the
  case sums are.  Its reverse sweep replays only the probed table's
  part, the steps whose outputs flow into the probed table's slot of the
  last step: P(y) is the product of the last step's scalar messages, one
  per part, and the folded terms, so a family of another part, or a
  folded one, has the same posteriors under every probe as without it
  (its second partials with the probed table are zero), and the pass
  returns none for it.  The forward sweep still runs in full: the
  weights need every part's message.  A part's message and posteriors
  depend on a case only through its values on the part's family
  variables (`table_parts` gives each table's part), so a caller can
  replay a batch's plan on one case per distinct combination of those
  values: the cases observe the batch's fixed set.  The E-step, the
  likelihood pass, queries and the online step are the length-1 case of
  the same replay, with every part and the same bits as without the axis.

  The rescale checks, a per-case total of every message and adjoint, cost
  more than the arithmetic on a batch of one or two cases, and almost
  never fire.  So a call first replays without them.  When no table
  entry is negative, a bound B from the tables and the arities puts
  every message total above P(y) / B and every adjoint total between
  P(y) / B and B (`_safe_total`), so a root total above
  2 * RESCALE_TRIGGER * B proves that no check would have fired: the
  unchecked forward sweep did exactly the operations of the checked one.
  Otherwise the call rebuilds the factors and replays the whole batch
  checked.

  Evidence enters as indicator columns, except for the variables that
  every row of a batch of two or more observes, the batch's fixed set:
  the plan conditions on those (instantiating evidence, Darwiche 2003).
  A factor drops a fixed variable's axis by taking, per case, its
  entries at the case's values, one flat index per case into the CPT's
  fixed axes, and the elimination runs over the other variables only.
  A family whose variables are all fixed has no axis left: the log of
  its entry joins the case's log-scale, so the root, and the
  `_safe_total` bound checked against it, leave it out, and its
  posterior is the one-hot of the case's configuration.  The other
  families' outputs are scattered back to the (q, r) layout: per case at
  the case's fixed values, and as case sums by one product with the
  one-hot matrix of those values.  Conditioning leaves a scalar message
  per connected part of the unfixed variables in the last step; there a
  checked replay rescales every partial product, and the reverse sweep
  gives message m the adjoint 1 / m instead of multiplying all the
  others for each: the product of the others is P(y) / m, so 1 / m is
  exact under the seed 1 / P(y) and a per-case multiple of the adjoint,
  which normalization cancels, otherwise.  Single rows are not
  conditioned: their observed variables change from row to row, and a
  plan per pattern would take longer to compile than the online step it
  serves.

  So factor scopes, and with them the elimination order and every
  bucket, depend only on the structure, the eliminated set and the fixed
  set.  Each (structure, eliminated set, fixed set) is compiled once
  into a plan: the order, each CPT's transpose and evidence reshape,
  each bucket's factor ids, aligned shapes and sum axis, and each
  reverse step's sum axes and posterior transpose.  A call replays the
  plan on arrays, doing the multiplications of an elimination from
  scratch in the same order.  Plans are cached, at most PLAN_CACHE_SIZE
  of them, keyed on the parent sets, the arities, the eliminated set
  and the fixed set.  A batch with an empty fixed set replays the plan
  without conditioning.

* The oracle route (`enumerate_*`) sums over all joint completions.  It
  exists for tests and sanity checks and shares no code with the main
  route beyond the model module and the check of its case.

A "family" is a variable together with its parents; the family posterior
for case y is P(X_i = k, Pa_i = j | y), stored in the same (q_i, r_i)
layout as the variable's CPT.  For every family these entries sum to 1
over (j, k): they partition the evidence-conditioned joint.
"""

from __future__ import annotations

import ctypes
import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .model import (
    Network, NetworkStructure, ValidationError, ZeroProbabilityError, check_number, parent_rows
)
from .netio import DataCase, MISSING, _check_states

MAX_ENUM_STATES = 1 << 20

# Factor entries stay raw floats until a case's total sinks below this;
# then that total is pulled out into the case's log-scale accumulator,
# keeping evidence probabilities far below float underflow representable.
# The check runs only in a replay whose root could not prove it idle:
# P(y) at or below 2 * RESCALE_TRIGGER * B (see `_safe_total`).
RESCALE_TRIGGER = 1e-100

# Every elimination allocates its factors afresh, about 4 MB for a
# likelihood pass over 1000 cases of a 50-node network, and frees them at
# the end.  Under glibc's self-adjusting heap thresholds, whether those MB
# go back to the kernel, to be faulted in again by the next call (a third
# of the pass), depends on where unrelated small objects happen to sit, so
# the same pass ran fast in one process and slow in the next.  Fixed
# thresholds (M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 64 MiB) keep them.
_libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
if hasattr(_libc, "gnu_get_libc_version"):
    _libc.mallopt(-3, 32 << 20)
    _libc.mallopt(-1, 64 << 20)


# -- elimination plans ------------------------------------------------------

# Plans kept: a fit, an online stream and a spectral analysis (its probe
# passes replay their block's) use one per fixed set their batches condition
# on; a query evaluation uses one per target variable and fixed set.
PLAN_CACHE_SIZE = 128


class _Cpt(NamedTuple):
    """How CPT i becomes a factor over its sorted scope, and back.

    The table, with a leading probe axis (length 1 for a plain table), is
    reshaped to that axis, one axis per parent and one for the child
    (`shape`), transposed by `perm` to the sorted scope with the probe
    axis last, and given a case axis.  Its evidence is rows `ev_rows` of
    the indicator matrix, reshaped to `ev_shape` plus the case axis; None
    when the child is fixed.  A family joint is transposed by `post_perm`
    to parents-then-child order, its two trailing axes kept, and reshaped
    to `table_shape`.

    In a conditioned plan the scope's fixed variables, `fixed_shape` their
    arities, are transposed after the probe axis instead and flattened to
    one axis, which the case's flat index gathers; the factor's scope is
    the rest, `rest_shape`.  Its family joint comes back over the fixed
    axes, then the rest, before `post_perm`.  A family with no rest is
    folded: no factor, a log term per case.
    """

    shape: tuple[int, ...]
    perm: tuple[int, ...]
    ev_rows: slice | None
    ev_shape: tuple[int, ...]
    post_perm: tuple[int, ...]
    table_shape: tuple[int, int]
    fixed_shape: tuple[int, ...]
    rest_shape: tuple[int, ...]


class _Step(NamedTuple):
    """One bucket: multiply factors `ids` in that order and sum out `axis`.

    Each factor is reshaped to its entry of `shapes` so that it broadcasts
    over the bucket's union scope (None: it spans the union already).  The
    last step multiplies the leftover factors and sums nothing (`axis`
    None).  The reverse sweep reshapes the output's adjoint to `upstream`
    (None: no reshape) and sums each message's adjoint, and each CPT
    factor's family from J, over its entry of `sums`, the union axes
    outside that factor's scope.  `out_shape` is the output's shape
    without the probe and case axes.
    """

    ids: tuple[int, ...]
    shapes: tuple[tuple[int, ...] | None, ...]
    axis: int | None
    upstream: tuple[int, ...] | None
    sums: tuple[tuple[int, ...], ...]
    out_shape: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """A min-degree elimination compiled for one structure and eliminated set.

    Factor i is CPT i; step k's output is factor n_vars + k, so the last
    step's output is the result, over `root_scope`.  Indicator row k is
    state `ev_state[k]` of variable `ev_var[k]`.  `log_states` is the log
    of the number of joint states, the product of all arities.

    `fixed` are the variables conditioned on, sorted; empty for a plan
    without conditioning.  A case's flat index into CPT i's fixed axes is
    its row of `values[:, fixed] @ strides`, column i.  The CPTs in
    `folded` have every variable fixed and no factor.

    `part[t]` is the part of factor t, a CPT or a step's output before the
    last: the slot of the last step that its output flows into, or -1 for
    a folded CPT.
    """

    cpts: tuple[_Cpt, ...]
    steps: tuple[_Step, ...]
    root_scope: tuple[int, ...]
    ev_var: np.ndarray
    ev_state: np.ndarray
    log_states: float
    fixed: tuple[int, ...]
    strides: np.ndarray
    folded: tuple[int, ...]
    part: tuple[int, ...]


def _aligned(values: np.ndarray, shape: tuple[int, ...] | None) -> np.ndarray:
    """`values` reshaped to `shape` plus its probe and case axes; as is for None."""
    return values if shape is None else values.reshape(shape + values.shape[-2:])


def _case_divisors(values: np.ndarray, high: float = np.inf) -> np.ndarray | None:
    """Per-column totals of the columns whose total left [RESCALE_TRIGGER, high].

    A column is one (probe, case) pair.  Returns None when no column needs
    rescaling.  Other columns get divisor 1, and so do columns that are
    identically zero: they signal zero-probability evidence and are
    reported by the caller.  Totals rather than maxima, because they are
    the cheaper per-column reduction.
    """
    total = _case_totals(values)
    # A NaN total fails the first test, and the move test below.
    if RESCALE_TRIGGER < total.min() and (high == np.inf or total.max() <= high):
        return None
    move = (total > 0.0) & ((total <= RESCALE_TRIGGER) | (total > high))
    if not move.any():
        return None
    return np.where(move, total, 1.0)


def _case_totals(values: np.ndarray) -> np.ndarray:
    """Sum over every variable axis: one total per (probe, case) column."""
    return values.reshape((-1,) + values.shape[-2:]).sum(axis=0)


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


def _step(
    touching: list[tuple[int, tuple[int, ...]]],
    out: tuple[int, ...],
    union: tuple[int, ...],
    axis: int | None,
    arities: tuple[int, ...],
) -> _Step:
    def shape(scope: tuple[int, ...]) -> tuple[int, ...] | None:
        return None if scope == union else tuple(arities[v] if v in scope else 1 for v in union)

    return _Step(
        ids=tuple(k for k, _ in touching),
        shapes=tuple(shape(sc) for _, sc in touching),
        axis=axis,
        upstream=shape(out),
        sums=tuple(tuple(p for p, v in enumerate(union) if v not in sc) for _, sc in touching),
        out_shape=tuple(arities[v] for v in out),
    )


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(
    parents: tuple[tuple[int, ...], ...],
    arities: tuple[int, ...],
    elim: frozenset[int],
    fixed: frozenset[int] = frozenset(),
) -> _Plan:
    """Compile the elimination of `elim`, conditioned on `fixed`, from the
    CPT factors of a structure.

    The steps are those of bucket elimination in min-degree order over the
    variables of `elim` outside `fixed`, on the scopes without `fixed`:
    each bucket multiplies the live factors that touch its variable, in
    the order they became live, and its output joins the live factors
    last.
    """
    held_vars = tuple(sorted(fixed))
    strides = np.zeros((len(held_vars), len(parents)))
    cpts, scopes, ev_var, ev_state = [], [], [], []
    for i, pa in enumerate(parents):
        axis_vars = tuple(pa) + (i,)
        order = sorted(range(len(axis_vars)), key=lambda p: axis_vars[p])
        held = [p for p in order if axis_vars[p] in fixed]
        rest = [p for p in order if axis_vars[p] not in fixed]
        scope = tuple(axis_vars[p] for p in rest)
        stride = 1
        for p in reversed(held):
            strides[held_vars.index(axis_vars[p]), i] = stride
            stride *= arities[axis_vars[p]]
        r = arities[i]
        ev_rows, ev_shape = None, ()
        if i not in fixed:
            pos = scope.index(i)
            ev_rows = slice(len(ev_var), len(ev_var) + r)
            ev_shape = (1,) * pos + (r,) + (1,) * (len(scope) - pos)
            ev_var += [i] * r
            ev_state += range(r)
        back = held + rest
        cpts.append(_Cpt(
            shape=(-1,) + tuple(arities[v] for v in axis_vars),
            perm=tuple(p + 1 for p in rest) + (0,) + tuple(p + 1 for p in held),
            ev_rows=ev_rows,
            ev_shape=ev_shape,
            post_perm=tuple(back.index(p) for p in range(len(axis_vars))) + (len(back), len(back) + 1),
            table_shape=(math.prod(arities[p] for p in pa), r),
            fixed_shape=tuple(arities[axis_vars[p]] for p in held),
            rest_shape=tuple(arities[v] for v in scope),
        ))
        scopes.append(scope)

    live = [(i, sc) for i, sc in enumerate(scopes) if sc]
    steps = []
    for var in _min_degree_order(tuple(scopes), elim - fixed):
        touching = [kf for kf in live if var in kf[1]]
        live = [kf for kf in live if var not in kf[1]]
        union = tuple(sorted(set().union(*(sc for _, sc in touching))))
        out = tuple(v for v in union if v != var)
        steps.append(_step(touching, out, union, union.index(var), arities))
        live.append((len(parents) + len(steps) - 1, out))
    root = tuple(sorted(set().union(*(sc for _, sc in live))))
    steps.append(_step(live, root, root, None, arities))
    part = [-1] * (len(parents) + len(steps) - 1)
    for p, t in enumerate(steps[-1].ids):
        part[t] = p
    for k in reversed(range(len(steps) - 1)):
        for t in steps[k].ids:
            part[t] = part[len(parents) + k]
    return _Plan(
        tuple(cpts),
        tuple(steps),
        root,
        np.array(ev_var, dtype=np.intp),
        np.array(ev_state, dtype=np.int64)[:, None],
        math.fsum(math.log(r) for r in arities),
        held_vars,
        strides,
        tuple(i for i, sc in enumerate(scopes) if not sc),
        tuple(part),
    )


def _plan_of(structure: NetworkStructure, elim: frozenset[int], values: np.ndarray | None = None) -> _Plan:
    """The plan for `elim`; for a batch `values` of two or more rows,
    conditioned on the variables of `elim` that every row observes."""
    arities = tuple(v.arity for v in structure.variables)
    fixed = frozenset()
    if values is not None and values.shape[0] > 1:
        # a column's minimum is negative when some row misses it
        low = np.minimum.reduce(values, axis=0)
        if np.maximum.reduce(low) >= 0:
            fixed = elim.intersection(np.flatnonzero(low >= 0).tolist())
    return _plan(structure.parents, arities, elim, fixed)


# -- plan replay ---------------------------------------------------------------


def _fixed_index(plan: _Plan, values: np.ndarray) -> np.ndarray:
    """Each case's flat index into each CPT's fixed axes, (n_vars, N)."""
    # a float product runs on BLAS; indices are far below 2**53
    return (values[:, plan.fixed] @ plan.strides).T.astype(np.intp)


def _cpt_factors(
    plan: _Plan, tables: Sequence[np.ndarray], values: np.ndarray, what: str
) -> tuple[list[np.ndarray | None], np.ndarray | float]:
    """Every CPT as a factor ending in probe and case axes, with its
    variable's evidence folded in, and the folded families' log terms.

    A (P, q, r) stack in `tables` gives its factor a probe axis of length
    P; every other factor's has length 1.  A variable no row of `values`
    observes keeps a case axis of length 1.  In a conditioned plan a
    factor with fixed axes takes, per case, the entries at the case's
    fixed values; a folded family leaves None and adds the log of its
    entry to the (P, N) log terms, which are 0.0 when none is folded.
    """
    missing = values < 0
    observed = (~missing.all(axis=0)).tolist()
    # (state, case) indicator-or-missing rows of every unfixed variable
    evidence = (
        (values.T[plan.ev_var] == plan.ev_state) | missing.T[plan.ev_var]
    ).astype(np.float64)
    index = _fixed_index(plan, values) if plan.fixed else None
    factors: list[np.ndarray | None] = []
    logs: np.ndarray | float = 0.0
    for i, (table, cpt, seen) in enumerate(zip(tables, plan.cpts, observed)):
        f = table.reshape(cpt.shape).transpose(cpt.perm)
        if not cpt.fixed_shape:
            f = f[..., None]
        else:
            f = f.reshape(cpt.rest_shape + (-1, math.prod(cpt.fixed_shape)))[..., index[i]]
            if not cpt.rest_shape:
                _raise_zero(f, what)
                logs = logs + np.log(f)
                factors.append(None)
                continue
        if seen and cpt.ev_rows is not None:
            ev = evidence[cpt.ev_rows]
            f = f * ev.reshape(cpt.ev_shape + ev.shape[-1:])
        factors.append(f)
    return factors, logs


def _safe_total(plan: _Plan, tables: Sequence[np.ndarray]) -> float:
    """A root total above which no rescale check of a replay on `tables` can fire.

    Let every table entry lie in [0, M], M = max(1, largest entry), and
    B = (product of all arities) * M ** n_vars.  Evidence indicators are
    0 or 1, so a sum, over the assignments of some variables, of products
    of evidence-folded CPT entries, at most one per table, is at most B.
    A gathered factor of a conditioned plan is an evidence-folded one with
    its zero terms dropped, so the same holds for sums over the rest of
    its variables, and the folded families' entries are simply left out.
    Let R be the replay's own root total: P(y), without the folded terms
    in a conditioned plan.  A factor f of the replay (a CPT factor or a
    message) is such a sum over the CPT factors below it; its adjoint a,
    as the reverse sweep forms it before broadcasting, is such a sum over
    the other CPT factors; and per case, R is the sum of f * a over f's
    scope.  Bounding one side of that sum by B gives, per case:

    * total(f) >= R / B for every message f;
    * R / B <= total(a) <= B for every adjoint a.

    The partial products of a conditioned plan's last step are messages of
    this kind too.  The adjoint that step gives a message m is 1 / m, the
    adjoint above divided by R, so it and every adjoint below it have
    totals in [1 / B, B / R].

    So if R > 2 * RESCALE_TRIGGER * B for every case, with
    B < 0.5 / RESCALE_TRIGGER, every message total is above
    RESCALE_TRIGGER and every adjoint total in
    (RESCALE_TRIGGER, 1 / RESCALE_TRIGGER): no check of the checked
    replay rescales anything, and the unchecked replay, doing the same
    multiplications in the same order, has a bit-identical forward
    sweep; its reverse sweep differs by its 1 / P(y) seed and by
    normalizing nothing.  The factor 2 covers rounding: a product or sum
    of nonnegative floats errs by a relative 2**-53, or in the subnormal
    range by an absolute 2**-1075, per operation, both far inside it.

    With a stack of probed tables the bound holds for every probe: every
    one of its entries counts towards M.

    Returns that bound, 2 * RESCALE_TRIGGER * B, or inf when there is
    none: an entry is negative or NaN (spectral probes and
    `phi_apply(clamp=False)` can make one negative), or B is too large.
    """
    entries = np.concatenate(tables, axis=None)
    if not entries.min() >= 0.0:
        return math.inf
    log_b = plan.log_states + len(plan.cpts) * math.log(max(1.0, float(entries.max())))
    if not log_b < math.log(0.5 / RESCALE_TRIGGER):
        return math.inf
    return 2.0 * RESCALE_TRIGGER * math.exp(log_b)


def _rescaled(values: np.ndarray, logscale: np.ndarray | float) -> tuple[np.ndarray, np.ndarray | float]:
    """`values` with the totals that sank to RESCALE_TRIGGER pulled into `logscale`."""
    div = _case_divisors(values)
    if div is None:
        return values, logscale
    return values / div, logscale + np.log(div)


def _eliminate(
    plan: _Plan, factors: list[np.ndarray | None], keep: bool = False, checked: bool = True
) -> tuple[np.ndarray, np.ndarray | float]:
    """Replay `plan` on `factors`; return the result and its log-scales.

    Factor `k` times exp(its log-scale) is its exact value, per (probe,
    case) column; a log-scale is the scalar 0.0 until a rescale makes it
    a per-column array.  Only a `checked` replay rescales: each step's
    output, and in a conditioned plan, whose last step may multiply a
    scalar message per connected part of the unfixed variables, each
    product of that step too.  Each step's output is appended to
    `factors`; a last step with no factor gives ones.  Without `keep`,
    the factors a step consumes are released.
    """
    logscales: list = [0.0] * len(factors)
    for step in plan.steps:
        if step.ids:
            values = _aligned(factors[step.ids[0]], step.shapes[0])
            logscale = logscales[step.ids[0]]
        else:
            values, logscale = np.ones((1, 1)), 0.0
        check_each = checked and step.axis is None and plan.fixed
        for k, shape in zip(step.ids[1:], step.shapes[1:]):
            values = values * _aligned(factors[k], shape)
            logscale = logscale + logscales[k]
            if check_each:
                values, logscale = _rescaled(values, logscale)
        if step.axis is not None:
            values = values.sum(axis=step.axis)
            if checked:
                values, logscale = _rescaled(values, logscale)
        if not keep:
            for k in step.ids:
                factors[k] = None
        factors.append(values)
        logscales.append(logscale)
    return factors[-1], logscales[-1]


def _forward(
    plan: _Plan, tables: Sequence[np.ndarray], values: np.ndarray, what: str, keep: bool = False
) -> tuple[list[np.ndarray | None], np.ndarray, np.ndarray | float, bool]:
    """The checked replay's (factors, root, root log-scales), and whether it ran.

    The unchecked replay stands in for it when every column's root total
    is above `_safe_total`, which proves that no check would have fired.
    A total at or below it, 0 and NaN included, sends the whole batch to
    the checked replay on freshly built factors.  The log-scales include
    the folded families' log terms; a nonpositive folded entry raises
    ZeroProbabilityError for its case, `what` naming the operation.
    """
    bound = _safe_total(plan, tables)
    if bound < math.inf:
        factors, logs = _cpt_factors(plan, tables, values, what)
        root, logscale = _eliminate(plan, factors, keep, checked=False)
        if _case_totals(root).min() > bound:
            return factors, root, logscale + logs if plan.folded else logscale, False
    factors, logs = _cpt_factors(plan, tables, values, what)
    root, logscale = _eliminate(plan, factors, keep)
    return factors, root, logscale + logs if plan.folded else logscale, True


def _family_table(cpt: _Cpt, joint: np.ndarray) -> np.ndarray:
    """A family's array over its sorted scope and two trailing axes, in CPT shape."""
    joint = joint.transpose(cpt.post_perm)
    return joint.reshape(cpt.table_shape + joint.shape[-2:])


def _case_sums(columns: np.ndarray, weights: np.ndarray | None, n_cases: int) -> np.ndarray:
    """An array ending in probe and case axes, summed over n_cases cases.

    The result ends in (P, K): with (K, P, N) weights W, its entries are
    sum_c W[k, p, c] * columns[..., p, c]; without, K = 1 and the weights
    are 1.  An all-missing batch keeps a case axis of length 1, standing
    for every case.
    """
    n = columns.shape[-1]
    if weights is None:
        return (columns.sum(axis=-1) * (n_cases / n))[..., None]
    if n < n_cases:
        weights = weights.sum(axis=-1, keepdims=True)
    p = columns.shape[-2]
    # one (entries, N) @ (N, K) product per probe; columns that do not
    # depend on the probe (p = 1) broadcast over the weights' probes
    sums = np.matmul(columns.reshape(-1, p, n).transpose(1, 0, 2), weights.transpose(1, 2, 0))
    return sums.transpose(1, 0, 2).reshape(columns.shape[:-2] + sums.shape[::2])


def _scatter(
    cpt: _Cpt, post: np.ndarray, index: np.ndarray, weights: np.ndarray | None, summed: bool
) -> np.ndarray:
    """A gathered family's (rest..., P, N) posteriors, CPT-shaped.

    Case c's family joint is zero off its fixed values, flat index
    `index[c]` of the fixed axes.  Per case, `post` is written there; with
    `summed`, the case sums are taken as `_case_sums` takes them, by one
    (entries, N) @ one-hot(N, fixed configurations) product.
    """
    size = math.prod(cpt.fixed_shape)
    n = index.shape[0]
    last = post.ndim - 1
    if summed:
        # (K, rest..., P, N) weighted columns, K = 1 without weights
        if weights is None:
            post = post[None]
        else:
            post = post * weights.reshape(weights.shape[:1] + (1,) * (last - 1) + weights.shape[1:])
        onehot = (index[:, None] == np.arange(size)).astype(np.float64)
        sums = (post.reshape(-1, n) @ onehot).reshape(post.shape[:-1] + (size,))
        full = sums.transpose((last + 1,) + tuple(range(1, last + 1)) + (0,))
    else:
        full = np.zeros((size,) + post.shape)
        full[index, ..., np.arange(n)] = post.transpose((last,) + tuple(range(last)))
    return _family_table(cpt, full.reshape(cpt.fixed_shape + full.shape[1:]))


def _normalize(joint: np.ndarray, what: str) -> np.ndarray:
    """Each (probe, case) column of `joint` divided by its total."""
    total = _case_totals(joint)
    _raise_zero(total, what)
    return joint / total


def _case_first(post: np.ndarray, n_cases: int) -> np.ndarray:
    """A case-last array viewed case-first, broadcast to n_cases cases."""
    post = post.transpose([post.ndim - 1, *range(post.ndim - 1)])
    if post.shape[0] == n_cases:
        return post
    return np.broadcast_to(post, (n_cases,) + post.shape[1:])


def _root_loglik(root: np.ndarray, logscale: np.ndarray | float, n_cases: int, what: str) -> np.ndarray:
    """log P(y) of each (probe, case) column from a full elimination's root and its log-scales."""
    total = np.broadcast_to(root, root.shape[:-1] + (n_cases,))
    _raise_zero(total, what)
    return np.log(total) + logscale


def _raise_zero(total: np.ndarray, what: str) -> None:
    """Report the first case with a (probe, case) total that is not positive."""
    # the ufunc's own reduce is the cheapest test on a few columns; a NaN
    # propagates through it and fails the test too
    if not np.minimum.reduce(total, axis=None, initial=np.inf) > 0.0:
        raise ZeroProbabilityError.of_row(int(np.nonzero(~(total > 0.0))[-1].min()), f"{what}:")


def _posteriors(
    plan: _Plan,
    tables: Sequence[np.ndarray],
    values: np.ndarray,
    summed: bool,
    weigh: Callable[[np.ndarray], np.ndarray] | None = None,
    part: int | None = None,
) -> tuple[list[np.ndarray | None], np.ndarray, np.ndarray | None]:
    """Family posteriors from one forward elimination and its reverse sweep.

    Every family is its bucket's J summed to its scope, and one output
    step makes it the result: per (probe, case) column divided by its
    total in a checked replay only, scattered back over the fixed axes
    for a gathered family (`_scatter`), and summed over the cases with
    `summed`, which an unchecked, unconditioned replay does to each
    bucket's J instead.

    Returns per family its (q_i, r_i, P, N) posteriors, or with `summed`
    their case sums, (q_i, r_i, P, 1); the (P, N) log-likelihoods; and the
    weights.  `weigh`, called between the sweeps, maps the log-likelihoods
    to (K, P, N) weights W, and the case sums become the (q_i, r_i, P, K)
    weighted ones (`_case_sums`).

    With a `part` (`_Plan.part`), the reverse sweep replays only that
    part's steps and its slot of the last step, and the other families get
    None: P(y) is the product of the parts' messages and the folded terms,
    so a family's posteriors depend on the tables of its own part only.
    Part -1, a folded table's, replays nothing.
    """
    n_vars = len(plan.cpts)
    n_cases = values.shape[0]
    factors, root, logscale, checked = _forward(plan, tables, values, "family posteriors", keep=True)
    loglik = _root_loglik(root, logscale, n_cases, "family posteriors")
    weights = None if weigh is None else weigh(loglik)
    index = _fixed_index(plan, values) if plan.fixed else None

    # The unchecked root has log-scale 0: seeded with 1 / P(y), every
    # bucket's J holds posteriors.  A checked J holds them up to a factor
    # per column, which each family divides out.
    adjoints = {len(factors) - 1: np.ones((1, 1)) if checked else 1.0 / root}
    # an unconditioned E-step sums each J over the cases once per bucket
    contract = summed and not checked and not plan.fixed
    posteriors: list[np.ndarray | None] = [None] * n_vars
    last = len(plan.steps) - 1
    for k in reversed(range(len(plan.steps))):
        step = plan.steps[k]
        slots = range(len(step.ids))
        if part is not None:
            if k == last:
                if part < 0:
                    break
                slots = (part,)
            elif plan.part[n_vars + k] != part:
                continue
        upstream = _aligned(adjoints.pop(n_vars + k), step.upstream)
        aligned = [_aligned(factors[u], shape) for u, shape in zip(step.ids, step.shapes)]
        # The last step of a conditioned plan multiplies scalar messages
        # only: the adjoint of message m is P(y) / m, which is 1 / m with
        # the seed 1 / P(y), and a multiple of it per column otherwise.
        reciprocal = step.axis is None and plan.fixed
        # A bucket's CPT factors come before its messages and are taken
        # after them: a message's product with the others and upstream,
        # times the message, is J.
        joint = None
        for p in reversed(slots):
            t = step.ids[p]
            if t < n_vars:
                if joint is None:
                    joint = reduce(np.multiply, aligned + [upstream])
                    joint = _case_sums(joint, weights, n_cases) if contract else joint
                own = joint.sum(axis=step.sums[p]) if step.sums[p] else joint
                if checked:
                    own = _normalize(own, "family posteriors")
                cpt = plan.cpts[t]
                if cpt.fixed_shape:
                    posteriors[t] = _scatter(cpt, own, index[t], weights, summed)
                else:
                    own = _family_table(cpt, own)
                    posteriors[t] = _case_sums(own, weights, n_cases) if summed and not contract else own
                continue
            if reciprocal:
                adj = 1.0 / aligned[p]
            else:
                # The bucket's other factors first: their product is mostly
                # smaller than the union, which the upstream adjoint nearly spans.
                adj = reduce(np.multiply, aligned[:p] + aligned[p + 1:] + [upstream])
                if joint is None and step.ids[0] < n_vars:
                    joint = adj * aligned[p]
                    joint = _case_sums(joint, weights, n_cases) if contract else joint
            if step.sums[p]:
                adj = adj.sum(axis=step.sums[p])
            div = _case_divisors(adj, 1.0 / RESCALE_TRIGGER) if checked else None
            if div is not None:
                adj = adj / div
            shape = plan.steps[t - n_vars].out_shape + adj.shape[-2:]
            adjoints[t] = adj if adj.shape == shape else np.broadcast_to(adj, shape)
        for t in step.ids:
            factors[t] = None
    # a folded family's posterior is its case's configuration, one-hot
    for t in plan.folded if part is None else ():
        posteriors[t] = _scatter(plan.cpts[t], np.ones((1, n_cases)), index[t], weights, summed)
    return posteriors, loglik, weights


# -- public single-case operations ----------------------------------------


def _case_row(network: Network, case: DataCase) -> np.ndarray:
    """The case as a one-row batch, checked against the network's structure."""
    _check_states(network.structure, case.states[None], "the case")
    return case.states[None]


def joint_probability(network: Network, case: DataCase) -> float:
    """Chain-rule product for a fully observed case."""
    if np.any(_case_row(network, case) < 0):
        raise ValidationError("joint_probability requires a fully observed case")
    return float(_assignment_weights(network, case.states[None, :])[0])


def log_marginal_likelihood(network: Network, case: DataCase) -> float:
    """log P(observed part of the case), by variable elimination."""
    lls = log_likelihood_cases(network, _case_row(network, case))
    return float(lls[0])


def log_likelihood_cases(network: Network, values: np.ndarray) -> np.ndarray:
    """log P(y) for every row of an (N, V) case matrix."""
    plan = _plan_of(network.structure, frozenset(range(network.structure.n_vars)), values)
    _, root, logscale, _ = _forward(plan, network.theta.tables, values, "log-likelihood")
    return _root_loglik(root, logscale, values.shape[0], "log-likelihood")[0]


def family_posteriors(network: Network, case: DataCase) -> list[np.ndarray]:
    """P(X_i = k, Pa_i = j | case) for every family, CPT-shaped."""
    post, _ = batch_family_posteriors(network, _case_row(network, case))
    return [p[0] for p in post]


def batch_family_posteriors(
    network: Network, values: np.ndarray, summed: bool = False
) -> tuple[list[np.ndarray], np.ndarray]:
    """Family posteriors for every case row, plus per-case log-likelihoods.

    Returns ([(N, q_i, r_i) arrays], (N,) log-likelihood vector), both
    from one forward elimination and its reverse sweep.  With `summed`,
    each family's array is its (q_i, r_i) sum over the N cases instead,
    the expected counts sum_c P(x_i, pa_i | y_c).
    """
    plan = _plan_of(network.structure, frozenset(range(network.structure.n_vars)), values)
    out, loglik, _ = _posteriors(plan, network.theta.tables, values, summed)
    if summed:
        return [a[..., 0, 0] for a in out], loglik[0]
    return [_case_first(p[..., 0, :], values.shape[0]) for p in out], loglik[0]


def probe_case_sums(
    network: Network,
    block: np.ndarray,
    rows: np.ndarray,
    table: int,
    probed: np.ndarray,
    weigh: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[np.ndarray | None], np.ndarray]:
    """Weighted case sums of the family posteriors under P probed copies of
    one table, over the cases `rows` of the batch `block`.

    `probed` is a (P, q, r) stack of copies of table `table`; every other
    table is the network's.  The stack rides the probe axis, so one replay
    of the plan of `block`, on `block[rows]`, answers every probe.  `weigh`
    maps the (P, N) log-likelihoods to (K, P, N) weights W before the
    reverse sweep, and may raise.  Returns per family the (q_i, r_i, P, K)
    sums sum_c W[k, p, c] P_p(x, pa | y_c), and W.

    The families outside the probed table's part (`table_parts(network,
    block)`; all of them for a folded table) are None: their posteriors
    are the unprobed ones under every probe, and the reverse sweep does
    not replay their parts.
    """
    plan = _plan_of(network.structure, frozenset(range(network.structure.n_vars)), block)
    tables = list(network.theta.tables)
    tables[table] = probed
    out, _, weights = _posteriors(plan, tables, block[rows], True, weigh, plan.part[table])
    return out, weights


def table_parts(network: Network, values: np.ndarray) -> tuple[int, ...]:
    """Each table's part of the plan for the batch `values`, -1 for a folded table.

    Tables of one part share the part's scalar message in the last step,
    so their posteriors and that message, per case, depend only on the
    case's values on the part's family variables (see `_Plan.part`).
    """
    n_vars = network.structure.n_vars
    return _plan_of(network.structure, frozenset(range(n_vars)), values).part[:n_vars]


def batch_posterior_marginals(network: Network, values: np.ndarray, var_ids: list[int]) -> np.ndarray:
    """Joint posterior over `var_ids`, axes in the given order, for every
    row of an (N, V) case matrix; a read-only view when no case has evidence."""
    n_vars = network.structure.n_vars
    for v in var_ids:
        check_number(v, "query variable", integer=True, low=0, high=n_vars - 1)
    if len(set(var_ids)) != len(var_ids):
        raise ValidationError("duplicate variables in marginal query")
    elim = frozenset(range(n_vars)) - frozenset(var_ids)
    plan = _plan_of(network.structure, elim, values)
    _, root, _, _ = _forward(plan, network.theta.tables, values, "marginal query")
    n = len(var_ids)
    joint = root.transpose([plan.root_scope.index(v) for v in var_ids] + [n, n + 1])
    return _case_first(_normalize(joint, "marginal query")[..., 0, :], values.shape[0])


def posterior_marginal(network: Network, case: DataCase, var_ids: list[int]) -> np.ndarray:
    """Joint posterior over the given variables, axes in the given order."""
    return batch_posterior_marginals(network, _case_row(network, case), var_ids)[0]


def parent_config_marginals(network: Network) -> list[np.ndarray]:
    """Exact prior P(Pa_i = j) for every variable, as (q_i,) arrays."""
    s = network.structure
    empty = DataCase(np.full(s.n_vars, MISSING, dtype=np.int64))
    post = family_posteriors(network, empty)
    return [p.sum(axis=1) for p in post]


# -- enumeration oracle ----------------------------------------------------


def _completions(structure: NetworkStructure, case_states: np.ndarray) -> np.ndarray:
    """All full assignments consistent with the case, as an (T, V) matrix."""
    free = [i for i in range(structure.n_vars) if case_states[i] < 0]
    t = 1
    for v in free:
        t *= structure.arity(v)
        if t > MAX_ENUM_STATES:
            raise ValidationError(f"state space too large to enumerate (> {MAX_ENUM_STATES})")
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
        w *= network.theta.tables[i][parent_rows(s, i, full), full[:, i]]
    return w


def enumerate_case_probability(network: Network, case: DataCase) -> float:
    """P(observed part of the case) by summing all completions."""
    full = _completions(network.structure, _case_row(network, case)[0])
    return float(_assignment_weights(network, full).sum())


def enumerate_family_posteriors(network: Network, case: DataCase) -> list[np.ndarray]:
    """Same contract as family_posteriors, via exhaustive summation."""
    s = network.structure
    full = _completions(s, _case_row(network, case)[0])
    w = _assignment_weights(network, full)
    total = w.sum()
    if not total > 0.0:
        raise ZeroProbabilityError(
            "enumeration: evidence has probability 0", case_index=None
        )
    out = []
    for i in range(s.n_vars):
        acc = np.zeros(s.table_shape(i))
        np.add.at(acc, (parent_rows(s, i, full), full[:, i]), w)
        out.append(acc / total)
    return out


def enumerate_joint(network: Network) -> np.ndarray:
    """The full joint as a flat array, C-ordered over declared variables."""
    s = network.structure
    empty = np.full(s.n_vars, MISSING, dtype=np.int64)
    full = _completions(s, empty)
    return _assignment_weights(network, full)
