"""The four workloads: seeded set-up, one measured pass, correctness gates.

Every call into bnfit goes through a module attribute (``estimation.fit``,
not ``from bnfit import fit``), so that the traced run's wrappers see it.
The wrappers are installed only around the measured calls; the gates run
afterwards, untraced and untimed.

An operation is a fit, a spectral report, a stream case or a query.  It
fails if it raises, if a stream case is skipped, or if a gate rejects its
result.

Each pass reports two end-to-end timings, ``primary_ms`` and
``secondary_ms``; what they time differs by workload and is listed in
``README.md``.  The phase timings are also reported under their own
names (``fit_s``, ``online_ms_p50``, ...) for people reading the output.
A pass calls ``pause()`` between its timed phases, outside every timing;
the runner times set-ups there, so that they sample the machine's speed
all through the run.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from bnfit import estimation, harness, inference, model, netio, networks, online, spectral

from tracing import Tracer

TWOLAYER_HIDDEN = ("V0", "V2", "V4")
QUERY_TARGETS = ("V4", "V7", "V13")

# Fits run a fixed number of updates.  A fit to tol_ll=1e-6 on
# twolayer15 with V0, V2 and V4 hidden takes 90 to 640 updates depending
# on the seed (6 to 48 s), which no per-run time budget can absorb; 108
# updates is the length of the fit this workload was sized on.
TWOLAYER_UPDATES = 108
DAG50_UPDATES = 4

# Cap on the spectral fixpoint search; reaching it fails the gate.
FIXPOINT_MAX_ITERS = 1000

# evaluate_queries and the log-likelihood pass are short next to the fit
# they follow, so they are repeated and their mean time is kept.
EVAL_REPEATS = 5
LL_REPEATS = 20

ORACLE_CASES = 16
STREAM_CHECKS = 8
STREAM_PAUSE_EVERY = 200

# The 50-node DAG's structure is fixed: the cost of an E-step varies
# eightfold between random structures, which would swamp the timing.
# Its tables, data, missingness and initial point come from the seed.
DAG50_STRUCTURE_SEED = 2
DAG50_VARS = 50
DAG50_WINDOW = 6
DAG50_MAX_PARENTS = 3

TOL_ORACLE = 1e-10
TOL_LL = 1e-9


@dataclass(frozen=True)
class Inputs:
    network: model.Network
    data: netio.DataSet
    test: netio.DataSet | None
    init_seed: int


@dataclass
class Pass:
    """One pass of a workload: timings, counts and gate failures."""

    seconds: float
    primary_ms: float
    secondary_ms: float
    report: dict[str, tuple[float, str]]
    fit_iters: int
    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, operations: int, messages: list[str]) -> None:
        """Count ``operations`` as failed if there are failure messages."""
        if messages:
            self.failed += operations
            self.messages.extend(messages)


def _traced(tracer: Tracer | None, phase: str):
    return tracer.installed(phase) if tracer is not None else contextlib.nullcontext()


def _timed(fn: Callable, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _seeds(seed: int, n: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


def _roundtrip(network: model.Network, name: str, *datasets: netio.DataSet):
    """Write the inputs as network JSON and dataset CSV, then parse them back."""
    parsed = netio.parse_network(netio.serialize_network(network, name=name))
    return parsed, [netio.load_dataset(netio.format_dataset(d), parsed.structure) for d in datasets]


def _sample(network, n, hidden, obscure_prob, sample_seed, mask_seed, keep=()) -> netio.DataSet:
    """Sample n cases and obscure them; variables in ``keep`` stay observed."""
    complete = harness.forward_sample(network, n, sample_seed)
    data = harness.obscure(complete, harness.MissingnessSpec(hidden, obscure_prob, mask_seed))
    if not keep:
        return data
    values = data.values.copy()
    values[:, keep] = complete.values[:, keep]
    return netio.DataSet(data.structure, values)


def _fixed_updates(updates: int, init_seed: int) -> estimation.FitConfig:
    return estimation.FitConfig(
        rule="em", eta=1.8, max_iters=updates, tol_ll=None, tol_param=0.0,
        init="random", seed=init_seed, warm_start_em1=True,
    )


def warm_up(inputs: Inputs) -> None:
    """Fill the elimination-order cache and numpy's first-call paths."""
    head = inputs.data.values[:4]
    inference.batch_family_posteriors(inputs.network, head)
    inference.log_likelihood_cases(inputs.network, head)


# -- correctness gates --------------------------------------------------------
# Each returns a list of failure messages; an empty list means it passed.


def gate_posteriors_match(got: list[list[np.ndarray]], want: list[list[np.ndarray]]) -> list[str]:
    """Per case and family: batched posteriors against the enumeration oracle."""
    out = []
    for c, (g_case, w_case) in enumerate(zip(got, want)):
        for i, (g, w) in enumerate(zip(g_case, w_case)):
            err = float(np.max(np.abs(g - w)))
            if not err <= TOL_ORACLE:
                out.append(f"case {c} family {i}: posterior off the oracle by {err:.3g}")
    return out


def gate_fit(result: estimation.FitResult, independent_ll: float, updates: int) -> list[str]:
    out = []
    if result.termination != "max_iters" or result.iterations != updates:
        out.append(f"fit ended by {result.termination} after {result.iterations} updates, expected {updates}")
    gap = abs(result.trace[-1].train_ll - independent_ll)
    if not gap <= TOL_LL:
        out.append(f"final train_ll differs from log_likelihood_cases by {gap:.3g}")
    return out


def gate_report(report: spectral.SpectralReport) -> list[str]:
    out = []
    if not report.theta_residual < 1e-6:
        out.append(f"report residual {report.theta_residual:.3g} >= 1e-6")
    want = 2.0 / (report.lambda_min + report.lambda_max)
    if not math.isclose(report.eta_star, want, rel_tol=1e-12):
        out.append(f"eta_star {report.eta_star!r} != 2/(lmin+lmax) = {want!r}")
    if not report.eta_star > 1.0:
        out.append(f"eta_star {report.eta_star!r} <= 1")
    return out


def gate_family_posteriors(posts: list[np.ndarray], lls: np.ndarray, independent: np.ndarray) -> list[str]:
    out = []
    for i, p in enumerate(posts):
        err = float(np.max(np.abs(p.sum(axis=(1, 2)) - 1.0)))
        if not err <= TOL_LL:
            out.append(f"family {i}: posteriors sum to 1 only within {err:.3g}")
    gap = float(np.max(np.abs(lls - independent)))
    if not gap <= TOL_LL:
        out.append(f"batch_family_posteriors log-likelihood off log_likelihood_cases by {gap:.3g}")
    return out


def gate_queries(errors: dict, expected: dict[str, tuple[int, float]]) -> dict[str, str]:
    """A failure message for each target whose query count or mean
    absolute error differs from ``expected``: (count, mean error)."""
    out = {}
    for target, (n, mean_abs) in expected.items():
        entry = errors["targets"].get(target)
        if entry is None or entry["n_cases"] != n:
            got = None if entry is None else entry["n_cases"]
            out[target] = f"target {target}: {got} queries answered, expected {n}"
        elif n and not abs(entry["mean_abs"] - mean_abs) <= TOL_LL:
            out[target] = f"target {target}: mean absolute error {entry['mean_abs']!r}, expected {mean_abs!r}"
    return out


def gate_case_ll(got: float | None, want: float) -> list[str]:
    if got is None or not abs(got - want) <= TOL_LL:
        return [f"case log-likelihood {got!r} != {want!r}"]
    return []


def gate_tables(theta: model.ParameterVector) -> list[str]:
    out = []
    for i, t in enumerate(theta.tables):
        if not (np.all(t > 0.0) and np.all(np.abs(t.sum(axis=1) - 1.0) <= TOL_LL)):
            out.append(f"table {i} is not a set of distributions")
    return out


# -- fit-twolayer15 -----------------------------------------------------------


def setup_fit_twolayer15(seed: int) -> Inputs:
    s = _seeds(seed, 5)
    truth = networks.twolayer15()
    train = _sample(truth, 1000, TWOLAYER_HIDDEN, 0.2, s[0], s[1])
    test = _sample(truth, 500, TWOLAYER_HIDDEN, 0.2, s[2], s[3])
    net, (train, test) = _roundtrip(truth, "twolayer15", train, test)
    return Inputs(net, train, test, s[4])


def _query_counts(inputs: Inputs) -> dict[str, int]:
    s = inputs.network.structure
    return {
        t: int(np.sum(inputs.test.values[:, s.by_name(t).index] == netio.MISSING))
        for t in QUERY_TARGETS
    }


def _expected_queries(learned: model.Network, truth: model.Network, test: netio.DataSet):
    """(count, mean absolute error) per target, from the targets' family
    posteriors: a batched route independent of posterior_marginal."""
    p_learned, _ = inference.batch_family_posteriors(learned, test.values)
    p_true, _ = inference.batch_family_posteriors(truth, test.values)
    out = {}
    for t in QUERY_TARGETS:
        i = truth.structure.by_name(t).index
        missing = test.values[:, i] == netio.MISSING
        diff = np.abs(p_learned[i][missing].sum(axis=1) - p_true[i][missing].sum(axis=1))
        out[t] = (int(missing.sum()), float(diff.mean(axis=1).mean()) if missing.any() else 0.0)
    return out


def run_fit_twolayer15(inputs: Inputs, tracer: Tracer | None, pause: Callable[[], object]) -> Pass:
    queries = _query_counts(inputs)
    spec = harness.EvalSpec(QUERY_TARGETS)
    t_start = time.perf_counter()
    with _traced(tracer, "fit"):
        result, fit_s = _timed(
            estimation.fit, inputs.network, inputs.data,
            _fixed_updates(TWOLAYER_UPDATES, inputs.init_seed), inputs.test,
        )
    learned = inputs.network.with_theta(result.theta)
    pause()
    evals = []
    for _ in range(EVAL_REPEATS):
        with _traced(tracer, "eval"):
            evals.append(_timed(harness.evaluate_queries, learned, inputs.network, inputs.test, spec))
        pause()
    seconds = time.perf_counter() - t_start
    eval_s = statistics.fmean(t for _, t in evals)

    out = Pass(
        seconds=seconds,
        primary_ms=1000.0 * fit_s,
        secondary_ms=1000.0 * eval_s,
        report={"fit_s": (fit_s, "s"), "fit_iters": (result.iterations, "count"), "eval_s": (eval_s, "s")},
        fit_iters=result.iterations,
        attempted=1 + sum(queries.values()) * EVAL_REPEATS,
    )
    ll = float(np.mean(inference.log_likelihood_cases(learned, inputs.data.values)))
    rows = np.sort(np.random.default_rng(inputs.init_seed).choice(len(inputs.data), ORACLE_CASES, replace=False))
    posts, _ = inference.batch_family_posteriors(learned, inputs.data.values[rows])
    got = [[p[c] for p in posts] for c in range(len(rows))]
    want = [inference.enumerate_family_posteriors(learned, inputs.data.case(int(l))) for l in rows]
    out.fail(1, gate_fit(result, ll, TWOLAYER_UPDATES) + gate_posteriors_match(got, want))
    expected = _expected_queries(learned, inputs.network, inputs.test)
    for errors, _ in evals:
        for target, message in gate_queries(errors, expected).items():
            out.fail(queries[target], [message])
    return out


# -- online-twolayer15 --------------------------------------------------------

SCHEDULES = (
    ("inverse_t", online.LearningRateSchedule.inverse_t(2.0, 20.0)),
    ("per_row", online.LearningRateSchedule.per_row_count()),
)


def setup_online_twolayer15(seed: int) -> Inputs:
    s = _seeds(seed, 3)
    truth = networks.twolayer15()
    stream = _sample(truth, 1000, TWOLAYER_HIDDEN, 0.2, s[0], s[1])
    net, (stream,) = _roundtrip(truth, "twolayer15", stream)
    return Inputs(net, stream, None, s[2])


@dataclass
class _Stream:
    """One schedule's pass over the stream: model state, per-step
    latencies, skipped cases and the cases sampled for the gate."""

    schedule: online.LearningRateSchedule
    state: online.OnlineState
    latencies: list[float] = field(default_factory=list)
    skipped: int = 0
    samples: list = field(default_factory=list)

    def step(self, case: netio.DataCase, checked: bool) -> None:
        """Time one ``online_em_step``.  A case with probability zero is
        skipped the way ``run_stream`` skips it: the step counter
        advances and the model stays put."""
        before = self.state
        t0 = time.perf_counter()
        try:
            self.state = online.online_em_step(before, case, self.schedule)
        except model.ZeroProbabilityError:
            self.state = replace(before, t=before.t + 1, last_case_ll=None)
            self.skipped += 1
            checked = False
        self.latencies.append(time.perf_counter() - t0)
        if checked:
            self.samples.append((before.network, case, self.state.last_case_ll))


def run_online_twolayer15(inputs: Inputs, tracer: Tracer | None, pause: Callable[[], object]) -> Pass:
    start = inputs.network.with_theta(model.random_init(inputs.network.structure, inputs.init_seed))
    cases = inputs.data.cases()
    rng = np.random.default_rng(inputs.init_seed)
    checked = set(int(l) for l in rng.choice(len(cases), STREAM_CHECKS, replace=False))
    streams = {label: _Stream(schedule, online.init_online_state(start)) for label, schedule in SCHEDULES}
    # The two schedules take turns case by case, so that both see the
    # same stretch of the machine's varying speed.
    t_start = time.perf_counter()
    for l, case in enumerate(cases):
        for label, stream in streams.items():
            with _traced(tracer, f"stream.{label}"):
                stream.step(case, l in checked)
        if (l + 1) % STREAM_PAUSE_EVERY == 0:
            pause()
    seconds = time.perf_counter() - t_start

    p = {
        (label, q): 1000.0 * float(np.percentile(stream.latencies, q))
        for label, stream in streams.items() for q in (50, 99)
    }
    out = Pass(
        seconds=seconds,
        primary_ms=p["inverse_t", 50],
        secondary_ms=p["per_row", 50],
        report={
            "online_ms_p50": (p["inverse_t", 50], "ms"),
            "online_ms_p99": (p["inverse_t", 99], "ms"),
            "online_per_row_ms_p50": (p["per_row", 50], "ms"),
            "online_per_row_ms_p99": (p["per_row", 99], "ms"),
        },
        fit_iters=0,
        attempted=len(cases) * len(SCHEDULES),
    )
    for label, stream in streams.items():
        if stream.skipped:
            out.fail(stream.skipped, [f"{label}: {stream.skipped} cases skipped as impossible"])
        out.fail(1, [f"{label}: final {m}" for m in gate_tables(stream.state.theta)])
        for before, case, got in stream.samples:
            want = float(inference.log_likelihood_cases(before, case.states[None, :])[0])
            out.fail(1, [f"{label}: {m}" for m in gate_case_ll(got, want)])
    return out


# -- spectral-twolayer15 ------------------------------------------------------

REPORT_ETAS = [1.0, 1.8]


def setup_spectral_twolayer15(seed: int) -> Inputs:
    """500 cases, nothing hidden, 0.2 obscured except the five roots.

    With the roots obscured too, rows whose parent configuration is rare
    and uncertain make EM(1.8)'s fixpoint take thousands of updates on
    some seeds; with them observed it takes 40 to 60 on every seed tried.
    """
    s = _seeds(seed, 3)
    truth = networks.twolayer15()
    roots = [i for i in range(truth.structure.n_vars) if not truth.structure.parents[i]]
    data = _sample(truth, 500, (), 0.2, s[0], s[1], keep=roots)
    net, (data,) = _roundtrip(truth, "twolayer15", data)
    return Inputs(net, data, None, s[2])


def run_spectral_twolayer15(inputs: Inputs, tracer: Tracer | None, pause: Callable[[], object]) -> Pass:
    config = estimation.FitConfig(
        rule="em", eta=1.8, max_iters=FIXPOINT_MAX_ITERS, tol_ll=None, tol_param=1e-10,
        init="random", seed=inputs.init_seed, warm_start_em1=True,
    )
    t_start = time.perf_counter()
    with _traced(tracer, "fixpoint"):
        result, fixpoint_s = _timed(estimation.fit, inputs.network, inputs.data, config)
    at_fixpoint = inputs.network.with_theta(result.theta)
    pause()
    with _traced(tracer, "report"):
        report, spectral_s = _timed(spectral.build_report, at_fixpoint, inputs.data, REPORT_ETAS)
    pause()
    seconds = time.perf_counter() - t_start

    out = Pass(
        seconds=seconds,
        primary_ms=1000.0 * spectral_s,
        # per E-step: the fixpoint's length varies with the seed
        secondary_ms=1000.0 * fixpoint_s / (result.iterations + 1),
        report={
            "fixpoint_s": (fixpoint_s, "s"),
            "fixpoint_iters": (result.iterations, "count"),
            "spectral_s": (spectral_s, "s"),
            "eta_star": (report.eta_star, "1"),
        },
        fit_iters=result.iterations,
        attempted=2,
    )
    if result.termination != "tol_param":
        out.fail(1, [f"fixpoint: fit ended by {result.termination}"])
    out.fail(1, [f"report: {m}" for m in gate_report(report)])
    return out


# -- fit-dag50 ----------------------------------------------------------------


def dag50_structure() -> model.NetworkStructure:
    """50 variables of arity 2 or 3, each with at most 3 parents drawn
    from the previous 6 variables, which keeps the induced width bounded."""
    rng = np.random.default_rng(DAG50_STRUCTURE_SEED)
    variables = []
    parents = []
    for i in range(DAG50_VARS):
        r = int(rng.choice((2, 3)))
        variables.append(model.Variable(i, f"X{i}", tuple(f"s{k}" for k in range(r))))
        window = np.arange(max(0, i - DAG50_WINDOW), i)
        k = int(rng.integers(0, min(DAG50_MAX_PARENTS, window.size) + 1))
        parents.append(tuple(sorted(int(p) for p in rng.choice(window, size=k, replace=False))))
    return model.NetworkStructure(tuple(variables), tuple(parents))


def _dag50_tables(structure: model.NetworkStructure, rng: np.random.Generator) -> model.ParameterVector:
    """Dirichlet(1.5) rows blended toward uniform: every entry is at least 0.05."""
    tables = []
    for i in range(structure.n_vars):
        q, r = structure.table_shape(i)
        rows = (1.0 - 0.05 * r) * rng.dirichlet(np.full(r, 1.5), size=q) + 0.05
        tables.append(rows / rows.sum(axis=1, keepdims=True))
    return model.ParameterVector(tables)


def setup_fit_dag50(seed: int) -> Inputs:
    s = _seeds(seed, 4)
    structure = dag50_structure()
    truth = model.Network(structure, _dag50_tables(structure, np.random.default_rng(s[0])))
    hidden = tuple(v.name for v in structure.variables[::5])
    data = _sample(truth, 1000, hidden, 0.3, s[1], s[2])
    net, (data,) = _roundtrip(truth, "dag50", data)
    return Inputs(net, data, None, s[3])


def run_fit_dag50(inputs: Inputs, tracer: Tracer | None, pause: Callable[[], object]) -> Pass:
    t_start = time.perf_counter()
    with _traced(tracer, "fit"):
        result, fit_s = _timed(
            estimation.fit, inputs.network, inputs.data, _fixed_updates(DAG50_UPDATES, inputs.init_seed)
        )
    learned = inputs.network.with_theta(result.theta)
    pause()
    lls = []
    for _ in range(LL_REPEATS):
        with _traced(tracer, "ll"):
            lls.append(_timed(inference.log_likelihood_cases, learned, inputs.data.values))
    pause()
    seconds = time.perf_counter() - t_start
    ll_s = statistics.fmean(t for _, t in lls)

    out = Pass(
        seconds=seconds,
        primary_ms=1000.0 * fit_s,
        secondary_ms=1000.0 * ll_s,
        report={"fit_s": (fit_s, "s"), "ll_pass_s": (ll_s, "s")},
        fit_iters=result.iterations,
        attempted=1,
    )
    independent = lls[0][0]
    posts, post_lls = inference.batch_family_posteriors(learned, inputs.data.values)
    out.fail(1, gate_fit(result, float(np.mean(independent)), DAG50_UPDATES)
             + gate_family_posteriors(posts, post_lls, independent))
    return out


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Inputs]
    run: Callable[[Inputs, Tracer | None, Callable[[], object]], Pass]
    operations: Callable[[Inputs], int]


WORKLOADS = {
    "fit-twolayer15": Workload(
        setup_fit_twolayer15, run_fit_twolayer15,
        lambda inputs: 1 + sum(_query_counts(inputs).values()) * EVAL_REPEATS,
    ),
    "online-twolayer15": Workload(
        setup_online_twolayer15, run_online_twolayer15,
        lambda inputs: len(inputs.data) * len(SCHEDULES),
    ),
    "spectral-twolayer15": Workload(setup_spectral_twolayer15, run_spectral_twolayer15, lambda inputs: 2),
    "fit-dag50": Workload(setup_fit_dag50, run_fit_dag50, lambda inputs: 1),
}
