"""Data generation, evaluation metrics, and the experiment driver.

The experimental protocol: draw complete cases from a true network,
partition variables into hidden / input / output roles, obscure the data
(hidden variables always, everything else independently with a fixed
probability), estimate parameters from the obscured training data with
one or more (rule, eta) arms sharing a single initial point, and score
each arm by held-out likelihood and by query error on the output
variables.

The obscuring decision never looks at the sampled values, only at
(seed, case index, variable index), so the missingness is ignorable and
re-running with different CPTs under the same seed yields the identical
mask.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .estimation import RULES, FitConfig, fit
from .inference import _case_row, batch_posterior_marginals, posterior_marginal
from .model import (
    BnError, Network, ValidationError, ZeroProbabilityError, check_number, check_same_structure,
    parent_rows,
)
from .netio import (
    MISSING,
    DataCase,
    DataSet,
    read_network,
    write_dataset,
    write_network,
    write_text,
    write_trace,
)
from .networks import builtin_network


# -- sampling ---------------------------------------------------------------


def forward_sample(network: Network, n: int, seed: int) -> DataSet:
    """Ancestral sampling: n complete cases, deterministic per seed."""
    check_number(n, "the number of cases", integer=True, low=0)
    check_number(seed, "seed", integer=True, low=0)
    s = network.structure
    rng = np.random.default_rng(seed)
    try:
        values = np.zeros((n, s.n_vars), dtype=np.int64)
    except (ValueError, MemoryError):
        raise ValidationError(f"the number of cases {n} is too large to hold in memory") from None
    for i in s.topo_order:
        rows = network.theta.tables[i][parent_rows(s, i, values)]
        u = rng.random(n)
        cum = np.cumsum(rows, axis=1)
        values[:, i] = np.minimum((u[:, None] > cum).sum(axis=1), s.arity(i) - 1)
    return DataSet(s, values)


@dataclass(frozen=True)
class MissingnessSpec:
    """Hidden variables are always missing; every other value is missing
    independently with probability obscure_prob."""

    hidden: tuple[str, ...]
    obscure_prob: float
    seed: int

    def __post_init__(self):
        check_number(self.obscure_prob, "obscure_prob", low=0, high=1)
        check_number(self.seed, "seed", integer=True, low=0)


def obscure(cases: DataSet, spec: MissingnessSpec) -> DataSet:
    s = cases.structure
    hidden_ids = [s.by_name(name).index for name in spec.hidden]
    if np.any(cases.values < 0):
        raise ValidationError("obscure expects complete cases")
    rng = np.random.default_rng(spec.seed)
    mask = rng.random(cases.values.shape) < spec.obscure_prob
    values = cases.values.copy()
    values[mask] = MISSING
    for i in hidden_ids:
        values[:, i] = MISSING
    return DataSet(s, values)


def sample_obscured(
    network: Network, n: int, hidden: tuple[str, ...], obscure_prob: float, seed: int
) -> DataSet:
    """The seed convention of `bnfit sample` and of both datasets of `run_experiment`:
    n cases drawn with `seed`, then obscured with `seed + 1`."""
    return obscure(forward_sample(network, n, seed), MissingnessSpec(hidden, obscure_prob, seed + 1))


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EvalSpec:
    """The target variables of a query evaluation, by name, each once."""

    targets: tuple[str, ...]

    def __post_init__(self):
        if not (isinstance(self.targets, tuple) and all(isinstance(x, str) for x in self.targets)):
            raise ValidationError(f"targets must be a tuple of variable names, got {self.targets!r}")
        twice = sorted({x for x in self.targets if self.targets.count(x) > 1})
        if twice:
            raise ValidationError(f"targets name {', '.join(map(repr, twice))} more than once")


@dataclass(frozen=True)
class QueryError:
    """Per-target-state errors for one case, plus their state averages.

    ``relative`` is None when every state of the target has probability
    zero under the true network (those states are excluded and counted).
    """

    absolute: float
    relative: float | None
    per_state: tuple[tuple[float, float | None], ...]
    n_rel_excluded: int


def _mean(x: np.ndarray) -> float | None:
    """Mean of the non-NaN entries, None when there are none."""
    x = x[~np.isnan(x)]
    return float(np.mean(x)) if x.size else None


def _errors(states: tuple[str, ...], p_learned: np.ndarray, p_true: np.ndarray):
    """Error report of (N, r) learned posteriors of a target against true
    ones, with its per-case absolute and relative errors.  A relative
    error is NaN, and excluded, where the true probability is 0, and for
    a case where that holds in every state."""
    absolute = np.abs(p_learned - p_true)
    kept = p_true > 0.0
    relative = np.divide(absolute, p_true, out=np.full_like(absolute, np.nan), where=kept)
    case_abs = absolute.mean(axis=1)
    with np.errstate(invalid="ignore"):
        case_rel = np.where(kept, relative, 0.0).sum(axis=1) / kept.sum(axis=1)
    entry = {
        "n_cases": len(absolute),
        "mean_abs": _mean(case_abs),
        "mean_rel": _mean(case_rel),
        "n_rel_excluded": int(np.sum(~kept)),
        "per_state": [
            {"state": name, "mean_abs": _mean(absolute[:, k]), "mean_rel": _mean(relative[:, k])}
            for k, name in enumerate(states)
        ],
    }
    return entry, case_abs, case_rel


def query_error(
    learned: Network, truth: Network, case: DataCase, target: str
) -> QueryError:
    check_same_structure(learned.structure, truth.structure, "the learned network", "the true network")
    _case_row(truth, case)
    v = truth.structure.by_name(target)
    if case.states[v.index] != MISSING:
        raise ValidationError(f"target {target!r} is observed in the case")
    p_learned = posterior_marginal(learned, case, [v.index])
    p_true = posterior_marginal(truth, case, [v.index])
    entry, _, _ = _errors(v.states, p_learned[None], p_true[None])
    per_state = tuple((e["mean_abs"], e["mean_rel"]) for e in entry["per_state"])
    return QueryError(entry["mean_abs"], entry["mean_rel"], per_state, entry["n_rel_excluded"])


def evaluate_queries(
    learned: Network, truth: Network, dataset: DataSet, spec: EvalSpec
) -> dict:
    """Mean absolute/relative error per target over the cases where the
    target is unobserved, plus a per-state breakdown.  Each target costs
    one batched query per network.  The learned network and the data must
    have the true network's structure."""
    check_same_structure(learned.structure, truth.structure, "the learned network", "the true network")
    check_same_structure(dataset.structure, truth.structure, "the data", "the true network")
    out: dict = {"targets": {}, "overall": {}}
    all_abs = [np.empty(0)]
    all_rel = [np.empty(0)]
    for target in spec.targets:
        v = truth.structure.by_name(target)
        rows = np.nonzero(dataset.values[:, v.index] == MISSING)[0]
        posts = []
        for which, network in (("learned", learned), ("true", truth)):
            try:
                posts.append(batch_posterior_marginals(network, dataset.values[rows], [v.index]))
            except ZeroProbabilityError as e:
                row = int(rows[e.case_index])
                msg = f"query {target!r} under the {which} network: case {row} has probability 0"
                raise ZeroProbabilityError(msg, case_index=row) from None
        out["targets"][target], case_abs, case_rel = _errors(v.states, *posts)
        all_abs.append(case_abs)
        all_rel.append(case_rel)
    out["overall"] = {
        "mean_abs": _mean(np.concatenate(all_abs)),
        "mean_rel": _mean(np.concatenate(all_rel)),
    }
    return out


# -- the experiment driver -----------------------------------------------------


@dataclass(frozen=True)
class ExperimentArm:
    """One fit of an experiment: a batch rule and its eta.

    Both are checked here, so every arm has a label; the bounds on eta
    are the fit's, checked with the rest of its settings (`fit_config`).
    """

    rule: str
    eta: float

    def __post_init__(self):
        if not (isinstance(self.rule, str) and self.rule in RULES):
            raise ValidationError(f"rule must be one of {RULES}, got {self.rule!r}")
        check_number(self.eta, "eta")

    @property
    def label(self) -> str:
        return f"{self.rule}_{self.eta:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs; loadable from a JSON file.

    ``network`` is a path to a network JSON file or "builtin:<name>".
    The training set is ``sample_obscured(truth, n_train, hidden,
    obscure_prob, seed)`` and the test set the same with ``n_test`` and
    ``seed + 2``, so a config fully pins its artifacts.  All of it but the
    variable names is checked here, each arm too, before any file is written.
    """

    network: str
    n_train: int
    n_test: int
    hidden: tuple[str, ...]
    obscure_prob: float
    seed: int
    arms: tuple[ExperimentArm, ...]
    targets: tuple[str, ...] = ()
    init: str = "random"
    init_seed: int = 0
    max_iters: int = 200
    tol_ll: float = 1e-6
    warm_start_em1: bool = True

    def __post_init__(self):
        if not isinstance(self.network, str):
            raise ValidationError(f"network must be a path or builtin:<name>, got {self.network!r}")
        # a fit needs a case; n_test = 0 means no test set
        check_number(self.n_train, "n_train", integer=True, above=0)
        check_number(self.n_test, "n_test", integer=True, low=0)
        if self.init not in ("random", "uniform"):
            raise ValidationError(f"unknown experiment init {self.init!r}")
        check_number(self.seed, "seed", integer=True, low=0)
        check_number(self.init_seed, "init_seed", integer=True, low=0)
        MissingnessSpec(self.hidden, self.obscure_prob, self.seed + 1)
        EvalSpec(self.targets)
        for arm in self.arms:
            self.fit_config(arm)

    def fit_config(self, arm: ExperimentArm) -> FitConfig:
        """The fit settings of one arm; every arm starts from the same init draw."""
        try:
            return FitConfig(arm.rule, arm.eta, self.max_iters, self.tol_ll, init=self.init,
                             seed=self.init_seed, warm_start_em1=self.warm_start_em1)
        except ValidationError as e:
            raise ValidationError(f"arm {arm.label}: {e}") from None

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config document; a key left out takes its field's default.

        Three fields the constructor requires may be left out here too:
        ``n_test``, ``hidden`` and ``obscure_prob`` default to no test set,
        no hidden variable and no obscuring.
        """
        try:
            doc = json.loads(text)
        except ValueError as e:
            # JSONDecodeError, or an integer of more digits than Python converts
            raise ValidationError(f"experiment config is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise ValidationError("experiment config must be a JSON object")
        doc = {"n_test": 0, "hidden": [], "obscure_prob": 0.0, **doc}
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValidationError(f"unknown experiment config keys: {', '.join(unknown)}")
        if "warm_start_em1" in doc and not isinstance(doc["warm_start_em1"], bool):
            raise ValidationError("warm_start_em1 must be true or false")
        for key in ("hidden", "targets"):
            names = doc.get(key, [])
            if not (isinstance(names, list) and all(isinstance(x, str) for x in names)):
                raise ValidationError(f"{key} must be a list of variable names")
        convert = {"hidden": tuple, "targets": tuple, "arms": _parse_arms}
        try:
            return cls(**{k: convert.get(k, lambda v: v)(v) for k, v in doc.items()})
        except TypeError as e:
            raise ValidationError(f"bad experiment config: {e}") from None


def _parse_arms(arms) -> tuple[ExperimentArm, ...]:
    """The ``arms`` list of a config document; a malformed arm is named by its index."""
    if not isinstance(arms, list):
        raise ValidationError("arms must be a list of objects with keys rule and eta")
    parsed = []
    for k, arm in enumerate(arms):
        missing = sorted({"rule", "eta"} - (arm.keys() if isinstance(arm, dict) else set()))
        if missing:
            raise ValidationError(f"arm {k} is missing {', '.join(map(repr, missing))}")
        try:
            parsed.append(ExperimentArm(arm["rule"], arm["eta"]))
        except ValidationError as e:
            raise ValidationError(f"arm {k} {e}") from None
    # an integer eta is written as a float (1 -> 1.0), as the summary always has
    return tuple(ExperimentArm(a.rule, float(a.eta)) for a in parsed)


def load_network_ref(ref: str) -> Network:
    if ref.startswith("builtin:"):
        return builtin_network(ref.split(":", 1)[1])
    return read_network(ref)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Sample, obscure, fit every arm from one shared init, evaluate.

    Writes train/test CSVs, a trace CSV and learned network per arm, and
    a summary JSON; returns the summary.  All randomness derives from
    config seeds, so two runs of one config produce identical artifacts
    up to the wall-clock column of the traces.
    """
    truth = load_network_ref(config.network)
    # an unknown hidden or target name fails here, before any file is written
    for name in (*config.hidden, *config.targets):
        truth.structure.by_name(name)
    # and so does a count too large to sample: both datasets are drawn first
    train = sample_obscured(truth, config.n_train, config.hidden, config.obscure_prob, config.seed)
    test = None
    if config.n_test > 0:
        test = sample_obscured(truth, config.n_test, config.hidden, config.obscure_prob, config.seed + 2)
    os.makedirs(out_dir, exist_ok=True)

    train_path = os.path.join(out_dir, "train.csv")
    write_dataset(train, train_path)
    test_path = None
    if test is not None:
        test_path = os.path.join(out_dir, "test.csv")
        write_dataset(test, test_path)

    summary: dict = {
        "network": config.network,
        "seed": config.seed,
        "init": config.init,
        "init_seed": config.init_seed,
        "train_file": "train.csv",
        "train_sha256": _sha256(train_path),
        "arms": [],
    }
    if test_path is not None:
        summary["test_file"] = "test.csv"
        summary["test_sha256"] = _sha256(test_path)

    for idx, arm in enumerate(config.arms):
        arm_dir = os.path.join(out_dir, f"arm_{idx:02d}_{arm.label}")
        os.makedirs(arm_dir, exist_ok=True)
        try:
            result = fit(truth, train, config.fit_config(arm), test)
        except BnError as e:
            # Relabel in place: the type and fields such as case_index stay.
            e.args = (f"arm {arm.label}: {e}",)
            raise
        learned = truth.with_theta(result.theta)
        write_trace(result.trace, os.path.join(arm_dir, "trace.csv"))
        write_network(learned, os.path.join(arm_dir, "learned.json"), name=f"learned_{arm.label}")
        entry: dict = {
            "rule": arm.rule,
            "eta": arm.eta,
            "iterations": result.iterations,
            "termination": result.termination,
            "iters_to_tol": result.iterations if result.termination == "tol_ll" else None,
            "final_train_ll": result.trace[-1].train_ll,
            "final_test_ll": result.trace[-1].test_ll,
            "final_max_param_delta": result.trace[-1].max_param_delta,
            "trace": f"arm_{idx:02d}_{arm.label}/trace.csv",
            "learned": f"arm_{idx:02d}_{arm.label}/learned.json",
        }
        if config.targets and test is not None:
            entry["errors"] = evaluate_queries(
                learned, truth, test, EvalSpec(config.targets)
            )
        summary["arms"].append(entry)

    write_text(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    return summary
