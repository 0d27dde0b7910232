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
from dataclasses import dataclass

import numpy as np

from .estimation import FitConfig, fit
from .inference import posterior_marginal
from .model import BnError, Network, ValidationError, random_init, uniform_init
from .netio import (
    MISSING,
    DataCase,
    DataSet,
    format_dataset,
    format_trace,
    read_network,
    serialize_network,
)
from .networks import builtin_network


# -- sampling ---------------------------------------------------------------


def forward_sample(network: Network, n: int, seed: int) -> DataSet:
    """Ancestral sampling: n complete cases, deterministic per seed."""
    s = network.structure
    rng = np.random.default_rng(seed)
    values = np.zeros((n, s.n_vars), dtype=np.int64)
    for i in s.topo_order:
        j = np.zeros(n, dtype=np.int64)
        for p in s.parents[i]:
            j = j * s.arity(p) + values[:, p]
        rows = network.theta.tables[i][j]
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
        if not (0.0 <= self.obscure_prob <= 1.0):
            raise ValidationError("obscure_prob must be in [0, 1]")


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


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class EvalSpec:
    targets: tuple[str, ...]


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


def query_error(
    learned: Network, truth: Network, case: DataCase, target: str
) -> QueryError:
    s = truth.structure
    v = s.by_name(target)
    if case.states[v.index] != MISSING:
        raise ValidationError(f"target {target!r} is observed in the case")
    p_learned = posterior_marginal(learned, case, [v.index])
    p_true = posterior_marginal(truth, case, [v.index])
    per_state = []
    abs_list = []
    rel_list = []
    excluded = 0
    for k in range(v.arity):
        a = float(abs(p_learned[k] - p_true[k]))
        abs_list.append(a)
        if p_true[k] > 0.0:
            r = a / float(p_true[k])
            rel_list.append(r)
            per_state.append((a, r))
        else:
            excluded += 1
            per_state.append((a, None))
    relative = float(np.mean(rel_list)) if rel_list else None
    return QueryError(float(np.mean(abs_list)), relative, tuple(per_state), excluded)


def evaluate_queries(
    learned: Network, truth: Network, dataset: DataSet, spec: EvalSpec
) -> dict:
    """Mean absolute/relative error per target over the cases where the
    target is unobserved, plus a per-state breakdown."""
    s = truth.structure
    out: dict = {"targets": {}, "overall": {}}
    all_abs: list[float] = []
    all_rel: list[float] = []
    for target in spec.targets:
        v = s.by_name(target)
        abs_list: list[float] = []
        rel_list: list[float] = []
        per_state_abs = [[] for _ in range(v.arity)]
        per_state_rel = [[] for _ in range(v.arity)]
        excluded = 0
        n_cases = 0
        for l in range(len(dataset)):
            case = dataset.case(l)
            if case.states[v.index] != MISSING:
                continue
            n_cases += 1
            err = query_error(learned, truth, case, target)
            abs_list.append(err.absolute)
            if err.relative is not None:
                rel_list.append(err.relative)
            excluded += err.n_rel_excluded
            for k, (a, r) in enumerate(err.per_state):
                per_state_abs[k].append(a)
                if r is not None:
                    per_state_rel[k].append(r)
        entry = {
            "n_cases": n_cases,
            "mean_abs": float(np.mean(abs_list)) if abs_list else None,
            "mean_rel": float(np.mean(rel_list)) if rel_list else None,
            "n_rel_excluded": excluded,
            "per_state": [
                {
                    "state": v.states[k],
                    "mean_abs": float(np.mean(per_state_abs[k])) if per_state_abs[k] else None,
                    "mean_rel": float(np.mean(per_state_rel[k])) if per_state_rel[k] else None,
                }
                for k in range(v.arity)
            ],
        }
        out["targets"][target] = entry
        all_abs.extend(abs_list)
        all_rel.extend(rel_list)
    out["overall"] = {
        "mean_abs": float(np.mean(all_abs)) if all_abs else None,
        "mean_rel": float(np.mean(all_rel)) if all_rel else None,
    }
    return out


# -- the experiment driver -----------------------------------------------------


@dataclass(frozen=True)
class ExperimentArm:
    rule: str
    eta: float

    @property
    def label(self) -> str:
        return f"{self.rule}_{self.eta:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs; loadable from a JSON file.

    ``network`` is a path to a network JSON file or "builtin:<name>".
    Sampling and obscuring seeds are derived deterministically from
    ``seed`` so a config fully pins its artifacts.
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

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValidationError(f"experiment config is not valid JSON: {e}") from None
        try:
            arms = tuple(
                ExperimentArm(a["rule"], float(a["eta"])) for a in doc["arms"]
            )
            return cls(
                network=doc["network"],
                n_train=int(doc["n_train"]),
                n_test=int(doc.get("n_test", 0)),
                hidden=tuple(doc.get("hidden", [])),
                obscure_prob=float(doc.get("obscure_prob", 0.0)),
                seed=int(doc["seed"]),
                arms=arms,
                targets=tuple(doc.get("targets", [])),
                init=doc.get("init", "random"),
                init_seed=int(doc.get("init_seed", 0)),
                max_iters=int(doc.get("max_iters", 200)),
                tol_ll=float(doc.get("tol_ll", 1e-6)),
                warm_start_em1=bool(doc.get("warm_start_em1", True)),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValidationError(f"bad experiment config: {e}") from None


def load_network_ref(ref: str) -> Network:
    if ref.startswith("builtin:"):
        return builtin_network(ref.split(":", 1)[1])
    return read_network(ref)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        digest.update(f.read())
    return digest.hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def run_experiment(config: ExperimentConfig, out_dir: str) -> dict:
    """Sample, obscure, fit every arm from one shared init, evaluate.

    Writes train/test CSVs, a trace CSV and learned network per arm, and
    a summary JSON; returns the summary.  All randomness derives from
    config seeds, so two runs of one config produce identical artifacts
    up to the wall-clock column of the traces.
    """
    truth = load_network_ref(config.network)
    structure = truth.structure
    os.makedirs(out_dir, exist_ok=True)

    train_complete = forward_sample(truth, config.n_train, config.seed)
    train = obscure(
        train_complete,
        MissingnessSpec(config.hidden, config.obscure_prob, config.seed + 1),
    )
    train_path = os.path.join(out_dir, "train.csv")
    _write(train_path, format_dataset(train))

    test = None
    test_path = None
    if config.n_test > 0:
        test_complete = forward_sample(truth, config.n_test, config.seed + 2)
        test = obscure(
            test_complete,
            MissingnessSpec(config.hidden, config.obscure_prob, config.seed + 3),
        )
        test_path = os.path.join(out_dir, "test.csv")
        _write(test_path, format_dataset(test))

    if config.init == "random":
        theta0 = random_init(structure, config.init_seed)
    elif config.init == "uniform":
        theta0 = uniform_init(structure)
    else:
        raise ValidationError(f"unknown experiment init {config.init!r}")

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
        fit_config = FitConfig(
            rule=arm.rule,
            eta=arm.eta,
            max_iters=config.max_iters,
            tol_ll=config.tol_ll,
            init="file",
            init_theta=theta0,
            warm_start_em1=config.warm_start_em1,
        )
        try:
            result = fit(truth.with_theta(theta0), train, fit_config, test)
        except BnError as e:
            # Relabel in place: the type and fields such as case_index stay.
            e.args = (f"arm {arm.label}: {e}",)
            raise
        learned = truth.with_theta(result.theta)
        _write(os.path.join(arm_dir, "trace.csv"), format_trace(result.trace))
        _write(
            os.path.join(arm_dir, "learned.json"),
            serialize_network(learned, name=f"learned_{arm.label}"),
        )
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

    _write(os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2) + "\n")
    return summary
