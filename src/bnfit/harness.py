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

from .estimation import FitConfig, fit, initial_theta
from .inference import batch_posterior_marginals, posterior_marginal
from .model import BnError, Network, ValidationError, ZeroProbabilityError
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
    one batched query per network."""
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
    write_dataset(train, train_path)

    test = None
    test_path = None
    if config.n_test > 0:
        test_complete = forward_sample(truth, config.n_test, config.seed + 2)
        test = obscure(
            test_complete,
            MissingnessSpec(config.hidden, config.obscure_prob, config.seed + 3),
        )
        test_path = os.path.join(out_dir, "test.csv")
        write_dataset(test, test_path)

    if config.init not in ("random", "uniform"):
        raise ValidationError(f"unknown experiment init {config.init!r}")
    theta0 = initial_theta(structure, config.init, config.init_seed)

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
