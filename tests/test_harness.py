"""Sampling, missingness, query evaluation, and the experiment driver."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from bnfit import harness
from bnfit.estimation import FitConfig, fit
from bnfit.harness import (
    EvalSpec,
    ExperimentArm,
    ExperimentConfig,
    MissingnessSpec,
    evaluate_queries,
    forward_sample,
    obscure,
    query_error,
    run_experiment,
    sample_obscured,
)
from bnfit import inference
from bnfit.inference import enumerate_joint
from bnfit.model import (
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
    random_init,
)
from bnfit.netio import MISSING, DataCase, DataSet, format_dataset
from bnfit.networks import builtin_network, chain3, tree8, twolayer15

from util import random_network


class TestForwardSample:
    def test_deterministic_network_constant_cases(self):
        a = Variable(0, "A", ("s0", "s1"))
        b = Variable(1, "B", ("s0", "s1"))
        s = NetworkStructure((a, b), ((), (0,)))
        theta = ParameterVector([np.array([[0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])])
        net = Network(s, theta)
        data = forward_sample(net, 50, seed=1)
        assert np.all(data.values == np.array([1, 1]))

    def test_root_frequency_matches_probability(self):
        v = Variable(0, "X", ("s0", "s1"))
        s = NetworkStructure((v,), ((),))
        net = Network(s, ParameterVector([np.array([[0.3, 0.7]])]))
        data = forward_sample(net, 10000, seed=2)
        freq = (data.values[:, 0] == 1).mean()
        assert abs(freq - 0.7) < 0.015

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative integer, got -3"):
            forward_sample(chain3(), -3, seed=1)

    def test_count_too_large_to_hold_rejected(self):
        """numpy refuses the (n, V) matrix before allocating any of it."""
        with pytest.raises(ValidationError, match=f"number of cases {10**30} is too large"):
            forward_sample(chain3(), 10**30, seed=1)

    def test_seed_determinism_bytes(self):
        net = tree8()
        a = format_dataset(forward_sample(net, 500, seed=3))
        b = format_dataset(forward_sample(net, 500, seed=3))
        assert a == b

    @staticmethod
    def _total_variation(net, n, seed):
        data = forward_sample(net, n, seed=seed)
        size = 1
        idx = np.zeros(n, dtype=np.int64)
        for i in range(net.structure.n_vars):
            idx = idx * net.structure.arity(i) + data.values[:, i]
            size *= net.structure.arity(i)
        emp = np.bincount(idx, minlength=size) / n
        return 0.5 * np.abs(emp - enumerate_joint(net)).sum()

    def test_empirical_joint_total_variation(self):
        """200k samples reproduce the enumerated joint within TV 0.01.

        The bound is statistical: expected TV grows with sum(sqrt(p)), so
        it is checked on joints with concentrated mass.  A diffuse joint
        (say 2^8 near-uniform cells) has expected TV above 0.01 at this
        sample size no matter how correct the sampler is.
        """
        assert self._total_variation(chain3(), 200000, seed=5) < 0.01
        variables = tuple(Variable(i, f"C{i}", ("s0", "s1")) for i in range(10))
        parents = ((),) + tuple((i - 1,) for i in range(1, 10))
        s = NetworkStructure(variables, parents)
        tables = [np.array([[0.95, 0.05]])]
        tables += [np.array([[0.95, 0.05], [0.05, 0.95]]) for _ in range(9)]
        sharp_chain = Network(s, ParameterVector(tables))
        assert self._total_variation(sharp_chain, 200000, seed=6) < 0.01


class TestObscure:
    def test_zero_probability_hides_only_hidden(self):
        net = chain3()
        data = forward_sample(net, 100, seed=6)
        out = obscure(data, MissingnessSpec(("M",), 0.0, seed=7))
        assert np.all(out.values[:, 1] == MISSING)
        assert np.all(out.values[:, 0] >= 0)
        assert np.all(out.values[:, 2] >= 0)

    def test_probability_one_hides_everything(self):
        net = chain3()
        data = forward_sample(net, 20, seed=8)
        out = obscure(data, MissingnessSpec((), 1.0, seed=9))
        assert np.all(out.values == MISSING)

    def test_missing_fraction_concentrates(self):
        net = twolayer15()
        data = forward_sample(net, 2000, seed=10)
        out = obscure(data, MissingnessSpec(("V0",), 0.2, seed=11))
        others = [i for i in range(15) if i != 0]
        frac = (out.values[:, others] == MISSING).mean()
        assert abs(frac - 0.2) < 0.01

    def test_mask_ignores_parameter_values(self):
        """The missingness pattern is a function of (seed, case, variable)
        only: different CPTs, same seed, same mask."""
        net_a = tree8()
        net_b = net_a.with_theta(random_init(net_a.structure, 123))
        spec = MissingnessSpec(("T3",), 0.3, seed=12)
        mask_a = obscure(forward_sample(net_a, 200, seed=13), spec).values == MISSING
        mask_b = obscure(forward_sample(net_b, 200, seed=13), spec).values == MISSING
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_unknown_hidden_rejected(self):
        net = chain3()
        data = forward_sample(net, 5, seed=14)
        with pytest.raises(ValidationError):
            obscure(data, MissingnessSpec(("ZZ",), 0.1, seed=15))

    def test_incomplete_input_rejected(self):
        net = chain3()
        data = obscure(forward_sample(net, 5, seed=16), MissingnessSpec(("M",), 0.0, seed=17))
        with pytest.raises(ValidationError):
            obscure(data, MissingnessSpec((), 0.1, seed=18))

    def test_negative_seeds_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -1"):
            forward_sample(chain3(), 5, seed=-1)
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer, got -2"):
            MissingnessSpec(("M",), 0.2, seed=-2)

    def test_settings_of_the_wrong_type_rejected(self):
        with pytest.raises(ValidationError, match="obscure_prob must be a number, got '0.2'"):
            MissingnessSpec(("M",), "0.2", seed=2)
        with pytest.raises(ValidationError, match="number of cases must be an integer, got 2.5"):
            forward_sample(chain3(), 2.5, seed=1)

    def test_sample_obscured_seeds(self):
        """Sampling takes the seed and obscuring the next one."""
        net = tree8()
        want = obscure(forward_sample(net, 60, seed=19), MissingnessSpec(("T3",), 0.3, seed=20))
        got = sample_obscured(net, 60, ("T3",), 0.3, 19)
        np.testing.assert_array_equal(got.values, want.values)


class TestQueryError:
    def test_perfect_model_zero_error(self):
        net = chain3()
        case = DataCase(np.array([0, MISSING, 1]))
        err = query_error(net, net, case, "M")
        assert err.absolute == pytest.approx(0.0, abs=1e-14)
        assert err.relative == pytest.approx(0.0, abs=1e-14)

    def test_substitution_values(self):
        v = Variable(0, "X", ("s0", "s1"))
        s = NetworkStructure((v,), ((),))
        truth = Network(s, ParameterVector([np.array([[0.5, 0.5]])]))
        learned = Network(s, ParameterVector([np.array([[0.6, 0.4]])]))
        err = query_error(learned, truth, DataCase(np.array([MISSING])), "X")
        assert err.absolute == pytest.approx(0.1)
        assert err.relative == pytest.approx(0.2)
        assert err.per_state[0] == (pytest.approx(0.1), pytest.approx(0.2))

    def test_observed_target_rejected(self):
        net = chain3()
        with pytest.raises(ValidationError):
            query_error(net, net, DataCase(np.array([0, MISSING, 1])), "B")

    def test_zero_true_probability_excluded_from_relative(self):
        v = Variable(0, "X", ("s0", "s1"))
        s = NetworkStructure((v,), ((),))
        truth = Network(s, ParameterVector([np.array([[1.0, 0.0]])]))
        learned = Network(s, ParameterVector([np.array([[0.9, 0.1]])]))
        err = query_error(learned, truth, DataCase(np.array([MISSING])), "X")
        assert err.n_rel_excluded == 1
        assert err.per_state[1][1] is None

    def test_estimation_consistency_small_error(self):
        """EM(1) on plenty of complete data lands near the truth."""
        net = tree8()
        data = forward_sample(net, 50000, seed=19)
        res = fit(net, data, FitConfig("em", 1.0, 10, tol_ll=1e-12, init="random", seed=20))
        learned = net.with_theta(res.theta)
        eval_cases = obscure(
            forward_sample(net, 50, seed=21), MissingnessSpec(("T7",), 0.3, seed=22)
        )
        result = evaluate_queries(learned, net, eval_cases, EvalSpec(("T7",)))
        assert result["targets"]["T7"]["mean_abs"] < 0.01


def _mean_or_none(xs):
    return float(np.mean(xs)) if xs else None


def reference_evaluate(learned, truth, dataset, targets):
    """evaluate_queries as a loop of single-case query_error calls."""
    out = {"targets": {}, "overall": {}}
    all_abs, all_rel = [], []
    for target in targets:
        v = truth.structure.by_name(target)
        errs = [
            query_error(learned, truth, dataset.case(l), target)
            for l in range(len(dataset))
            if dataset.values[l, v.index] == MISSING
        ]
        abs_list = [e.absolute for e in errs]
        rel_list = [e.relative for e in errs if e.relative is not None]
        out["targets"][target] = {
            "n_cases": len(errs),
            "mean_abs": _mean_or_none(abs_list),
            "mean_rel": _mean_or_none(rel_list),
            "n_rel_excluded": sum(e.n_rel_excluded for e in errs),
            "per_state": [
                {
                    "state": name,
                    "mean_abs": _mean_or_none([e.per_state[k][0] for e in errs]),
                    "mean_rel": _mean_or_none(
                        [e.per_state[k][1] for e in errs if e.per_state[k][1] is not None]
                    ),
                }
                for k, name in enumerate(v.states)
            ],
        }
        all_abs += abs_list
        all_rel += rel_list
    out["overall"] = {"mean_abs": _mean_or_none(all_abs), "mean_rel": _mean_or_none(all_rel)}
    return out


def assert_same_report(got, want):
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_report(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)
    elif isinstance(want, float):
        assert type(got) is float and got == pytest.approx(want, rel=1e-12, abs=1e-15)
    else:
        assert type(got) is type(want) and got == want


def zero_entry_network() -> Network:
    """A -> T -> {B, C} with T ternary; T's CPT has zero entries."""
    names = [("A", 2), ("T", 3), ("B", 2), ("C", 2)]
    variables = tuple(
        Variable(i, name, tuple(f"s{k}" for k in range(r))) for i, (name, r) in enumerate(names)
    )
    s = NetworkStructure(variables, ((), (0,), (1,), (1,)))
    tables = [
        np.array([[0.6, 0.4]]),
        np.array([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[0.9, 0.1], [0.3, 0.7], [0.2, 0.8]]),
        np.array([[0.6, 0.4], [0.1, 0.9], [0.5, 0.5]]),
    ]
    return Network(s, ParameterVector(tables))


class TestEvaluateQueries:
    """The batched evaluate_queries against a loop of query_error calls."""

    @staticmethod
    def data(truth, n, seed):
        """A always observed, T mostly missing, B and C sometimes."""
        values = forward_sample(truth, n, seed).values.copy()
        rng = np.random.default_rng(seed)
        for i, p in ((1, 0.7), (2, 0.4), (3, 0.4)):
            values[rng.random(n) < p, i] = MISSING
        return DataSet(truth.structure, values)

    def test_matches_per_case_loop(self):
        truth = zero_entry_network()
        learned = truth.with_theta(random_init(truth.structure, 3))
        data = self.data(truth, 80, seed=4)
        targets = ("T", "B", "A", "C")
        got = evaluate_queries(learned, truth, data, EvalSpec(targets))
        assert_same_report(got, reference_evaluate(learned, truth, data, targets))
        assert got["targets"]["T"]["n_rel_excluded"] >= got["targets"]["T"]["n_cases"] > 0
        assert got["targets"]["A"] == {
            "n_cases": 0,
            "mean_abs": None,
            "mean_rel": None,
            "n_rel_excluded": 0,
            "per_state": [{"state": s, "mean_abs": None, "mean_rel": None} for s in ("s0", "s1")],
        }
        json.dumps(got)

    def test_state_with_zero_true_probability_everywhere(self):
        """With A = s0 in every case, T = s2 has true probability 0 in
        every query, so its relative error is None."""
        truth = zero_entry_network()
        learned = truth.with_theta(random_init(truth.structure, 5))
        data = self.data(truth, 80, seed=6)
        data = DataSet(truth.structure, data.values[data.values[:, 0] == 0])
        got = evaluate_queries(learned, truth, data, EvalSpec(("T",)))
        assert_same_report(got, reference_evaluate(learned, truth, data, ("T",)))
        entry = got["targets"]["T"]
        assert entry["n_rel_excluded"] == entry["n_cases"] > 0
        assert entry["per_state"][2]["mean_rel"] is None
        assert entry["per_state"][2]["mean_abs"] > 0.0
        row = int(np.nonzero(data.values[:, 1] == MISSING)[0][0])
        assert query_error(learned, truth, data.case(row), "T").per_state[2][1] is None

    def test_two_eliminations_per_target(self, monkeypatch):
        calls = []
        eliminate = inference._eliminate

        def counting(*args, **kwargs):
            calls.append(1)
            return eliminate(*args, **kwargs)

        monkeypatch.setattr(inference, "_eliminate", counting)
        truth = zero_entry_network()
        learned = truth.with_theta(random_init(truth.structure, 7))
        for n in (10, 200):
            calls.clear()
            evaluate_queries(learned, truth, self.data(truth, n, seed=n), EvalSpec(("T", "B", "C")))
            assert len(calls) == 6

    @pytest.mark.parametrize("which", ["learned", "true"])
    def test_zero_probability_names_dataset_row(self, which):
        """Row 2 is impossible under the deterministic network; it is the
        second query case for M, and the error names row 2."""
        det = chain3().with_theta(
            ParameterVector([np.array([[1.0, 0.0]])] + [t.copy() for t in chain3().theta.tables[1:]])
        )
        learned, truth = (det, chain3()) if which == "learned" else (chain3(), det)
        values = np.array([[0, 1, 0], [0, MISSING, 1], [1, MISSING, 0], [0, 0, MISSING]])
        data = DataSet(det.structure, values)
        with pytest.raises(ZeroProbabilityError) as info:
            evaluate_queries(learned, truth, data, EvalSpec(("B", "M")))
        assert info.value.case_index == 2
        assert "'M'" in str(info.value) and f"{which} network" in str(info.value)
        assert "case 2 " in str(info.value)


class TestRunExperiment:
    def small_config(self, tmp_path, arms, seed=5, n_train=150, targets=("B",)):
        return ExperimentConfig(
            network="builtin:chain3",
            n_train=n_train,
            n_test=60,
            hidden=("M",),
            obscure_prob=0.2,
            seed=seed,
            arms=tuple(arms),
            targets=tuple(targets),
            init="random",
            init_seed=9,
            max_iters=25,
            tol_ll=1e-6,
            warm_start_em1=True,
        )

    def test_eta_zero_arm_never_moves(self, tmp_path):
        config = self.small_config(
            tmp_path, [ExperimentArm("em", 1.0), ExperimentArm("em", 0.0)]
        )
        summary = run_experiment(config, str(tmp_path / "out"))
        frozen = summary["arms"][1]
        assert frozen["final_max_param_delta"] == 0.0
        moving = summary["arms"][0]
        assert moving["final_train_ll"] > frozen["final_train_ll"]

    def test_artifacts_written_and_consistent(self, tmp_path):
        config = self.small_config(tmp_path, [ExperimentArm("em", 1.5)])
        out = str(tmp_path / "out")
        summary = run_experiment(config, out)
        assert os.path.exists(os.path.join(out, "train.csv"))
        assert os.path.exists(os.path.join(out, "test.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        arm = summary["arms"][0]
        assert os.path.exists(os.path.join(out, arm["trace"]))
        assert os.path.exists(os.path.join(out, arm["learned"]))
        with open(os.path.join(out, "summary.json")) as f:
            assert json.load(f) == summary
        assert "errors" in arm
        assert arm["errors"]["targets"]["B"]["mean_abs"] is not None

    def test_rerun_identical_artifacts_up_to_wall_clock(self, tmp_path):
        config = self.small_config(tmp_path, [ExperimentArm("em", 1.0)])
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_experiment(config, out1)
        run_experiment(config, out2)
        for name in ("train.csv", "test.csv", "summary.json"):
            with open(os.path.join(out1, name), "rb") as f:
                b1 = f.read()
            with open(os.path.join(out2, name), "rb") as f:
                b2 = f.read()
            assert b1 == b2, name
        arm_dir = "arm_00_em_1"
        with open(os.path.join(out1, arm_dir, "learned.json"), "rb") as f:
            l1 = f.read()
        with open(os.path.join(out2, arm_dir, "learned.json"), "rb") as f:
            l2 = f.read()
        assert l1 == l2
        # traces agree except for the wall-clock column
        def strip_wall(path):
            with open(path) as f:
                lines = f.read().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]
        t1 = strip_wall(os.path.join(out1, arm_dir, "trace.csv"))
        t2 = strip_wall(os.path.join(out2, arm_dir, "trace.csv"))
        assert t1 == t2

    def test_shared_init_across_arms(self, tmp_path):
        config = self.small_config(
            tmp_path, [ExperimentArm("em", 0.0), ExperimentArm("eg", 0.0)]
        )
        summary = run_experiment(config, str(tmp_path / "out"))
        # both arms never move, so both learned nets equal the shared init
        a0 = summary["arms"][0]
        a1 = summary["arms"][1]
        assert a0["final_train_ll"] == a1["final_train_ll"]

    def test_arm_error_keeps_type_and_case_index(self, tmp_path, monkeypatch):
        def impossible(*args, **kwargs):
            raise ZeroProbabilityError("iteration 2: case 7 has probability 0", case_index=7)

        monkeypatch.setattr(harness, "fit", impossible)
        config = self.small_config(tmp_path, [ExperimentArm("em", 1.5)])
        with pytest.raises(ZeroProbabilityError) as info:
            run_experiment(config, str(tmp_path / "out"))
        assert info.value.case_index == 7
        assert str(info.value) == "arm em_1.5: iteration 2: case 7 has probability 0"

    def test_non_package_error_propagates_unchanged(self, tmp_path, monkeypatch):
        error = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(harness, "fit", broken)
        config = self.small_config(tmp_path, [ExperimentArm("em", 1.0)])
        with pytest.raises(UnicodeDecodeError) as info:
            run_experiment(config, str(tmp_path / "out"))
        assert info.value is error

    def test_config_json_roundtrip(self):
        doc = {
            "network": "builtin:tree8",
            "n_train": 100,
            "n_test": 20,
            "hidden": ["T1"],
            "obscure_prob": 0.3,
            "seed": 4,
            "arms": [{"rule": "em", "eta": 1.8}, {"rule": "gp", "eta": 0.4}],
            "targets": ["T7"],
            "init_seed": 2,
            "max_iters": 10,
        }
        config = ExperimentConfig.from_json(json.dumps(doc))
        assert config.network == "builtin:tree8"
        assert config.arms == (ExperimentArm("em", 1.8), ExperimentArm("gp", 0.4))
        assert config.warm_start_em1 is True

    @pytest.mark.parametrize("key", ["n_train", "n_test"])
    def test_count_too_large_to_sample_writes_nothing(self, tmp_path, key):
        """Both datasets are drawn before the output directory is made."""
        config = self.small_config(tmp_path, [ExperimentArm("em", 1.0)])
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=f"number of cases {10**30} is too large"):
            run_experiment(replace(config, **{key: 10**30}), str(out))
        assert not out.exists()

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json("{not json")
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json(json.dumps({"network": "x"}))

    MINIMAL = {"network": "builtin:chain3", "n_train": 10, "seed": 1,
               "arms": [{"rule": "em", "eta": 1.0}]}

    def test_config_defaults_from_fields(self):
        config = ExperimentConfig.from_json(json.dumps(self.MINIMAL))
        assert (config.n_test, config.hidden, config.obscure_prob) == (0, (), 0.0)
        assert (config.max_iters, config.tol_ll, config.warm_start_em1) == (200, 1e-6, True)

    def test_negative_n_test_rejected(self):
        with pytest.raises(ValidationError, match="n_test must be a nonnegative integer"):
            ExperimentConfig.from_json(json.dumps({**self.MINIMAL, "n_test": -4}))
        with pytest.raises(ValidationError, match="n_test must be a nonnegative integer"):
            ExperimentConfig("builtin:chain3", 10, -1, (), 0.0, 1, (ExperimentArm("em", 1.0),))
        assert ExperimentConfig.from_json(json.dumps({**self.MINIMAL, "n_test": 0})).n_test == 0

    @pytest.mark.parametrize("key, value, message", [
        ("init", "file", "unknown experiment init 'file'"),
        ("init_seed", -2, "init_seed must be a nonnegative integer"),
        ("seed", -1, "seed must be a nonnegative integer"),
        ("n_train", -3, "n_train must be a positive integer"),
        ("obscure_prob", 1.5, r"obscure_prob must be a number in \[0, 1\]"),
        ("max_iters", -3, "arm em_1: max_iters must be a nonnegative integer"),
        ("tol_ll", -1.0, "arm em_1: tol_ll must be a finite nonnegative number"),
        pytest.param("arms", [{"rule": "xx", "eta": 1.0}], "arm 0 rule must be one of",
                     id="arms-bad-rule"),
        pytest.param("arms", [{"rule": "em", "eta": 1.0}, {"rule": "em", "eta": -1.0}],
                     "arm em_-1: eta must be a finite nonnegative number", id="arms-negative-eta"),
        # a JSON number of the wrong kind, a bool or a string is refused, never converted
        ("n_train", 10.9, "n_train must be an integer, got 10.9"),
        ("n_test", 3.7, "n_test must be an integer, got 3.7"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("max_iters", 2.5, "arm em_1: max_iters must be an integer, got 2.5"),
        ("n_train", True, "n_train must be an integer, got True"),
        pytest.param("arms", [{"rule": "em", "eta": True}], "arm 0 eta must be a number, got True",
                     id="arms-boolean-eta"),
        ("obscure_prob", "0.2", "obscure_prob must be a number, got '0.2'"),
        ("network", 5, "network must be a path or builtin:<name>, got 5"),
    ])
    def test_bad_field_rejected_at_construction(self, key, value, message):
        """So run_experiment, which takes a constructed config, never starts on one."""
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_json(json.dumps({**self.MINIMAL, key: value}))

    def test_integer_eta_reads_as_a_float(self):
        doc = {**self.MINIMAL, "arms": [{"rule": "em", "eta": 1}]}
        config = ExperimentConfig.from_json(json.dumps(doc))
        assert config.arms == (ExperimentArm("em", 1.0),) and type(config.arms[0].eta) is float

    @pytest.mark.parametrize("arms, message", [
        ([{"rule": "em"}], "arm 0 is missing 'eta'"),
        ([{"rule": "em", "eta": 1.0}, {}], "arm 1 is missing 'eta', 'rule'"),
        ([["em", 1.0]], "arm 0 is missing 'eta', 'rule'"),
        ({"rule": "em", "eta": 1.0}, "arms must be a list"),
    ], ids=["no-eta", "empty-second-arm", "arm-not-an-object", "arms-not-a-list"])
    def test_malformed_arm_named(self, arms, message):
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig.from_json(json.dumps({**self.MINIMAL, "arms": arms}))

    @pytest.mark.parametrize("rule, eta, message", [
        ("em", "x", "eta must be a number, got 'x'"),
        ("em", float("nan"), "eta must be a finite number, got nan"),
        ("xx", 1.0, r"rule must be one of \('em', 'eg', 'gp'\), got 'xx'"),
        (["em"], 1.0, r"rule must be one of .*, got \['em'\]"),
    ])
    def test_bad_arm_rejected_at_construction(self, rule, eta, message):
        """So every arm has a label: ("em", "x") made `label` raise a
        ValueError from the format code."""
        with pytest.raises(ValidationError, match=message):
            ExperimentArm(rule, eta)

    def test_fit_config_of_an_arm(self):
        config = ExperimentConfig.from_json(json.dumps(
            {**self.MINIMAL, "init": "uniform", "init_seed": 7, "max_iters": 12,
             "tol_ll": 1e-4, "warm_start_em1": False}))
        assert config.fit_config(ExperimentArm("eg", 1.4)) == FitConfig(
            "eg", 1.4, 12, tol_ll=1e-4, init="uniform", seed=7, warm_start_em1=False)

    def test_config_string_boolean_rejected(self):
        doc = {**self.MINIMAL, "warm_start_em1": "false"}
        with pytest.raises(ValidationError, match="warm_start_em1 must be true or false"):
            ExperimentConfig.from_json(json.dumps(doc))
        doc["warm_start_em1"] = False
        assert ExperimentConfig.from_json(json.dumps(doc)).warm_start_em1 is False

    def test_config_unknown_key_rejected(self):
        doc = {**self.MINIMAL, "max_iter": 5}
        with pytest.raises(ValidationError, match="unknown experiment config keys: max_iter"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["hidden", "targets"])
    @pytest.mark.parametrize("value", ["V0", ["V0", 3]], ids=["string", "non-string-entry"])
    def test_config_names_must_be_string_list(self, key, value):
        doc = {**self.MINIMAL, key: value}
        with pytest.raises(ValidationError, match=f"{key} must be a list of variable names"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_builtin_names(self):
        for name in ("chain3", "tree8", "twolayer15"):
            net = builtin_network(name)
            assert net.structure.n_vars >= 3
        with pytest.raises(ValidationError):
            builtin_network("alarm")
