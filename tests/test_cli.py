"""CLI surface: subcommands, file handoffs, exit codes."""

import json

import numpy as np
import pytest

from bnfit.cli import main
from bnfit.estimation import FitConfig, fit
from bnfit.harness import forward_sample
from bnfit.netio import read_dataset, read_network, write_dataset, write_network
from bnfit.networks import chain3, tree8, twolayer15


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.json"
    write_network(chain3(), str(path), name="chain3")
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


class TestSample:
    def test_writes_loadable_dataset(self, tmp_path, chain3_file):
        out = tmp_path / "data.csv"
        code = run("sample", "--network", chain3_file, "--n", 50,
                   "--hidden", "M", "--obscure", "0.1", "--seed", 3, "--out", out)
        assert code == 0
        ds = read_dataset(str(out), chain3().structure)
        assert len(ds) == 50
        assert np.all(ds.values[:, 1] == -1)

    def test_missing_network_file_exit_2(self, tmp_path):
        code = run("sample", "--network", tmp_path / "nope.json", "--n", 5,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    def test_5000_digit_cpt_entry_exit_2_writes_nothing(self, tmp_path, chain3_file, capsys):
        """More digits than Python converts to an int: json.loads raises a
        ValueError that is no JSONDecodeError."""
        doc = json.loads(open(chain3_file).read())
        doc["cpt"]["A"][0][0] = "HUGE"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
        out = tmp_path / "o.csv"
        assert run("sample", "--network", bad, "--n", 5, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: network file is not valid JSON") and "Traceback" not in err
        assert not out.exists()

    def test_negative_n_exit_2(self, tmp_path, chain3_file, capsys):
        code = run("sample", "--network", chain3_file, "--n", -5, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "nonnegative integer, got -5" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, chain3_file, capsys):
        out = tmp_path / "x.csv"
        assert run("sample", "--network", chain3_file, "--n", 5, "--seed", -1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be a nonnegative integer") and "Traceback" not in err
        assert not out.exists()


class TestFit:
    def test_full_pipeline(self, tmp_path, chain3_file):
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 120, "--hidden", "M",
            "--obscure", "0.2", "--seed", 1, "--out", data)
        out = tmp_path / "fitted.json"
        trace = tmp_path / "trace.csv"
        code = run("fit", "--network", chain3_file, "--data", data,
                   "--rule", "em", "--eta", "1.5", "--max-iters", 30,
                   "--tol-ll", "1e-6", "--init", "random", "--seed", 2,
                   "--warm-start-em1", "true", "--trace", trace, "--out", out)
        assert code == 0
        fitted = read_network(str(out))
        assert fitted.structure == chain3().structure
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,train_ll,test_ll,max_param_delta,l2_step,wall_ms"
        assert len(lines) >= 3

    def test_init_from_file(self, tmp_path, chain3_file):
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 40, "--seed", 4, "--out", data)
        out = tmp_path / "fitted.json"
        code = run("fit", "--network", chain3_file, "--data", data,
                   "--init", f"file:{chain3_file}", "--max-iters", 2,
                   "--out", out)
        assert code == 0

    def test_init_network_starts_from_the_network_file(self, tmp_path, chain3_file):
        """`--init network` fits from the --network file's tables, as `file:` on it does."""
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 40, "--hidden", "M", "--seed", 4,
            "--out", data)
        runs = []
        for k, init in enumerate(("network", f"file:{chain3_file}")):
            out, trace = tmp_path / f"fitted{k}.json", tmp_path / f"trace{k}.csv"
            assert run("fit", "--network", chain3_file, "--data", data, "--init", init,
                       "--max-iters", 3, "--trace", trace, "--out", out) == 0
            rows = [line.rsplit(",", 1)[0] for line in trace.read_text().splitlines()]
            runs.append((out.read_bytes(), rows))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("init, message", [
        ("bogus", "unknown init 'bogus'"),
        ("file:", "the --init file and the network have different structures"),
    ])
    def test_bad_init_exit_2_writes_nothing(self, tmp_path, chain3_file, capsys, init, message):
        """An unknown init name, or a `file:` network of another structure (here tree8)."""
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 20, "--seed", 1, "--out", data)
        other = tmp_path / "tree8.json"
        write_network(tree8(), str(other))
        if init == "file:":
            init += str(other)
        out, trace = tmp_path / "fitted.json", tmp_path / "trace.csv"
        code = run("fit", "--network", chain3_file, "--data", data, "--init", init,
                   "--trace", trace, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("flag, value", [("--eta", "nan"), ("--eta", "inf"), ("--tol-ll", "nan")])
    def test_non_finite_setting_exit_2(self, tmp_path, chain3_file, capsys, flag, value):
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 20, "--seed", 1, "--out", data)
        code = run("fit", "--network", chain3_file, "--data", data, flag, value,
                   "--out", tmp_path / "fitted.json")
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--init", "random", "--seed", -2), "seed must be a nonnegative integer"),
        (("--tol-ll", -1), "tol_ll must be a finite nonnegative number"),
    ])
    def test_negative_seed_or_tolerance_exit_2(self, tmp_path, chain3_file, capsys, flags, message):
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 20, "--seed", 1, "--out", data)
        out, trace = tmp_path / "fitted.json", tmp_path / "trace.csv"
        code = run("fit", "--network", chain3_file, "--data", data, *flags,
                   "--trace", trace, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not out.exists() and not trace.exists()

    def test_diverging_update_exit_3(self, tmp_path, chain3_file, capsys):
        data = tmp_path / "train.csv"
        run("sample", "--network", chain3_file, "--n", 50, "--seed", 1, "--out", data)
        with np.errstate(over="ignore", invalid="ignore"):
            code = run("fit", "--network", chain3_file, "--data", data, "--rule", "gp",
                       "--eta", "1e308", "--init", "uniform", "--out", tmp_path / "o.json")
        assert code == 3
        assert "non-finite parameters" in capsys.readouterr().err

    def test_zero_probability_data_exit_3(self, tmp_path):
        det = tree8().with_theta(
            # make T0 deterministic: state s0 impossible in the data below
            type(tree8().theta)(
                [np.array([[0.0, 0.0, 1.0]])] + [t.copy() for t in tree8().theta.tables[1:]]
            )
        )
        net_path = tmp_path / "det.json"
        write_network(det, str(net_path))
        data_path = tmp_path / "bad.csv"
        data_path.write_text("T0\ns0\n")
        code = run("fit", "--network", net_path, "--data", data_path,
                   "--init", f"file:{net_path}", "--max-iters", 3,
                   "--out", tmp_path / "o.json")
        assert code == 3


class TestOnline:
    def test_stream_adaptation(self, tmp_path, chain3_file):
        stream = tmp_path / "stream.csv"
        run("sample", "--network", chain3_file, "--n", 60, "--seed", 5, "--out", stream)
        out = tmp_path / "adapted.json"
        trace = tmp_path / "otrace.csv"
        code = run("online", "--network", chain3_file, "--stream", stream,
                   "--rule", "em", "--schedule", "per_row",
                   "--trace", trace, "--out", out)
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,case_ll,step_l2,skipped"
        assert len(lines) == 61
        read_network(str(out))

    def test_schedule_parsing(self, tmp_path, chain3_file):
        stream = tmp_path / "s.csv"
        run("sample", "--network", chain3_file, "--n", 5, "--seed", 6, "--out", stream)
        for sched in ("fixed:0.3", "inv_t:2.0,5", "per_row"):
            code = run("online", "--network", chain3_file, "--stream", stream,
                       "--rule", "eg", "--schedule", sched,
                       "--out", tmp_path / "o.json")
            assert code == 0
        code = run("online", "--network", chain3_file, "--stream", stream,
                   "--schedule", "warp:9", "--out", tmp_path / "o.json")
        assert code == 2

    @pytest.mark.parametrize("sched", ["fixed:abc", "inv_t:a,b"])
    def test_malformed_schedule_number_exit_2(self, tmp_path, chain3_file, capsys, sched):
        stream = tmp_path / "s.csv"
        run("sample", "--network", chain3_file, "--n", 5, "--seed", 6, "--out", stream)
        code = run("online", "--network", chain3_file, "--stream", stream,
                   "--schedule", sched, "--out", tmp_path / "o.json")
        assert code == 2
        assert "must be a number" in capsys.readouterr().err


class TestSpectral:
    def test_report_at_complete_data_fixpoint(self, tmp_path, chain3_file):
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 200, "--seed", 7, "--out", data)
        net = chain3()
        ds = read_dataset(str(data), net.structure)
        res = fit(net, ds, FitConfig("em", 1.0, 5, tol_ll=1e-13, init="uniform"))
        theta_path = tmp_path / "theta.json"
        write_network(net.with_theta(res.theta), str(theta_path))
        out = tmp_path / "report.json"
        code = run("spectral", "--network", chain3_file, "--data", data,
                   "--theta", theta_path, "--etas", "0.5,1.0,1.5", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["eta_star"] == pytest.approx(1.0, abs=1e-6)
        assert [e["eta"] for e in doc["rho"]] == [0.5, 1.0, 1.5]

    def test_not_a_fixpoint_exit_3(self, tmp_path, chain3_file):
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 100, "--obscure", "0.5",
            "--seed", 8, "--out", data)
        out = tmp_path / "r.json"
        code = run("spectral", "--network", chain3_file, "--data", data,
                   "--theta", chain3_file, "--etas", "1.0", "--out", out)
        assert code == 3

    def test_malformed_eta_exit_2(self, tmp_path, chain3_file, capsys):
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 20, "--seed", 8, "--out", data)
        code = run("spectral", "--network", chain3_file, "--data", data,
                   "--theta", chain3_file, "--etas", "1,x", "--out", tmp_path / "r.json")
        assert code == 2
        assert "must be a number, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["inf", "nan"])
    def test_non_finite_eta_exit_2(self, tmp_path, chain3_file, capsys, eta):
        """At a complete-data fixpoint the report runs up to the rate table,
        where a non-finite eta must stop it rather than write Infinity."""
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 200, "--seed", 7, "--out", data)
        net = chain3()
        res = fit(net, read_dataset(str(data), net.structure),
                  FitConfig("em", 1.0, 5, tol_ll=1e-13, init="uniform"))
        theta_path = tmp_path / "theta.json"
        write_network(net.with_theta(res.theta), str(theta_path))
        out = tmp_path / "r.json"
        code = run("spectral", "--network", chain3_file, "--data", data,
                   "--theta", theta_path, "--etas", f"1,{eta}", "--out", out)
        assert code == 2
        assert f"eta must be a finite positive number, got {eta}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_eta_exit_2_off_the_fixpoint(self, tmp_path, chain3_file, capsys):
        """The etas are checked before the fixpoint residual, which would exit 3."""
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 50, "--obscure", "0.3",
            "--seed", 8, "--out", data)
        out = tmp_path / "r.json"
        code = run("spectral", "--network", chain3_file, "--data", data,
                   "--theta", chain3_file, "--etas", "inf", "--out", out)
        assert code == 2
        assert "eta must be a finite positive number, got inf" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_error_report(self, tmp_path, chain3_file):
        data = tmp_path / "d.csv"
        run("sample", "--network", chain3_file, "--n", 40, "--hidden", "M",
            "--obscure", "0.5", "--seed", 9, "--out", data)
        out = tmp_path / "errors.json"
        code = run("eval", "--learned", chain3_file, "--truth", chain3_file,
                   "--data", data, "--targets", "B,M", "--out", out)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["targets"]["B"]["mean_abs"] == pytest.approx(0.0, abs=1e-12)
        assert doc["targets"]["M"]["n_cases"] == 40
        assert doc["overall"]["mean_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_targets_exit_2_writes_nothing(self, tmp_path, capsys):
        net = tmp_path / "twolayer15.json"
        write_network(twolayer15(), str(net))
        data = tmp_path / "d.csv"
        run("sample", "--network", net, "--n", 40, "--obscure", "0.5", "--seed", 9, "--out", data)
        out = tmp_path / "errors.json"
        code = run("eval", "--learned", net, "--truth", net, "--data", data,
                   "--targets", "V4,V7,V7", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: targets name 'V7' more than once") and "Traceback" not in err
        assert not out.exists()

    def test_zero_probability_case_exit_3(self, tmp_path, chain3_file, capsys):
        """Case 1 has A = s1, which the true network rules out."""
        det = chain3().with_theta(
            type(chain3().theta)([np.array([[1.0, 0.0]])] + list(chain3().theta.tables[1:]))
        )
        truth = tmp_path / "det.json"
        write_network(det, str(truth))
        data = tmp_path / "d.csv"
        data.write_text("A,M,B\ns0,?,s1\ns1,?,s0\n")
        code = run("eval", "--learned", chain3_file, "--truth", truth,
                   "--data", data, "--targets", "M", "--out", tmp_path / "errors.json")
        assert code == 3
        err = capsys.readouterr().err
        assert "'M'" in err and "true network" in err and "case 1 " in err


class TestExperiment:
    def test_config_run(self, tmp_path):
        config = {
            "network": "builtin:chain3",
            "n_train": 80,
            "n_test": 30,
            "hidden": ["M"],
            "obscure_prob": 0.2,
            "seed": 3,
            "arms": [{"rule": "em", "eta": 1.0}, {"rule": "em", "eta": 1.8}],
            "targets": ["B"],
            "init_seed": 1,
            "max_iters": 15,
            "tol_ll": 1e-6,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        code = run("experiment", "--config", cfg_path, "--out-dir", out_dir)
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["arms"]) == 2
        assert summary["train_sha256"]

    def test_negative_n_train_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"network": "builtin:chain3", "n_train": -3, "seed": 1,
                                        "arms": [{"rule": "em", "eta": 1.0}]}))
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        assert "positive integer, got -3" in capsys.readouterr().err

    def test_negative_n_test_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"network": "builtin:chain3", "n_train": 20, "n_test": -4,
                                        "seed": 1, "arms": [{"rule": "em", "eta": 1.0}]}))
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        assert "n_test must be a nonnegative integer" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("init", "file"),
        ("init_seed", -2),
        ("obscure_prob", 1.5),
        ("max_iters", -3),
        ("tol_ll", -1.0),
        pytest.param("arms", [{"rule": "xx", "eta": 1.0}], id="arms-bad-rule"),
        pytest.param("arms", [{"rule": "em", "eta": 1.0}, {"rule": "em", "eta": -1.0}],
                     id="arms-negative-eta"),
        # a JSON number of the wrong kind, a bool or a string is refused, never converted
        ("n_train", 10.9),
        ("n_test", 3.7),
        ("seed", 1.5),
        ("max_iters", 2.5),
        ("n_train", True),
        pytest.param("arms", [{"rule": "em", "eta": True}], id="arms-boolean-eta"),
        ("obscure_prob", "0.2"),
        ("network", 5),
        pytest.param("targets", ["B", "B"], id="targets-duplicate"),
    ])
    def test_bad_field_exit_2_writes_nothing(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"network": "builtin:chain3", "n_train": 20, "seed": 1,
                                        "arms": [{"rule": "em", "eta": 1.0}], key: value}))
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("n_train", 10**30),
        ("n_test", 10**30),
        pytest.param("arms", [{"rule": "em", "eta": 10**400}], id="arms-400-digit-eta"),
    ])
    def test_huge_number_exit_2_writes_nothing(self, tmp_path, capsys, key, value):
        """A count too large to sample, or an eta written as 400 digits, which
        no float holds: exit 2, no traceback and no output directory."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"network": "builtin:chain3", "n_train": 20, "seed": 1,
                                        "arms": [{"rule": "em", "eta": 1.0}], key: value}))
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_5000_digit_eta_exit_2_writes_nothing(self, tmp_path, capsys):
        """More digits than Python converts to an int: json.loads raises a
        ValueError that is no JSONDecodeError."""
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text('{"network": "builtin:chain3", "n_train": 20, "seed": 1, '
                            '"arms": [{"rule": "em", "eta": 1' + "0" * 5000 + '}]}')
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: experiment config is not valid JSON") and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["hidden", "targets"])
    def test_unknown_variable_name_exit_2_writes_nothing(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"network": "builtin:chain3", "n_train": 20, "n_test": 10,
                                        "seed": 1, "arms": [{"rule": "em", "eta": 1.0}],
                                        key: ["ZZ"]}))
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'ZZ'" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_bad_config_exit_2(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text("{}")
        assert run("experiment", "--config", cfg_path, "--out-dir", tmp_path / "x") == 2
