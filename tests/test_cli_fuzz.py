"""CLI fuzz: every numeric flag of sample, fit, online and spectral, and
every numeric key of an experiment config, drawn from the values that break
naive parsing, ends in exit 0, 2 or 3; so does eval on a mismatched network
or a target that is unknown or always observed."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit.cli import main
from bnfit.estimation import FitConfig, fit
from bnfit.harness import sample_obscured
from bnfit.netio import write_dataset, write_network
from bnfit.networks import chain3, tree8

from util import alt_chain3

BAD_NUMBERS = ("-1", "0", "nan", "inf", "1e308", "abc", "1e", "")
# a huge case or iteration count would allocate memory or run long
BAD_COUNTS = tuple(v for v in BAD_NUMBERS if v != "1e308")
# the same as JSON tokens (NaN and Infinity parse; 1e does not), plus an
# integer no float holds and a count too large to sample
BAD_JSON = ("-1", "0", "NaN", "Infinity", "1e308", '"abc"', "1e", '""', "1" + "0" * 400,
            str(10**30))
# a value "@name" stands for the path of the fixture file `name`
LEARNED = ("@net", "@alt", "@tree8")
TARGET_NAMES = ("M", "A", "ZZ", "M,ZZ", ",", "")

# (subcommand, how a drawn value enters its arguments, the values drawn)
TARGETS = (
    ("sample", lambda v: ["--n", v], BAD_COUNTS),
    ("sample", lambda v: ["--obscure", v], BAD_NUMBERS),
    ("sample", lambda v: ["--seed", v], BAD_NUMBERS),
    ("fit", lambda v: ["--eta", v], BAD_NUMBERS),
    ("fit", lambda v: ["--max-iters", v], BAD_COUNTS),
    ("fit", lambda v: ["--tol-ll", v], BAD_NUMBERS),
    ("fit", lambda v: ["--seed", v], BAD_NUMBERS),
    ("online", lambda v: ["--schedule", f"fixed:{v}"], BAD_NUMBERS),
    ("online", lambda v: ["--schedule", f"inv_t:{v},20"], BAD_NUMBERS),
    ("online", lambda v: ["--schedule", f"inv_t:2,{v}"], BAD_NUMBERS),
    ("spectral", lambda v: ["--etas", v], BAD_NUMBERS),
    ("spectral", lambda v: ["--etas", f"1.0,{v}"], BAD_NUMBERS),
    ("eval", lambda v: ["--learned", v], LEARNED),
    ("eval", lambda v: ["--targets", v], TARGET_NAMES),
    # every variable of the complete data is observed
    ("eval", lambda v: ["--data", "@complete", "--targets", v], TARGET_NAMES),
    *(("experiment", lambda v, key=key: [key, v], BAD_JSON) for key in
      ("n_train", "n_test", "seed", "init_seed", "obscure_prob", "max_iters", "tol_ll", "eta")),
)

CONFIG = {"network": "builtin:chain3", "n_train": 20, "n_test": 10, "hidden": ["M"],
          "obscure_prob": 0.2, "seed": 1, "init_seed": 2, "max_iters": 5, "tol_ll": 1e-6,
          "targets": ["B"], "arms": [{"rule": "em", "eta": 1.0}]}


def _config_text(key, token):
    """CONFIG with the value of `key` (for "eta", the arm's eta) written as `token`."""
    if key == "eta":
        doc = {**CONFIG, "arms": [{"rule": "em", "eta": "@token"}]}
    else:
        doc = {**CONFIG, key: "@token"}
    return json.dumps(doc).replace('"@token"', token)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """chain3, a dataset of it, an EM(1) fixpoint of that dataset, complete
    data, and two networks of other structures: tree8, and chain3 with a
    third state for A."""
    root = tmp_path_factory.mktemp("fuzz")
    net = chain3()
    data = sample_obscured(net, 60, ("M",), 0.2, 1)
    theta = fit(net, data, FitConfig("em", 1.0, 4000, tol_ll=None, tol_param=1e-10)).theta
    paths = {"root": root, **{name.split(".")[0]: root / name for name in
             ("net.json", "data.csv", "theta.json", "complete.csv", "alt.json", "tree8.json")}}
    write_network(net, str(paths["net"]))
    write_dataset(data, str(paths["data"]))
    write_network(net.with_theta(theta), str(paths["theta"]))
    write_dataset(sample_obscured(net, 20, (), 0.0, 2), str(paths["complete"]))
    write_network(alt_chain3(), str(paths["alt"]))
    write_network(tree8(), str(paths["tree8"]))
    return paths


def _argv(command, flags, files, out):
    net, data = str(files["net"]), str(files["data"])
    if command == "experiment":
        key, token = flags
        config = out.parent / "config.json"
        config.write_text(_config_text(key, token))
        return ["experiment", "--config", str(config), "--out-dir", str(out)]
    if command == "sample":
        base = {"--network": net, "--n": "5", "--hidden": "M"}
    elif command == "fit":
        base = {"--network": net, "--data": data, "--init": "random", "--max-iters": "5"}
    elif command == "online":
        base = {"--network": net, "--stream": data}
    elif command == "eval":
        base = {"--learned": net, "--truth": net, "--data": data, "--targets": "M"}
    else:
        base = {"--network": net, "--data": data, "--theta": str(files["theta"])}
    base.update((k, str(files[v[1:]]) if v.startswith("@") else v)
                for k, v in zip(flags[::2], flags[1::2]))
    return [command, *(x for kv in base.items() for x in kv), "--out", str(out)]


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(TARGETS), data=st.data())
def test_numeric_flags_exit_0_2_or_3(files, target, data):
    command, flags, values = target
    value = data.draw(st.sampled_from(values), label="value")
    out = Path(tempfile.mkdtemp(dir=files["root"])) / "out"
    argv = _argv(command, flags(value), files, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing a value
            code = e.code
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert "error:" in err or "numerical failure:" in err, (argv, err)
    if code == 2:
        assert not out.exists(), argv
