"""CLI fuzz: every numeric flag of sample, fit, online and spectral, drawn
from the values that break naive parsing, ends in exit 0, 2 or 3."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit.cli import main
from bnfit.estimation import FitConfig, fit
from bnfit.harness import sample_obscured
from bnfit.netio import write_dataset, write_network
from bnfit.networks import chain3

BAD_NUMBERS = ("-1", "0", "nan", "inf", "1e308", "abc", "1e", "")
# a huge case or iteration count would allocate memory or run long
BAD_COUNTS = tuple(v for v in BAD_NUMBERS if v != "1e308")

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
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """chain3, a dataset of it, and an EM(1) fixpoint of that dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    net = chain3()
    data = sample_obscured(net, 60, ("M",), 0.2, 1)
    theta = fit(net, data, FitConfig("em", 1.0, 4000, tol_ll=None, tol_param=1e-10)).theta
    paths = {"root": root, "net": root / "chain3.json", "data": root / "train.csv",
             "theta": root / "theta.json"}
    write_network(net, str(paths["net"]))
    write_dataset(data, str(paths["data"]))
    write_network(net.with_theta(theta), str(paths["theta"]))
    return paths


def _argv(command, flags, files, out):
    net, data = str(files["net"]), str(files["data"])
    if command == "sample":
        base = {"--network": net, "--n": "5", "--hidden": "M"}
    elif command == "fit":
        base = {"--network": net, "--data": data, "--init": "random", "--max-iters": "5"}
    elif command == "online":
        base = {"--network": net, "--stream": data}
    else:
        base = {"--network": net, "--data": data, "--theta": str(files["theta"])}
    base.update(zip(flags[::2], flags[1::2]))
    return [command, *(x for kv in base.items() for x in kv), "--out", str(out)]


@settings(max_examples=100, deadline=None)
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
