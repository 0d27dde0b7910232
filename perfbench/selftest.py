"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

They check that every correctness gate rejects a perturbed result, that
the traced run restores every name it wraps, that the exact-repeat counts
repeat between two runs with the same seed, and that the benchmark fails
cleanly where the sources are missing.  The repeat test runs each
workload twice and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bnfit import estimation, harness, inference, model, netio, networks, spectral  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

RUN_TIMEOUT = 600


@pytest.fixture(scope="module")
def chain():
    net = networks.chain3()
    values = np.array([[0, -1, 1], [1, -1, -1], [-1, 0, 1], [1, 1, 0]])
    return net, netio.DataSet(net.structure, values)


def _bump(arrays, delta):
    out = [a.copy() for a in arrays]
    out[0].flat[0] += delta
    return out


def test_posterior_gate_trips(chain):
    net, data = chain
    posts, _ = inference.batch_family_posteriors(net, data.values)
    got = [[p[c] for p in posts] for c in range(len(data))]
    want = [inference.enumerate_family_posteriors(net, data.case(c)) for c in range(len(data))]
    assert wl.gate_posteriors_match(got, want) == []
    got[2] = _bump(got[2], 1e-8)
    assert len(wl.gate_posteriors_match(got, want)) == 1


def test_fit_gate_trips(chain):
    net, data = chain
    result = estimation.fit(net, data, wl._fixed_updates(3, 0))
    ll = float(np.mean(inference.log_likelihood_cases(net.with_theta(result.theta), data.values)))
    assert wl.gate_fit(result, ll, 3) == []
    assert wl.gate_fit(result, ll + 1e-6, 3)
    assert wl.gate_fit(result, ll, 4)


def test_report_gate_trips():
    good = spectral.SpectralReport(0.2, 0.9, 2.0 / 1.1, (), False, 1e-9)
    assert wl.gate_report(good) == []
    assert wl.gate_report(spectral.SpectralReport(0.2, 0.9, 2.0 / 1.1 + 1e-9, (), False, 1e-9))
    assert wl.gate_report(spectral.SpectralReport(0.2, 0.9, 2.0 / 1.1, (), False, 2e-6))
    assert wl.gate_report(spectral.SpectralReport(1.0, 1.0, 1.0, (), False, 1e-9))


def test_family_posterior_gate_trips(chain):
    net, data = chain
    posts, lls = inference.batch_family_posteriors(net, data.values)
    independent = inference.log_likelihood_cases(net, data.values)
    assert wl.gate_family_posteriors(posts, lls, independent) == []
    assert wl.gate_family_posteriors(_bump(posts, 1e-8), lls, independent)
    assert wl.gate_family_posteriors(posts, lls + 1e-8, independent)


def test_query_gate_trips():
    errors = {"targets": {"A": {"n_cases": 3, "mean_abs": 0.1}, "B": {"n_cases": 2, "mean_abs": 0.2}}}
    expected = {"A": (3, 0.1), "B": (2, 0.2)}
    assert wl.gate_queries(errors, expected) == {}
    assert set(wl.gate_queries(errors, {**expected, "A": (4, 0.1)})) == {"A"}
    assert set(wl.gate_queries(errors, {**expected, "B": (2, 0.2 + 1e-8)})) == {"B"}


def test_expected_queries_match_evaluate_queries():
    truth = networks.twolayer15()
    test = harness.obscure(harness.forward_sample(truth, 40, 1), harness.MissingnessSpec(wl.TWOLAYER_HIDDEN, 0.2, 2))
    learned = truth.with_theta(model.random_init(truth.structure, 3))
    errors = harness.evaluate_queries(learned, truth, test, harness.EvalSpec(wl.QUERY_TARGETS))
    assert wl.gate_queries(errors, wl._expected_queries(learned, truth, test)) == {}


def test_stream_gates_trip(chain):
    net, _ = chain
    assert wl.gate_case_ll(-1.25, -1.25) == []
    assert wl.gate_case_ll(-1.25 + 1e-8, -1.25)
    assert wl.gate_case_ll(None, -1.25)
    assert wl.gate_tables(net.theta) == []
    bad = [t.copy() for t in net.theta.tables]
    bad[1][0] = [0.5, 0.6]
    assert wl.gate_tables(model.ParameterVector(bad, _validate=False))


def test_tracer_restores_every_name(chain):
    net, data = chain
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer("selftest")
    with pytest.raises(RuntimeError):
        with tracer.installed("fit"):
            estimation.fit(net, data, wl._fixed_updates(2, 0))
            raise RuntimeError("leave the block early")
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.TARGETS}
    assert after == before
    assert tracer.calls("inference.estep") == 3
    assert tracer.calls("estimation.update") == 2


def _run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


REPEAT_COUNTS = (
    "fit_iters", "inference.estep_calls", "inference.parent_marginals_calls",
    "inference.posterior_calls", "online.inference_calls_per_case",
    "online.per_row_inference_calls_per_case", "spectral.phi_calls", "harness.queries",
)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_counts_repeat_with_the_seed(workload):
    procs = [_run(ROOT, workload, 7, 1) for _ in range(2)]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=RUN_TIMEOUT)
        assert proc.returncode == 0, err
        results.append(json.loads(out.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    for name in REPEAT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "online-twolayer15":
        assert first["metrics"]["online.inference_calls_per_case"]["value"] == 2.0
        assert first["metrics"]["online.per_row_inference_calls_per_case"]["value"] == 1.0
        assert first["metrics"]["inference.parent_marginals_calls"]["value"] == 1000.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "fit-dag50", 1, 0)
    out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    assert proc.returncode != 0
    assert "{" not in out


def test_names_agree_with_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(wl.WORKLOADS)
    layer = tracing.per_layer_metrics(tracing.Tracer("selftest"), 0, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
