"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

import bnfit
from bnfit.cli import main as cli_main
from bnfit.estimation import (
    FitConfig,
    expected_stats,
    em_eta_step,
    fit,
    distance_chi2,
    distance_kl,
    gradient,
    is_fixpoint,
)
from bnfit.harness import (
    ExperimentArm,
    ExperimentConfig,
    MissingnessSpec,
    forward_sample,
    obscure,
    run_experiment,
)
from bnfit.inference import (
    enumerate_family_posteriors, enumerate_joint, family_posteriors, parent_config_marginals
)
from bnfit.model import ParameterVector, random_init
from bnfit.netio import write_network
from bnfit.networks import chain3, tree8, twolayer15
from bnfit.online import LearningRateSchedule, run_stream
from bnfit.spectral import (
    contraction_rate,
    empirical_rate,
    eta_star,
    eigen_range,
    jacobian,
)

from util import (
    oracle_complete_counts,
    random_network,
    random_partial_case,
    random_tables,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- 1. oracle inference equivalence ---------------------------------------


def test_c01_oracle_inference_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        net = random_network(rng, int(rng.integers(6, 13)), arities=(2,))
        for _ in range(10):
            case = random_partial_case(rng, net.structure, p_observed=float(rng.uniform(0, 1)))
            fast = family_posteriors(net, case)
            slow = enumerate_family_posteriors(net, case)
            for a, b in zip(fast, slow):
                worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "variable elimination matches enumeration on 200 random pairs",
        worst <= 1e-12 and elapsed < 30.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f} s",
    )


# -- 2. gradient against central finite differences -------------------------


def _fd_gradient(net, dataset, h):
    """Independent oracle: central differences of the raw-table likelihood.

    The likelihood polynomial is linear in each raw entry, so the
    difference of the two probability evaluations is formed in exact
    coefficient form (2h times the entry's coefficient) and passed
    through log1p; this keeps the quotient relatively accurate even for
    very small gradient entries.
    """
    s = net.structure
    n = len(dataset)
    slopes = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    for l in range(n):
        states = dataset.values[l]
        free = [i for i in range(s.n_vars) if states[i] < 0]
        t = 1
        for v in free:
            t *= s.arity(v)
        full = np.tile(states, (t, 1))
        if free:
            grids = np.meshgrid(*[np.arange(s.arity(v)) for v in free], indexing="ij")
            for col, v in enumerate(free):
                full[:, v] = grids[col].ravel()
        w = np.ones(t)
        rows = []
        for i in range(s.n_vars):
            j = np.zeros(t, dtype=np.int64)
            for p in s.parents[i]:
                j = j * s.arity(p) + full[:, p]
            rows.append(j)
            w *= net.theta.tables[i][j, full[:, i]]
        a_total = w.sum()
        for i in range(s.n_vars):
            b = np.zeros(s.table_shape(i))
            np.add.at(
                b,
                (rows[i], full[:, i]),
                w / net.theta.tables[i][rows[i], full[:, i]],
            )
            slopes[i] += np.log1p(2.0 * h * b / (a_total - h * b)) / (2.0 * h) / n
    return slopes


def test_c02_gradient_finite_difference_check():
    rng = np.random.default_rng(1002)
    h = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        net = random_network(rng, int(rng.integers(5, 8)), arities=(2,), alpha=2.0)
        data = obscure(
            forward_sample(net, 20, seed=int(rng.integers(1 << 30))),
            MissingnessSpec((), 0.4, seed=int(rng.integers(1 << 30))),
        )
        stats = expected_stats(net, data)
        analytic = gradient(stats, net.theta)
        fd = _fd_gradient(net, data, h)
        for g, f in zip(analytic, fd):
            rel = np.abs(g - f) / np.maximum(np.abs(f), 1e-300)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "analytic gradient matches central finite differences (50 instances)",
        worst <= 1e-6 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f} s",
    )


# -- 3. fixpoint property of converged fits ---------------------------------


def test_c03_fixpoint_property():
    set_ups = [
        (tree8(), (), 0.5, 500, 1),
        (tree8(), ("T1",), 0.35, 500, 2),
        (twolayer15(), ("V0", "V2", "V4"), 0.2, 600, 1),
    ]
    worst_residual = 0.0
    worst_move = 0.0
    for net, hidden, p, n, seed in set_ups:
        data = obscure(
            forward_sample(net, n, seed=seed), MissingnessSpec(hidden, p, seed=seed + 1)
        )
        res = fit(net, data, FitConfig("em", 1.0, 6000, tol_ll=1e-10, init="random", seed=5))
        assert res.termination == "tol_ll", "fit did not converge by tol_ll"
        stats = expected_stats(net.with_theta(res.theta), data)
        _, residual = is_fixpoint(res.theta, stats, 1e-6)
        worst_residual = max(worst_residual, residual)
        for eta in (0.5, 1.0, 1.7):
            stepped = em_eta_step(res.theta, stats, eta)
            move = max(
                float(np.abs(a - b).max())
                for a, b in zip(stepped.tables, res.theta.tables)
            )
            worst_move = max(worst_move, move)
    report(
        3,
        "converged fits sit at the update fixpoint for every eta",
        worst_residual < 1e-6 and worst_move < 1e-6,
        f"max residual {worst_residual:.2e}, max step move {worst_move:.2e}",
    )


# -- 4. EM(1) monotonicity ---------------------------------------------------


def test_c04_em1_monotonicity():
    nets = [
        (chain3(), ("M",), 350, 7),
        (tree8(), ("T1",), 350, 7),
        (twolayer15(), ("V0", "V2", "V4"), 400, 6),
    ]
    worst = 0.0
    run = 0
    for net, hidden, n, n_runs in nets:
        for _ in range(n_runs):
            data = obscure(
                forward_sample(net, n, seed=50 + run),
                MissingnessSpec(hidden, 0.25, seed=80 + run),
            )
            res = fit(net, data, FitConfig("em", 1.0, 60, tol_ll=1e-14, init="random", seed=run))
            lls = [t.train_ll for t in res.trace]
            worst = min(worst, float(np.diff(lls).min()))
            run += 1
    report(
        4,
        "train log-likelihood non-decreasing in 20 seeded EM(1) runs",
        worst >= -1e-12,
        f"worst per-iteration change {worst:.2e}",
    )


# -- 5. KL decomposition ------------------------------------------------------


def test_c05_kl_decomposition():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        net_a = random_network(rng, int(rng.integers(6, 11)), arities=(2,))
        net_b = net_a.with_theta(random_tables(rng, net_a.structure))
        weights = parent_config_marginals(net_a)
        decomposed = distance_kl(net_a.theta, net_b.theta, weights)
        pa = enumerate_joint(net_a)
        pb = enumerate_joint(net_b)
        joint_kl = float(np.sum(pa * np.log(pa / pb)))
        worst = max(worst, abs(decomposed - joint_kl) / abs(joint_kl))
    report(
        5,
        "row-wise KL with exact parent marginals equals joint KL (20 pairs)",
        worst <= 1e-10,
        f"max rel diff {worst:.2e}",
    )


# -- 6. chi^2 / KL second-order agreement -------------------------------------


def test_c06_chi2_kl_agreement():
    rng = np.random.default_rng(1006)
    worst_final = 0.0
    for _ in range(10):
        net = random_network(rng, 6)
        weights = parent_config_marginals(net)
        direction = []
        for t in net.theta.tables:
            d = rng.normal(size=t.shape)
            d -= d.mean(axis=1, keepdims=True)
            direction.append(d)
        ratios = []
        for step in (1e-2, 1e-3, 1e-4):
            theta_b = ParameterVector(
                [t + step * d for t, d in zip(net.theta.tables, direction)],
                _validate=False,
            )
            ratios.append(
                distance_chi2(net.theta, theta_b, weights)
                / distance_kl(net.theta, theta_b, weights)
            )
        assert abs(ratios[2] - 1.0) <= abs(ratios[0] - 1.0) + 1e-12
        worst_final = max(worst_final, abs(ratios[2] - 1.0))
    report(
        6,
        "chi^2 / KL ratio approaches 1 as the perturbation shrinks",
        worst_final <= 0.02,
        f"max |ratio - 1| at step 1e-4: {worst_final:.2e}",
    )


# -- 7. complete-data spectral degeneracy ------------------------------------


def test_c07_complete_data_degeneracy():
    net = tree8()
    data = forward_sample(net, 500, seed=7)
    start = net.with_theta(random_init(net.structure, 17))
    stats0 = expected_stats(start, data)
    one_step = em_eta_step(start.theta, stats0, 1.0)
    at_fix = net.with_theta(one_step)
    stats1 = expected_stats(at_fix, data)
    # the residual bottoms out at the probability floor (1e-9) when a
    # zero-count state gets clamped; 1e-6 is the fixpoint scale used
    # throughout (criterion 3, the jacobian precondition)
    _, residual = is_fixpoint(one_step, stats1, 1e-6)
    m = jacobian(at_fix, data)
    lmin, lmax, _ = eigen_range(m)
    star = eta_star(lmin, lmax)
    ok = (
        residual < 1e-6
        and abs(lmin - 1.0) <= 1e-6
        and abs(lmax - 1.0) <= 1e-6
        and abs(star - 1.0) <= 1e-6
    )
    report(
        7,
        "complete data: one EM(1) step reaches the fixpoint and the spectrum collapses",
        ok,
        f"residual {residual:.1e}, lambda [{lmin:.8f}, {lmax:.8f}], eta* {star:.8f}",
    )


# -- 8. predicted versus empirical contraction --------------------------------


def test_c08_predicted_vs_empirical_contraction():
    net = chain3()
    data = obscure(
        forward_sample(net, 500, seed=11), MissingnessSpec(("M",), 0.2, seed=12)
    )
    deep = FitConfig("em", 1.0, 5000, tol_ll=None, tol_param=1e-10, init="random", seed=3)
    star = fit(net, data, deep)
    at_star = net.with_theta(star.theta)
    m = jacobian(at_star, data)
    lmin, lmax, _ = eigen_range(m)
    rng = np.random.default_rng(13)
    details = []
    ok = True
    for eta in (0.5, 1.0, 1.5):
        predicted = contraction_rate(eta, lmin, lmax)
        tables = []
        for t in star.theta.tables:
            d = rng.normal(size=t.shape)
            d -= d.mean(axis=1, keepdims=True)
            tables.append(t + 3e-3 * d)
        begin = net.with_theta(ParameterVector(tables, _validate=False))
        run = fit(begin, data,
                  FitConfig("em", eta, 60, tol_ll=None, tol_param=1e-11,
                            init="network", record_thetas=True))
        limit = fit(net.with_theta(run.theta), data,
                    FitConfig("em", eta, 5000, tol_ll=None, tol_param=1e-12,
                              init="network"))
        measured = empirical_rate(list(run.thetas), limit.theta)
        gap = abs(measured - predicted) / predicted
        details.append(f"eta {eta}: {measured:.3f} vs {predicted:.3f} ({100 * gap:.1f}%)")
        ok = ok and gap <= 0.15
    report(
        8,
        "empirical L2 contraction within 15% of the predicted rate",
        ok,
        "; ".join(details),
    )


# -- 9. desk-scale overrelaxation speedup -------------------------------------


def test_c09_em18_speedup():
    t0 = time.perf_counter()
    net = twolayer15()
    data = obscure(
        forward_sample(net, 1000, seed=1),
        MissingnessSpec(("V0", "V2", "V4"), 0.2, seed=2),
    )
    good = 0
    excluded = 0
    lines = []
    for seed in range(1, 6):
        theta0 = random_init(net.structure, 100 + seed)
        runs = {}
        for eta in (1.0, 1.8):
            runs[eta] = fit(
                net.with_theta(theta0),
                data,
                FitConfig("em", eta, 800, tol_ll=1e-6, init="network", warm_start_em1=True),
            )
        gap = abs(runs[1.0].trace[-1].train_ll - runs[1.8].trace[-1].train_ll)
        i10, i18 = runs[1.0].iterations, runs[1.8].iterations
        if gap > 0.01:
            excluded += 1
            lines.append(f"seed {seed}: excluded, different maxima (LL gap {gap:.3f})")
            continue
        ratio = i18 / i10
        if (
            runs[1.0].termination == "tol_ll"
            and runs[1.8].termination == "tol_ll"
            and ratio <= 0.75
        ):
            good += 1
            lines.append(f"seed {seed}: {i18} vs {i10} iterations (ratio {ratio:.2f})")
        else:
            lines.append(f"seed {seed}: no speedup ({i18} vs {i10}, ratio {ratio:.2f})")
    elapsed = time.perf_counter() - t0
    for line in lines:
        print("   ", line)
    report(
        9,
        "EM(1.8) needs at most 0.75x the EM(1.0) iterations on >= 4 of 5 seeds",
        good >= 4 and elapsed < 300.0,
        f"{good}/5 seeds, {excluded} excluded, {elapsed:.0f} s",
    )


# -- 10. online running-average identity --------------------------------------


def test_c10_running_average_identity():
    worst = 0.0
    for net, n, seed in ((tree8(), 600, 21), (chain3(), 800, 22)):
        data = forward_sample(net, n, seed=seed)
        start = net.with_theta(random_init(net.structure, seed + 1))
        result = run_stream(start, data, "em", LearningRateSchedule.per_row_count())
        counts = oracle_complete_counts(net, data.values)
        for i in range(net.structure.n_vars):
            mass = counts[i].sum(axis=1)
            for j in range(counts[i].shape[0]):
                if mass[j] > 0:
                    dev = float(
                        np.abs(
                            result.state.theta.tables[i][j] - counts[i][j] / mass[j]
                        ).max()
                    )
                    worst = max(worst, dev)
    report(
        10,
        "counting schedule reproduces batch conditional frequencies",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


# -- 11. eta* formula unit checks ---------------------------------------------


def test_c11_eta_star_units():
    checks = (
        abs(eta_star(1.0, 1.0) - 1.0) < 1e-15
        and abs(eta_star(0.5, 1.0) - 4.0 / 3.0) < 1e-15
        and abs(eta_star(0.1, 0.4) - 4.0) < 1e-12
    )
    rng = np.random.default_rng(1011)
    argmin_ok = True
    for _ in range(50):
        lmin = float(rng.uniform(0.01, 1.0))
        lmax = float(rng.uniform(lmin, 1.0))
        best = contraction_rate(eta_star(lmin, lmax), lmin, lmax)
        for eta in np.linspace(0.02, 3.0, 100):
            if best > contraction_rate(float(eta), lmin, lmax) + 1e-12:
                argmin_ok = False
    report(
        11,
        "eta* unit values (including >2) and the rho-argmin property",
        checks and argmin_ok,
        f"eta*(0.1,0.4)={eta_star(0.1, 0.4):g}",
    )


# -- 12. determinism -----------------------------------------------------------


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def _strip_wall(path):
    text = _read(path).decode()
    return ["," .join(line.split(",")[:-1]) for line in text.splitlines()]


def test_c12_determinism(tmp_path):
    net_path = tmp_path / "net.json"
    write_network(chain3(), str(net_path), name="chain3")

    # sample twice
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (s1, s2):
        assert cli_main(["sample", "--network", str(net_path), "--n", "200",
                         "--hidden", "M", "--obscure", "0.2", "--seed", "9",
                         "--out", str(out)]) == 0
    sample_ok = _read(s1) == _read(s2)

    # fit twice (learned network bytes; traces modulo the wall column)
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    for out, tr in ((f1, t1), (f2, t2)):
        assert cli_main(["fit", "--network", str(net_path), "--data", str(s1),
                         "--rule", "em", "--eta", "1.5", "--max-iters", "25",
                         "--tol-ll", "1e-8", "--init", "random", "--seed", "4",
                         "--trace", str(tr), "--out", str(out)]) == 0
    fit_ok = _read(f1) == _read(f2) and _strip_wall(t1) == _strip_wall(t2)

    # experiment twice
    config = ExperimentConfig(
        network=str(net_path), n_train=150, n_test=50, hidden=("M",),
        obscure_prob=0.2, seed=3,
        arms=(ExperimentArm("em", 1.0), ExperimentArm("em", 1.8)),
        targets=("B",), init="random", init_seed=1, max_iters=20, tol_ll=1e-6,
    )
    d1, d2 = tmp_path / "e1", tmp_path / "e2"
    run_experiment(config, str(d1))
    run_experiment(config, str(d2))
    exp_ok = True
    for name in ("train.csv", "test.csv", "summary.json",
                 "arm_00_em_1/learned.json", "arm_01_em_1.8/learned.json"):
        exp_ok = exp_ok and _read(d1 / name) == _read(d2 / name)
    for name in ("arm_00_em_1/trace.csv", "arm_01_em_1.8/trace.csv"):
        exp_ok = exp_ok and _strip_wall(d1 / name) == _strip_wall(d2 / name)

    report(
        12,
        "sample, fit, and experiment artifacts are byte-identical across reruns "
        "(trace wall-clock column excluded)",
        sample_ok and fit_ok and exp_ok,
        f"sample {sample_ok}, fit {fit_ok}, experiment {exp_ok}",
    )
