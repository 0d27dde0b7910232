"""Batch estimation: E-step statistics, update rules, distances, fit loop."""

import math
import warnings

import numpy as np
import pytest

from bnfit.estimation import (
    FitConfig,
    SufficientStats,
    distance_chi2,
    distance_kl,
    eg_eta_step,
    em_eta_step,
    expected_stats,
    fit,
    gp_step,
    gradient,
    is_fixpoint,
    model_parent_marginals,
)
from bnfit.harness import MissingnessSpec, forward_sample, obscure
from bnfit.inference import enumerate_joint
from bnfit.model import (
    NumericalError,
    ParameterVector,
    ValidationError,
    ZeroProbabilityError,
    random_init,
)
from bnfit.netio import MISSING, DataSet, dataset_from_cases
from bnfit.networks import chain3, tree8

from util import (
    oracle_complete_counts,
    oracle_family_posteriors,
    random_network,
)


def single_row_stats(joint_row, parent=None):
    joint = [np.asarray([joint_row], dtype=float)]
    if parent is None:
        return SufficientStats.from_joint(joint)
    return SufficientStats(tuple(joint), (np.asarray([parent], dtype=float),))


class TestExpectedStats:
    def test_complete_data_equals_empirical_counts(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 7)
        data = forward_sample(net, 400, seed=1)
        stats = expected_stats(net, data)
        counts = oracle_complete_counts(net, data.values)
        for got, want in zip(stats.joint, counts):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_empty_case_gives_prior_marginals(self):
        net = chain3()
        empty = DataSet(net.structure, np.full((1, 3), MISSING, dtype=np.int64))
        stats = expected_stats(net, empty)
        joint = enumerate_joint(net).reshape(2, 2, 2)
        np.testing.assert_allclose(stats.joint[0], joint.sum(axis=(1, 2))[None, :], atol=1e-12)
        np.testing.assert_allclose(stats.joint[1], joint.sum(axis=2), atol=1e-12)
        np.testing.assert_allclose(stats.joint[2], joint.sum(axis=0), atol=1e-12)

    def test_half_hidden_chain_matches_oracle_average(self):
        net = chain3()
        data = forward_sample(net, 60, seed=2)
        part = obscure(data, MissingnessSpec(("M",), 0.5, seed=3))
        stats = expected_stats(net, part)
        acc = [np.zeros_like(t) for t in stats.joint]
        for l in range(len(part)):
            posts = oracle_family_posteriors(net, part.case(l))
            for i in range(3):
                acc[i] += posts[i]
        for got, want in zip(stats.joint, acc):
            np.testing.assert_allclose(got, want / len(part), atol=1e-12)

    def test_parent_is_row_sum(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 6)
        data = obscure(forward_sample(net, 100, seed=5), MissingnessSpec((), 0.4, seed=6))
        stats = expected_stats(net, data)
        for j, p in zip(stats.joint, stats.parent):
            np.testing.assert_array_equal(j.sum(axis=1), p)

    def test_empty_dataset_rejected(self):
        net = chain3()
        with pytest.raises(ValidationError):
            expected_stats(net, DataSet(net.structure, np.zeros((0, 3), dtype=np.int64)))

    def test_zero_probability_case_reports_index(self):
        net = chain3().with_theta(
            ParameterVector(
                [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.5, 0.5]]),
                 np.array([[0.5, 0.5], [0.5, 0.5]])]
            )
        )
        values = np.full((3, 3), MISSING, dtype=np.int64)
        values[2, 0] = 1  # A = s1 has probability 0
        with pytest.raises(ZeroProbabilityError) as err:
            expected_stats(net, DataSet(net.structure, values))
        assert err.value.case_index == 2


class TestGradient:
    def test_indicator_over_theta(self):
        theta = ParameterVector([np.array([[0.25, 0.75]])])
        stats = single_row_stats([1.0, 0.0])
        grad = gradient(stats, theta)
        np.testing.assert_allclose(grad[0], [[4.0, 0.0]])

    def test_theta_proportional_rows_constant(self):
        theta = ParameterVector([np.array([[0.3, 0.7]])])
        stats = single_row_stats([0.3 * 0.4, 0.7 * 0.4])
        grad = gradient(stats, theta)
        np.testing.assert_allclose(grad[0], [[0.4, 0.4]], atol=1e-15)

    def test_hard_zero_entries_give_zero_gradient(self):
        """A deterministic table entry is unreachable, carries no expected
        count, and the likelihood does not depend on it."""
        theta = ParameterVector([np.array([[1.0, 0.0]])])
        stats = single_row_stats([1.0, 0.0])
        grad = gradient(stats, theta)
        assert np.all(np.isfinite(grad[0]))
        np.testing.assert_allclose(grad[0], [[1.0, 0.0]])

    def test_matches_finite_differences(self):
        """Central differences of the raw-table likelihood polynomial.

        The likelihood is linear in each raw entry, so the difference
        quotient is evaluated in exact-coefficient form: the numerator
        2h*B is the entry's polynomial coefficient, which avoids the
        catastrophic cancellation of subtracting two nearby sums.
        """
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(10):
            net = random_network(rng, 6, arities=(2,), alpha=2.0)
            data = obscure(forward_sample(net, 15, seed=int(rng.integers(1 << 30))),
                           MissingnessSpec((), 0.4, seed=int(rng.integers(1 << 30))))
            stats = expected_stats(net, data)
            grad = gradient(stats, net.theta)
            fd = fd_gradient_oracle(net, data, h)
            for g, f in zip(grad, fd):
                scale = np.maximum(np.abs(f), 1e-12)
                np.testing.assert_array_less(np.abs(g - f) / scale, 1e-6)


def fd_gradient_oracle(net, data, h):
    """Naive-enumeration central finite differences; see test docstring."""
    s = net.structure
    out = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
    n = len(data)
    from util import all_assignments, oracle_joint_of_assignment, parent_row_of

    for l in range(n):
        case = data.case(l)
        a_total = 0.0
        b_coef = [np.zeros(s.table_shape(i)) for i in range(s.n_vars)]
        for assign in all_assignments(s, case):
            w = oracle_joint_of_assignment(net, assign)
            a_total += w
            for i in range(s.n_vars):
                j = parent_row_of(s, i, assign)
                k = int(assign[i])
                b_coef[i][j, k] += w / net.theta.tables[i][j, k]
        for i in range(s.n_vars):
            delta = 2.0 * h * b_coef[i]
            slope = np.log1p(delta / (a_total - h * b_coef[i])) / (2.0 * h)
            out[i] += slope / n
    return out


class TestGpStep:
    def test_constant_gradient_row_unchanged(self):
        theta = ParameterVector([np.array([[0.3, 0.7]])])
        out = gp_step(theta, [np.array([[2.5, 2.5]])], 0.4)
        np.testing.assert_allclose(out.tables[0], theta.tables[0], atol=1e-12)

    def test_projected_step_values(self):
        theta = ParameterVector([np.array([[0.5, 0.5]])])
        out = gp_step(theta, [np.array([[2.0, 0.0]])], 0.1)
        np.testing.assert_allclose(out.tables[0], [[0.6, 0.4]], atol=1e-12)

    def test_row_sums_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            net = random_network(rng, 5)
            grad = [rng.normal(size=t.shape) for t in net.theta.tables]
            out = gp_step(net.theta, grad, 0.05)
            for t in out.tables:
                np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
                assert t.min() >= 1e-10


class TestEmEtaStep:
    def test_eta_one_is_count_ratio(self):
        theta = ParameterVector([np.array([[0.9, 0.1]])])
        stats = single_row_stats([0.03, 0.01])
        out = em_eta_step(theta, stats, 1.0)
        np.testing.assert_allclose(out.tables[0], [[0.75, 0.25]], atol=1e-9)

    def test_eta_zero_identity(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 5)
        data = forward_sample(net, 50, seed=10)
        stats = expected_stats(net, data)
        out = em_eta_step(net.theta, stats, 0.0)
        for a, b in zip(out.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_eta_two_extrapolates_to_boundary(self):
        theta = ParameterVector([np.array([[0.5, 0.5]])])
        stats = single_row_stats([0.75, 0.25], parent=1.0)
        out = em_eta_step(theta, stats, 2.0)
        np.testing.assert_allclose(out.tables[0], [[1.0 - 1e-9, 1e-9]], atol=1e-12)

    def test_low_mass_row_frozen(self):
        theta = ParameterVector([np.array([[0.5, 0.5], [0.4, 0.6]])])
        joint = [np.array([[0.7, 0.3], [0.0, 0.0]])]
        stats = SufficientStats.from_joint(joint)
        out = em_eta_step(theta, stats, 1.0)
        np.testing.assert_array_equal(out.tables[0][1], [0.4, 0.6])


class TestEgEtaStep:
    def test_eta_zero_identity(self):
        theta = ParameterVector([np.array([[0.2, 0.8]])])
        stats = single_row_stats([0.5, 0.5])
        out = eg_eta_step(theta, stats, 0.0)
        np.testing.assert_allclose(out.tables[0], theta.tables[0], atol=1e-12)

    def test_theta_proportional_row_unchanged(self):
        theta = ParameterVector([np.array([[0.3, 0.7]])])
        stats = single_row_stats([0.3 * 0.6, 0.7 * 0.6])
        out = eg_eta_step(theta, stats, 0.8)
        np.testing.assert_allclose(out.tables[0], theta.tables[0], atol=1e-12)

    def test_exponentiated_weights(self):
        theta = ParameterVector([np.array([[0.5, 0.5]])])
        stats = single_row_stats([0.6, 0.4], parent=1.0)
        out = eg_eta_step(theta, stats, 0.5)
        w = np.array([0.5 * math.exp(0.6), 0.5 * math.exp(0.4)])
        np.testing.assert_allclose(out.tables[0][0], w / w.sum(), atol=1e-12)

    def test_extreme_exponent_clipped_finite(self):
        theta = ParameterVector([np.array([[1.0 - 1e-9, 1e-9]])])
        stats = single_row_stats([0.0, 1.0], parent=1.0)
        out = eg_eta_step(theta, stats, 2.0)
        assert np.all(np.isfinite(out.tables[0]))
        assert out.tables[0].sum() == pytest.approx(1.0, abs=1e-9)


class TestIsFixpoint:
    def test_complete_data_frequencies_exact(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 6)
        data = forward_sample(net, 300, seed=12)
        stats = expected_stats(net, data)
        counts = stats.joint
        ratio_tables = []
        for i, (j, p) in enumerate(zip(counts, stats.parent)):
            t = net.theta.tables[i].copy()
            mask = p > 0
            t[mask] = j[mask] / p[mask, None]
            ratio_tables.append(t)
        theta_star = ParameterVector(ratio_tables, _validate=False)
        stats_star = expected_stats(net.with_theta(theta_star), data)
        ok, residual = is_fixpoint(theta_star, stats_star, 1e-12)
        assert ok and residual < 1e-12

    def test_perturbed_row_detected(self):
        net = chain3()
        data = forward_sample(net, 200, seed=13)
        cfg = FitConfig("em", 1.0, 500, tol_ll=None, tol_param=1e-10, init="uniform")
        res = fit(net, data, cfg)
        t = [x.copy() for x in res.theta.tables]
        t[2][0] = t[2][0] + np.array([0.05, -0.05])
        theta = ParameterVector(t, _validate=False)
        stats = expected_stats(net.with_theta(theta), data)
        ok, residual = is_fixpoint(theta, stats, 1e-3)
        assert not ok and residual >= 0.049


class TestFit:
    def test_complete_data_em1_converges_first_iteration(self):
        rng = np.random.default_rng(14)
        net = random_network(rng, 6)
        data = forward_sample(net, 200, seed=15)
        res = fit(net, data, FitConfig("em", 1.0, 50, tol_ll=1e-12, init="random", seed=3))
        stats = expected_stats(net.with_theta(res.theta), data)
        ok, residual = is_fixpoint(res.theta, stats, 1e-9)
        assert ok
        # a fixpoint is stationary for every rate, not just the one fitted
        for eta in (0.5, 1.0, 1.7):
            again = em_eta_step(res.theta, stats, eta)
            for a, b in zip(again.tables, res.theta.tables):
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_em1_train_ll_monotone(self):
        rng = np.random.default_rng(16)
        for trial in range(3):
            net = random_network(rng, 6)
            data = obscure(
                forward_sample(net, 150, seed=20 + trial),
                MissingnessSpec(("X0",), 0.3, seed=30 + trial),
            )
            res = fit(net, data, FitConfig("em", 1.0, 40, tol_ll=1e-12, init="random", seed=trial))
            lls = [r.train_ll for r in res.trace]
            assert all(b - a >= -1e-12 for a, b in zip(lls, lls[1:]))

    def test_fixed_seed_bit_reproducible(self):
        net = tree8()
        data = obscure(forward_sample(net, 120, seed=2), MissingnessSpec(("T1",), 0.2, seed=3))
        cfg = FitConfig("em", 1.5, 15, tol_ll=1e-9, init="random", seed=77)
        a = fit(net, data, cfg)
        b = fit(net, data, cfg)
        assert a.theta == b.theta
        assert [r.train_ll for r in a.trace] == [r.train_ll for r in b.trace]

    def test_warm_start_first_step_is_em1(self):
        net = chain3()
        data = obscure(forward_sample(net, 100, seed=4), MissingnessSpec(("M",), 0.0, seed=5))
        theta0 = random_init(net.structure, 6)
        cfg = FitConfig("eg", 1.4, 1, tol_ll=1e-15, init="file", init_theta=theta0,
                        warm_start_em1=True)
        res = fit(net, data, cfg)
        stats0 = expected_stats(net.with_theta(theta0), data)
        expected = em_eta_step(theta0, stats0, 1.0)
        for a, b in zip(res.theta.tables, expected.tables):
            np.testing.assert_array_equal(a, b)

    def test_termination_reasons(self):
        net = chain3()
        data = forward_sample(net, 80, seed=7)
        res = fit(net, data, FitConfig("em", 1.0, 1, tol_ll=1e-30, init="uniform"))
        assert res.termination == "max_iters"
        res = fit(net, data, FitConfig("em", 1.0, 50, tol_ll=1e-3, init="uniform"))
        assert res.termination == "tol_ll"
        res = fit(net, data, FitConfig("em", 1.0, 50, tol_ll=None, tol_param=1e-6, init="uniform"))
        assert res.termination == "tol_param"

    def test_trace_length_bound(self):
        net = chain3()
        data = forward_sample(net, 30, seed=8)
        res = fit(net, data, FitConfig("em", 1.0, 7, tol_ll=1e-30, init="uniform"))
        assert len(res.trace) <= 8
        assert res.trace[0].iteration == 0

    def test_both_stops_disabled_rejected(self):
        with pytest.raises(ValidationError):
            FitConfig("em", 1.0, 10, tol_ll=None, tol_param=None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eta_rejected(self, bad):
        with pytest.raises(ValidationError, match="eta"):
            FitConfig("em", bad, 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tol_ll", "tol_param"])
    def test_non_finite_tolerance_rejected(self, name, bad):
        with pytest.raises(ValidationError, match=name):
            FitConfig("em", 1.0, 10, **{name: bad})

    def test_non_finite_update_named(self):
        """A diverging GP step: the update overflows, and the fit names the
        iteration, the rule and eta instead of a zero-probability case."""
        net = chain3()
        data = forward_sample(net, 50, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"iteration 2: the gp update with eta=1e\+308") as info:
                fit(net, data, FitConfig(rule="gp", eta=1e308, init="uniform"))
        assert not isinstance(info.value, ZeroProbabilityError)

    def test_non_finite_update_warns_nothing(self):
        """The fit itself silences the overflow it reports, so no numpy
        warning comes before the NumericalError."""
        net = chain3()
        data = forward_sample(net, 50, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"iteration 2: the gp update"):
                fit(net, data, FitConfig(rule="gp", eta=1e308, init="uniform"))

    def test_test_ll_recorded(self):
        net = chain3()
        train = forward_sample(net, 60, seed=9)
        test = forward_sample(net, 40, seed=10)
        res = fit(net, train, FitConfig("em", 1.0, 3, tol_ll=1e-12, init="uniform"), test)
        assert all(r.test_ll is not None for r in res.trace)


class TestDistances:
    def test_kl_zero_on_equal(self):
        net = chain3()
        w = model_parent_marginals(net)
        assert distance_kl(net.theta, net.theta, w) == pytest.approx(0.0, abs=1e-15)

    def test_kl_decomposition_matches_joint_enumeration(self):
        """Weighted row-wise KL with exact parent marginals equals the KL
        of the two joint distributions."""
        rng = np.random.default_rng(17)
        for _ in range(5):
            net_a = random_network(rng, 7)
            net_b = net_a.with_theta(
                random_init(net_a.structure, int(rng.integers(1 << 30)))
            )
            w = model_parent_marginals(net_a)
            decomposed = distance_kl(net_a.theta, net_b.theta, w)
            pa = enumerate_joint(net_a)
            pb = enumerate_joint(net_b)
            joint_kl = float(np.sum(pa * np.log(pa / pb)))
            assert decomposed == pytest.approx(joint_kl, rel=1e-10)

    def test_zero_weight_rows_contribute_nothing(self):
        a = ParameterVector([np.array([[0.5, 0.5], [0.9, 0.1]])])
        b = ParameterVector([np.array([[0.5, 0.5], [0.1, 0.9]])])
        w = [np.array([1.0, 0.0])]
        assert distance_kl(a, b, w) == pytest.approx(0.0, abs=1e-15)
        assert distance_chi2(a, b, w) == pytest.approx(0.0, abs=1e-15)

    def test_chi2_substitution_value(self):
        a = ParameterVector([np.array([[0.6, 0.4]])])
        b = ParameterVector([np.array([[0.5, 0.5]])])
        w = [np.array([1.0])]
        assert distance_chi2(a, b, w) == pytest.approx(0.02, rel=1e-12)

    def test_chi2_approaches_kl_quadratically(self):
        """Second-order agreement along a fixed direction."""
        rng = np.random.default_rng(18)
        net = random_network(rng, 6)
        w = model_parent_marginals(net)
        direction = [rng.normal(size=t.shape) for t in net.theta.tables]
        direction = [d - d.mean(axis=1, keepdims=True) for d in direction]
        ratios = []
        for step in (1e-2, 1e-3, 1e-4):
            tables = [
                t + step * d for t, d in zip(net.theta.tables, direction)
            ]
            theta_b = ParameterVector(tables, _validate=False)
            ratio = distance_chi2(net.theta, theta_b, w) / distance_kl(net.theta, theta_b, w)
            ratios.append(ratio)
        assert abs(ratios[-1] - 1.0) < 0.02
        assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0)
