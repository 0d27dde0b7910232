"""One-sample update rules and learning-rate schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit import estimation
from bnfit.estimation import SufficientStats, _eg_rows, _em_rows, em_eta_step, expected_stats, fit, FitConfig
from bnfit.harness import MissingnessSpec, forward_sample, obscure
from bnfit.inference import family_posteriors, log_marginal_likelihood, parent_config_marginals
from bnfit.model import (
    PROB_FLOOR,
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
    clamp_rows,
    random_init,
)
from bnfit.netio import MISSING, DataCase, DataSet
from bnfit.networks import chain3, tree8
from bnfit.spectral import phi_apply
from bnfit.online import (
    RUNNING_AVG_FLOOR,
    LearningRateSchedule,
    _case_posteriors,
    init_online_state,
    online_eg_step,
    online_em_step,
    online_gp_step,
    run_stream,
)

from util import oracle_complete_counts, random_network, random_partial_case


def binary_root(p0=0.5) -> Network:
    v = Variable(0, "X", ("s0", "s1"))
    s = NetworkStructure((v,), ((),))
    return Network(s, ParameterVector([np.array([[p0, 1 - p0]])]))


class TestSchedules:
    def test_fixed_rate_bounds(self):
        with pytest.raises(ValidationError):
            LearningRateSchedule.fixed(0.0)
        with pytest.raises(ValidationError):
            LearningRateSchedule.fixed(2.5)
        LearningRateSchedule.fixed(2.0)

    def test_inverse_t_decays_and_clips(self):
        sched = LearningRateSchedule.inverse_t(4.0, 1.0)
        mass = np.zeros(3)
        assert sched.row_rates(0, mass)[0] == 2.0  # 4/1 clipped to eta_max
        assert sched.row_rates(7, mass)[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("c, t0", [(math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_inverse_t_non_finite_rejected(self, c, t0):
        with pytest.raises(ValidationError, match="finite"):
            LearningRateSchedule.inverse_t(c, t0)

    def test_per_row_count_rates(self):
        sched = LearningRateSchedule.per_row_count()
        mass = np.array([0.0, 1.0, 3.0])
        np.testing.assert_allclose(sched.row_rates(5, mass), [1.0, 0.5, 0.25])


class TestOnlineEmStep:
    def test_eta_one_observed_root_becomes_indicator(self):
        net = binary_root()
        state = init_online_state(net)
        case = DataCase(np.array([0]))
        out = online_em_step(state, case, LearningRateSchedule.fixed(1.0))
        np.testing.assert_allclose(out.theta.tables[0], [[1.0 - 1e-9, 1e-9]], atol=1e-12)
        assert out.t == 1
        np.testing.assert_allclose(out.visit_mass[0], [1.0])

    def test_tiny_eta_near_identity(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, 5)
        state = init_online_state(net)
        case = DataCase(np.full(5, MISSING))
        out = online_em_step(state, case, LearningRateSchedule.fixed(1e-13))
        for a, b in zip(out.theta.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_observed_row_moves_toward_indicator(self):
        net = chain3()
        state = init_online_state(net)
        case = DataCase(np.array([0, 0, 1]))
        out = online_em_step(state, case, LearningRateSchedule.fixed(0.3))
        # B row for M=s0 should have moved toward state s1
        assert out.theta.tables[2][0, 1] > net.theta.tables[2][0, 1]

    def test_equivalence_with_batch_step_on_singleton(self):
        """A fixed-rate online step equals the batch rule on a singleton
        dataset whose row-mass estimate is replaced by the model's
        parent-configuration marginal."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            net = random_network(rng, 6)
            case_states = np.array(
                [rng.integers(net.structure.arity(i)) if rng.random() < 0.6 else MISSING
                 for i in range(6)]
            )
            case = DataCase(case_states)
            posts = family_posteriors(net, case)
            marginals = parent_config_marginals(net)
            stats = SufficientStats(tuple(posts), tuple(marginals))
            batch = em_eta_step(net.theta, stats, 0.7)
            online = online_em_step(
                init_online_state(net), case, LearningRateSchedule.fixed(0.7)
            )
            for a, b in zip(online.theta.tables, batch.tables):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_visit_mass_accumulates_conditioned_mass(self):
        net = chain3()
        state = init_online_state(net)
        case = DataCase(np.array([0, MISSING, 1]))
        posts = family_posteriors(net, case)
        out = online_em_step(state, case, LearningRateSchedule.fixed(0.5))
        np.testing.assert_allclose(out.visit_mass[2], posts[2].sum(axis=1), atol=1e-12)


class TestPriorMassFold:
    """Under the fixed and inverse_t schedules the EM and EG steps take
    P(Pa_i = j) from an all-missing row that joins the case's own
    inference pass, not from a second inference."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 7),
        p_observed=st.sampled_from([0.0, 0.4, 1.0]),
    )
    def test_folded_mass_equals_parent_config_marginals(self, seed, n_vars, p_observed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars)
        case = random_partial_case(rng, net.structure, p_observed)
        posts, visits, mass, case_ll = _case_posteriors(
            init_online_state(net), case, prior_mass=True
        )
        prior = parent_config_marginals(net)
        solo = family_posteriors(net, case)
        assert case_ll == pytest.approx(log_marginal_likelihood(net, case), rel=1e-12, abs=1e-12)
        for i in range(n_vars):
            np.testing.assert_allclose(mass[i], prior[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(posts[i], solo[i], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(visits[i], posts[i].sum(axis=1))

    @pytest.mark.parametrize(
        "schedule", [LearningRateSchedule.fixed(0.7), LearningRateSchedule.inverse_t(2.0, 1.0)]
    )
    @pytest.mark.parametrize("step, rows", [(online_em_step, _em_rows), (online_eg_step, _eg_rows)])
    def test_step_divides_by_prior_mass(self, schedule, step, rows):
        rng = np.random.default_rng(13)
        net = random_network(rng, 6)
        state = init_online_state(net)
        for _ in range(3):
            state = step(state, random_partial_case(rng, net.structure, 0.5), schedule)
        case = random_partial_case(rng, net.structure, 0.5)
        posts = family_posteriors(state.network, case)
        prior = parent_config_marginals(state.network)
        out = step(state, case, schedule)
        for i, t in enumerate(state.theta.tables):
            want = rows(t, posts[i], prior[i], schedule.row_rates(state.t, state.visit_mass[i]))
            np.testing.assert_allclose(out.theta.tables[i], want, rtol=0, atol=1e-12)


class TestOnlineEgStep:
    def test_tiny_eta_near_identity(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, 5)
        state = init_online_state(net)
        case = DataCase(np.full(5, MISSING))
        out = online_eg_step(state, case, LearningRateSchedule.fixed(1e-13))
        for a, b in zip(out.theta.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_constant_ratio_row_unchanged(self):
        net = binary_root(0.3)
        state = init_online_state(net)
        case = DataCase(np.array([MISSING]))  # posterior equals the prior row
        out = online_eg_step(state, case, LearningRateSchedule.fixed(0.9))
        np.testing.assert_allclose(out.theta.tables[0], net.theta.tables[0], atol=1e-12)

    def test_observed_root_weights(self):
        net = binary_root()
        state = init_online_state(net)
        case = DataCase(np.array([0]))
        out = online_eg_step(state, case, LearningRateSchedule.fixed(0.1))
        w = np.array([0.5 * math.exp(0.2), 0.5])
        np.testing.assert_allclose(out.theta.tables[0][0], w / w.sum(), atol=1e-12)


class TestOnlineGpStep:
    def test_constant_gradient_row_unchanged(self):
        net = binary_root(0.5)
        state = init_online_state(net)
        case = DataCase(np.array([MISSING]))  # gradient (1, 1): projection kills it
        out = online_gp_step(state, case, LearningRateSchedule.fixed(0.4))
        np.testing.assert_allclose(out.theta.tables[0], net.theta.tables[0], atol=1e-12)

    def test_tiny_eta_near_identity(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 5)
        state = init_online_state(net)
        case = DataCase(np.full(5, MISSING))
        out = online_gp_step(state, case, LearningRateSchedule.fixed(1e-13))
        for a, b in zip(out.theta.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_projected_step_on_observed_root(self):
        net = binary_root()
        state = init_online_state(net)
        case = DataCase(np.array([0]))
        out = online_gp_step(state, case, LearningRateSchedule.fixed(0.1))
        np.testing.assert_allclose(out.theta.tables[0], [[0.6, 0.4]], atol=1e-12)


class TestArityGroupedSteps:
    """An online step updates the rows of all tables of one arity in one
    kernel call; over a stream that gives the per-table loop's states bit
    for bit, frozen rows included."""

    @pytest.mark.parametrize(
        "schedule",
        [LearningRateSchedule.fixed(0.7), LearningRateSchedule.inverse_t(2.0, 1.0),
         LearningRateSchedule.per_row_count()],
        ids=["fixed", "inverse_t", "per_row_count"],
    )
    @pytest.mark.parametrize("rule", ["em", "eg", "gp"])
    def test_stream_equals_per_table_loop(self, rule, schedule):
        net = tree8()
        data = obscure(forward_sample(net, 30, seed=31), MissingnessSpec(("T1",), 0.3, seed=32))
        state = init_online_state(net.with_theta(random_init(net.structure, 33)))
        step = {"em": online_em_step, "eg": online_eg_step, "gp": online_gp_step}[rule]
        prior = rule != "gp" and not schedule.conditioned_mass
        for case in data.cases():
            posts, _, mass, _ = _case_posteriors(state, case, prior)
            want = []
            for i, t in enumerate(state.theta.tables):
                rates = schedule.row_rates(state.t, state.visit_mass[i])
                if rule == "em":
                    floor = RUNNING_AVG_FLOOR if schedule.conditioned_mass else PROB_FLOOR
                    want.append(_em_rows(t, posts[i], mass[i], rates, floor=floor))
                elif rule == "eg":
                    want.append(_eg_rows(t, posts[i], mass[i], rates))
                else:
                    with np.errstate(invalid="ignore", divide="ignore"):
                        grad = np.where(posts[i] > 0.0, posts[i] / np.maximum(t, 1e-300), 0.0)
                    step_dir = grad - grad.mean(axis=1, keepdims=True)
                    want.append(clamp_rows(t + rates[:, None] * step_dir))
            state = step(state, case, schedule)
            for a, b in zip(state.theta.tables, want):
                np.testing.assert_array_equal(a, b)


class TestSimplexPreservation:
    def test_all_rules_random_cases(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 6)
        data = forward_sample(net, 30, seed=5)
        for rule_step in (online_em_step, online_eg_step, online_gp_step):
            state = init_online_state(net)
            for l in range(len(data)):
                state = rule_step(state, data.case(l), LearningRateSchedule.fixed(1.3))
            for t in state.theta.tables:
                np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
                assert t.min() >= 1e-10


class TestRunStream:
    def test_empty_stream(self):
        net = chain3()
        result = run_stream(net, [], "em", LearningRateSchedule.fixed(0.5))
        assert result.trace == ()
        assert result.state.theta == net.theta

    def test_running_average_identity(self):
        """per_row_count on a complete stream reproduces the batch
        empirical conditional frequencies for every visited row."""
        net = tree8()
        data = forward_sample(net, 400, seed=6)
        theta0 = random_init(net.structure, 7)
        start = net.with_theta(theta0)
        result = run_stream(start, data, "em", LearningRateSchedule.per_row_count())
        counts = oracle_complete_counts(net, data.values)
        for i in range(net.structure.n_vars):
            joint = counts[i]
            mass = joint.sum(axis=1)
            got = result.state.theta.tables[i]
            for j in range(joint.shape[0]):
                if mass[j] > 0:
                    np.testing.assert_allclose(got[j], joint[j] / mass[j], atol=1e-12)
                else:
                    np.testing.assert_allclose(got[j], theta0.tables[i][j], atol=1e-15)

    def test_single_pass_matches_batch_em1_fixpoint(self):
        net = chain3()
        data = forward_sample(net, 250, seed=8)
        theta0 = random_init(net.structure, 9)
        start = net.with_theta(theta0)
        online = run_stream(start, data, "em", LearningRateSchedule.per_row_count())
        batch = fit(start, data, FitConfig("em", 1.0, 5, tol_ll=1e-13, init="network"))
        for a, b in zip(online.state.theta.tables, batch.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_zero_probability_case_skipped_and_counted(self):
        v = Variable(0, "X", ("s0", "s1"))
        s = NetworkStructure((v,), ((),))
        net = Network(s, ParameterVector([np.array([[1.0, 0.0]])]))
        cases = [DataCase(np.array([1])), DataCase(np.array([0]))]
        result = run_stream(net, cases, "em", LearningRateSchedule.fixed(0.5))
        assert result.n_skipped == 1
        assert result.trace[0].skipped and result.trace[0].case_ll is None
        assert not result.trace[1].skipped
        assert result.state.t == 2

    @pytest.mark.parametrize(
        "schedule",
        [
            LearningRateSchedule.fixed(0.5),
            LearningRateSchedule.inverse_t(1.0),
            LearningRateSchedule.per_row_count(),
        ],
    )
    @pytest.mark.parametrize("rule", ["em", "eg", "gp"])
    def test_zero_probability_case_names_case_zero(self, rule, schedule):
        """The appended all-missing row never takes the blame: the error
        names the case itself, and run_stream skips it."""
        net = binary_root(1.0)
        impossible = DataCase(np.array([1]))
        step = {"em": online_em_step, "eg": online_eg_step, "gp": online_gp_step}[rule]
        with pytest.raises(ZeroProbabilityError) as info:
            step(init_online_state(net), impossible, schedule)
        assert info.value.case_index == 0
        result = run_stream(net, [impossible, DataCase(np.array([0]))], rule, schedule)
        assert result.n_skipped == 1
        assert result.trace[0].skipped and not result.trace[1].skipped

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 7),
        n_cases=st.integers(1, 80),
    )
    def test_running_average_identity_shuffled(self, seed, n_vars, n_cases):
        """Any order of a complete stream gives the batch conditional
        frequencies under per_row_count; unvisited rows keep their start."""
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars)
        values = forward_sample(net, n_cases, seed=int(rng.integers(2**31))).values
        theta0 = random_init(net.structure, int(rng.integers(2**31)))
        counts = oracle_complete_counts(net, values)
        for _ in range(2):
            stream = [DataCase(row) for row in values[rng.permutation(n_cases)]]
            result = run_stream(net.with_theta(theta0), stream, "em", LearningRateSchedule.per_row_count())
            assert result.n_skipped == 0
            for i in range(n_vars):
                mass = counts[i].sum(axis=1)
                got = result.state.theta.tables[i]
                for j in range(counts[i].shape[0]):
                    if mass[j] > 0:
                        np.testing.assert_allclose(got[j], counts[i][j] / mass[j], rtol=0, atol=1e-12)
                    else:
                        np.testing.assert_allclose(got[j], theta0.tables[i][j], rtol=0, atol=1e-15)

    def test_deterministic_start_stays_finite_all_rules(self):
        """Hard zeros in the starting model must not poison the updates;
        the cells are unreachable, so their gradient contribution is 0."""
        net = chain3().with_theta(
            ParameterVector(
                [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]]),
                 np.array([[0.5, 0.5], [0.5, 0.5]])]
            )
        )
        case = DataCase(np.array([0, MISSING, 1]))
        for rule in ("em", "eg", "gp"):
            result = run_stream(net, [case], rule, LearningRateSchedule.fixed(0.3))
            assert result.n_skipped == 0
            for t in result.state.theta.tables:
                assert np.all(np.isfinite(t))

    def test_trace_records_prestep_loglik(self):
        net = chain3()
        data = forward_sample(net, 5, seed=10)
        result = run_stream(net, data, "em", LearningRateSchedule.fixed(0.2))
        assert len(result.trace) == 5
        assert result.trace[0].t == 0
        assert all(r.case_ll is not None and r.case_ll <= 0 for r in result.trace)
        assert all(r.step_l2 >= 0 for r in result.trace)

    def test_stationary_stream_improves_fit(self):
        """Trailing-window mean case log-likelihood improves between the
        first and last quartile of a seeded stationary stream."""
        net = chain3()
        data = forward_sample(net, 2000, seed=11)
        theta0 = random_init(net.structure, 12)
        result = run_stream(
            net.with_theta(theta0), data, "em", LearningRateSchedule.fixed(0.05)
        )
        lls = np.array([r.case_ll for r in result.trace])
        q = len(lls) // 4
        assert lls[-q:].mean() > lls[:q].mean()

    def test_unknown_rule_rejected(self):
        net = chain3()
        with pytest.raises(ValidationError):
            run_stream(net, [], "sgd", LearningRateSchedule.fixed(0.5))

    @pytest.mark.parametrize(
        "case",
        [DataCase([5, 0, 0]), DataCase([0, 0]), DataCase([0, 0, 0, 1]), DataCase([-3, 0, 0]),
         [0, 1, 0]],
        ids=["state-out-of-range", "too-short", "extra-column", "negative-state", "plain-list"],
    )
    def test_case_that_does_not_fit_rejected(self, case):
        net = chain3()
        cases = [DataCase([0, 1, 0]), DataCase([1, 0, 1]), case]
        with pytest.raises(ValidationError, match="stream case 2 "):
            run_stream(net, cases, "em", LearningRateSchedule.fixed(0.5))


class TestOneUpdatePath:
    """Batch and online updates both reach the rule's estimation step."""

    STEPS = {"em": "em_eta_step", "eg": "eg_eta_step", "gp": "gp_step"}

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {rule: 0 for rule in self.STEPS}

        def counted(rule, fn):
            def wrapper(*args, **kwargs):
                calls[rule] += 1
                return fn(*args, **kwargs)

            return wrapper

        for rule, name in self.STEPS.items():
            monkeypatch.setattr(estimation, name, counted(rule, getattr(estimation, name)))
        return calls

    @pytest.mark.parametrize("rule", ["em", "eg", "gp"])
    def test_fit(self, calls, rule):
        net = tree8()
        data = forward_sample(net, 40, 1)
        fit(net, data, FitConfig(rule, 0.5, max_iters=2, tol_ll=None, tol_param=0.0, init="uniform"))
        assert calls == {r: 2 if r == rule else 0 for r in self.STEPS}

    @pytest.mark.parametrize(
        "schedule",
        [LearningRateSchedule.fixed(0.3), LearningRateSchedule.inverse_t(2.0, 5.0),
         LearningRateSchedule.per_row_count()],
        ids=["fixed", "inverse_t", "per_row_count"],
    )
    @pytest.mark.parametrize("rule, step", [("em", online_em_step), ("eg", online_eg_step),
                                            ("gp", online_gp_step)])
    def test_online_step(self, calls, rule, step, schedule):
        net = tree8()
        step(init_online_state(net), forward_sample(net, 1, 2).case(0), schedule)
        assert calls == {r: 1 if r == rule else 0 for r in self.STEPS}

    def test_phi_apply(self, calls):
        net = tree8()
        data = forward_sample(net, 40, 1)
        for clamp in (True, False):
            phi_apply(net, data, 0.5, clamp)
        assert calls == {"em": 2, "eg": 0, "gp": 0}
