"""Exact inference against enumeration oracles and algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit.inference import (
    _min_degree_order,
    batch_family_posteriors,
    batch_posterior_marginals,
    enumerate_case_probability,
    enumerate_family_posteriors,
    enumerate_joint,
    family_posteriors,
    joint_probability,
    log_likelihood_cases,
    log_marginal_likelihood,
    parent_config_marginals,
    posterior_marginal,
)
from bnfit.model import (
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
)
from bnfit.netio import MISSING, DataCase, case_from_dict
from bnfit.networks import chain3

from util import (
    oracle_case_probability,
    oracle_family_posteriors,
    oracle_marginal,
    random_network,
    random_partial_case,
    random_tables,
)


def single_root(p0: float) -> Network:
    v = Variable(0, "X", ("s0", "s1"))
    s = NetworkStructure((v,), ((),))
    return Network(s, ParameterVector([np.array([[p0, 1 - p0]])]))


def deterministic_chain() -> Network:
    """A -> B with one-hot rows: every consistent case has probability 1."""
    a = Variable(0, "A", ("s0", "s1"))
    b = Variable(1, "B", ("s0", "s1"))
    s = NetworkStructure((a, b), ((), (0,)))
    theta = ParameterVector([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])])
    return Network(s, theta)


class TestJointProbability:
    def test_single_root(self):
        net = single_root(0.3)
        case = DataCase(np.array([1]))
        assert joint_probability(net, case) == pytest.approx(0.7)

    def test_deterministic_chain_consistent_case(self):
        net = deterministic_chain()
        case = DataCase(np.array([0, 1]))
        assert joint_probability(net, case) == 1.0

    def test_three_node_matches_hand_product(self):
        net = chain3()
        case = case_from_dict(net.structure, {"A": "s1", "M": "s0", "B": "s1"})
        t = net.theta.tables
        expected = t[0][0, 1] * t[1][1, 0] * t[2][0, 1]
        assert joint_probability(net, case) == pytest.approx(expected, rel=1e-15)

    def test_incomplete_case_rejected(self):
        net = chain3()
        with pytest.raises(ValidationError):
            joint_probability(net, case_from_dict(net.structure, {"A": "s0"}))


class TestLogMarginalLikelihood:
    def test_fully_observed_is_sum_of_logs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = random_network(rng, 6)
            case = random_partial_case(rng, net.structure, p_observed=1.0)
            expected = np.log(joint_probability(net, case))
            assert log_marginal_likelihood(net, case) == pytest.approx(expected, abs=1e-12)

    def test_empty_case_is_zero(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, 7)
        case = DataCase(np.full(7, MISSING))
        assert log_marginal_likelihood(net, case) == pytest.approx(0.0, abs=1e-12)

    def test_partial_cases_match_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            net = random_network(rng, 10, arities=(2,))
            case = random_partial_case(rng, net.structure, p_observed=0.5)
            p_ve = np.exp(log_marginal_likelihood(net, case))
            p_enum = oracle_case_probability(net, case)
            assert p_ve == pytest.approx(p_enum, abs=1e-12)

    def test_zero_probability_evidence_raises(self):
        net = deterministic_chain()
        case = DataCase(np.array([0, 0]))  # impossible: A=s0 forces B=s1
        with pytest.raises(ZeroProbabilityError):
            log_marginal_likelihood(net, case)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 8)
        cases = [random_partial_case(rng, net.structure) for _ in range(40)]
        values = np.stack([c.states for c in cases])
        batched = log_likelihood_cases(net, values)
        singles = [log_marginal_likelihood(net, c) for c in cases]
        np.testing.assert_allclose(batched, singles, atol=1e-12)


class TestFamilyPosteriors:
    def test_fully_observed_indicator(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, 6)
        case = random_partial_case(rng, net.structure, p_observed=1.0)
        for i, post in enumerate(family_posteriors(net, case)):
            assert np.count_nonzero(post) == 1
            assert post.max() == pytest.approx(1.0, abs=1e-12)

    def test_empty_case_root_prior(self):
        net = chain3()
        case = DataCase(np.full(3, MISSING))
        post = family_posteriors(net, case)
        np.testing.assert_allclose(post[0], net.theta.tables[0], atol=1e-12)

    def test_hidden_middle_matches_enumeration(self):
        net = chain3()
        case = case_from_dict(net.structure, {"A": "s0", "B": "s1"})
        expected = oracle_family_posteriors(net, case)
        got = family_posteriors(net, case)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            net = random_network(rng, 9)
            case = random_partial_case(rng, net.structure)
            for post in family_posteriors(net, case):
                assert post.sum() == pytest.approx(1.0, abs=1e-9)
                assert post.min() >= 0.0 and post.max() <= 1.0 + 1e-12

    def test_marginal_consistency(self):
        """Row sums of the family posterior equal the parent-set posterior
        from an independent marginal query."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            net = random_network(rng, 8)
            s = net.structure
            case = random_partial_case(rng, s)
            posts = family_posteriors(net, case)
            for i in range(s.n_vars):
                if not s.parents[i]:
                    continue
                row_mass = posts[i].sum(axis=1)
                marg = posterior_marginal(net, case, list(s.parents[i])).reshape(-1)
                np.testing.assert_allclose(row_mass, marg, atol=1e-10)

    def test_agreement_with_variable_elimination(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            net = random_network(rng, 10, arities=(2,))
            case = random_partial_case(rng, net.structure)
            fast = family_posteriors(net, case)
            slow = enumerate_family_posteriors(net, case)
            for a, b in zip(fast, slow):
                np.testing.assert_allclose(a, b, atol=1e-12)


class TestEnumerationOracle:
    def test_fully_observed_indicator(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, 5)
        case = random_partial_case(rng, net.structure, p_observed=1.0)
        for post in enumerate_family_posteriors(net, case):
            assert np.count_nonzero(post) == 1

    def test_empty_case_independent_roots(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, 5, max_parents=0)
        case = DataCase(np.full(5, MISSING))
        for i, post in enumerate(enumerate_family_posteriors(net, case)):
            np.testing.assert_allclose(post, net.theta.tables[i], atol=1e-12)

    def test_state_space_cap(self):
        rng = np.random.default_rng(10)
        net = random_network(rng, 21, max_parents=0, arities=(2,))
        case = DataCase(np.full(21, MISSING))
        with pytest.raises(ValidationError, match="too large"):
            enumerate_case_probability(net, case)

    def test_joint_table_sums_to_one(self):
        rng = np.random.default_rng(11)
        net = random_network(rng, 8)
        joint = enumerate_joint(net)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)


class TestParentMarginals:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        net = random_network(rng, 7)
        joint = enumerate_joint(net).reshape(
            tuple(net.structure.arity(i) for i in range(7))
        )
        margs = parent_config_marginals(net)
        for i in range(7):
            plist = net.structure.parents[i]
            if not plist:
                np.testing.assert_allclose(margs[i], [1.0], atol=1e-12)
                continue
            axes = tuple(k for k in range(7) if k not in plist)
            expected = joint.sum(axis=axes)
            order = np.argsort(np.argsort(plist))  # plist is sorted already
            np.testing.assert_allclose(margs[i], expected.reshape(-1), atol=1e-12)

    def test_underflow_far_below_float_min(self):
        """A long chain of rare transitions: probability ~1e-320 is still
        finite in log space."""
        n = 160
        variables = tuple(Variable(i, f"X{i}", ("s0", "s1")) for i in range(n))
        parents = ((),) + tuple((i - 1,) for i in range(1, n))
        s = NetworkStructure(variables, parents)
        tables = [np.array([[0.01, 0.99]])]
        for _ in range(1, n):
            tables.append(np.array([[0.01, 0.99], [0.99, 0.01]]))
        net = Network(s, ParameterVector(tables))
        case = DataCase(np.zeros(n, dtype=np.int64))  # all s0: each step prob 0.01
        ll = log_marginal_likelihood(net, case)
        expected = n * np.log(0.01)
        assert np.isfinite(ll)
        assert ll == pytest.approx(expected, rel=1e-12)


def binary_chain(n: int, rng: np.random.Generator) -> Network:
    variables = tuple(Variable(i, f"X{i}", ("s0", "s1")) for i in range(n))
    parents = ((),) + tuple((i - 1,) for i in range(1, n))
    s = NetworkStructure(variables, parents)
    return Network(s, random_tables(rng, s))


class TestForwardBackwardSweep:
    """batch_family_posteriors' single elimination and reverse sweep
    against the enumeration oracle and closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        observed=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=6),
    )
    def test_random_dags_match_enumeration(self, seed, n_vars, observed):
        """Fully observed, partly observed and empty cases share one batch."""
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars)
        cases = [random_partial_case(rng, net.structure, p) for p in observed]
        posts, lls = batch_family_posteriors(net, np.stack([c.states for c in cases]))
        assert lls.shape == (len(cases),)
        for c, case in enumerate(cases):
            want = enumerate_family_posteriors(net, case)
            for i in range(n_vars):
                np.testing.assert_allclose(posts[i][c], want[i], rtol=0, atol=1e-10)
            assert lls[c] == pytest.approx(np.log(enumerate_case_probability(net, case)), abs=1e-10)

    def test_mixed_batch_rescales_only_the_small_cases(self):
        """In one batch an underflowing fully observed case, a partly
        observed case and an empty case each match their own solo run."""
        n = 1000
        rng = np.random.default_rng(21)
        net = binary_chain(n, rng)
        full = rng.integers(0, 2, size=n)
        partial = full.copy()
        partial[rng.random(n) < 0.5] = MISSING
        values = np.stack([full, partial, np.full(n, MISSING)])
        posts, lls = batch_family_posteriors(net, values)
        expected_full = sum(
            np.log(net.theta.tables[i][full[i - 1] if i else 0, full[i]]) for i in range(n)
        )
        assert expected_full < np.log(np.finfo(float).tiny)
        assert lls[0] == pytest.approx(expected_full, rel=1e-12)
        assert lls[2] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(log_likelihood_cases(net, values), lls, rtol=1e-12)
        for c in range(3):
            solo_posts, solo_ll = batch_family_posteriors(net, values[c : c + 1])
            assert lls[c] == pytest.approx(solo_ll[0], rel=1e-12, abs=1e-12)
            for i in range(n):
                np.testing.assert_allclose(posts[i][c], solo_posts[i][0], rtol=0, atol=1e-12)
        prior = parent_config_marginals(net)
        for i in range(n):
            np.testing.assert_allclose(
                posts[i][2], prior[i][:, None] * net.theta.tables[i], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("hidden", [0, 1, 1000, 1998, 1999])
    def test_long_chain_below_float_underflow(self, hidden):
        """About 2000 observed binary links and one hidden variable: P(e)
        underflows a float, the posteriors stay exact."""
        n = 2000
        rng = np.random.default_rng(hidden)
        net = binary_chain(n, rng)
        t = net.theta.tables
        states = rng.integers(0, 2, size=n)
        states[hidden] = MISSING
        posts, lls = batch_family_posteriors(net, states[None, :])
        assert np.isfinite(lls[0]) and lls[0] < np.log(np.finfo(float).tiny)
        for post in posts:
            assert np.all(np.isfinite(post))
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
        # P(X_k | Markov blanket) ∝ θ_k[x_{k-1}, ·] · θ_{k+1}[·, x_{k+1}]
        row = states[hidden - 1] if hidden else 0
        marginal = t[hidden][row].copy()
        if hidden + 1 < n:
            marginal *= t[hidden + 1][:, states[hidden + 1]]
        marginal /= marginal.sum()
        expected = np.zeros(t[hidden].shape)
        expected[row] = marginal
        np.testing.assert_allclose(posts[hidden][0], expected, rtol=0, atol=1e-12)
        if hidden + 1 < n:
            child = np.zeros((2, 2))
            child[:, states[hidden + 1]] = marginal
            np.testing.assert_allclose(posts[hidden + 1][0], child, rtol=0, atol=1e-12)


def reference_min_degree_order(scopes, elim):
    """Min-degree order by a full scan of the remaining variables per step."""
    nbrs = {}
    for sc in scopes:
        for a in sc:
            nbrs.setdefault(a, set())
        for a in sc:
            for b in sc:
                if a != b:
                    nbrs[a].add(b)
    remaining = set(elim) & set(nbrs)
    order = []
    while remaining:
        v = min(remaining, key=lambda x: (len(nbrs[x]), x))
        order.append(v)
        vs = nbrs.pop(v)
        for a in vs:
            nbrs[a].discard(v)
        for a in vs:
            for b in vs:
                if a != b:
                    nbrs[a].add(b)
        remaining.discard(v)
    return tuple(order)


class TestMinDegreeOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        scopes=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True).map(
                lambda vs: tuple(sorted(vs))
            ),
            max_size=14,
        ),
        elim=st.frozensets(st.integers(0, 13)),
    )
    def test_heap_order_equals_full_scan(self, scopes, elim):
        scopes = tuple(scopes)
        assert _min_degree_order(scopes, elim) == reference_min_degree_order(scopes, elim)

    def test_long_chain(self):
        n = 2000
        scopes = ((0,),) + tuple((i - 1, i) for i in range(1, n))
        elim = frozenset(range(0, n, 2))
        assert _min_degree_order(scopes, elim) == reference_min_degree_order(scopes, elim)


class TestBatchPosteriorMarginals:
    """batch_posterior_marginals' one elimination per batch against the
    enumeration oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(2, 7),
        n_query=st.integers(1, 2),
        observed=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=6),
    )
    def test_random_dags_match_enumeration(self, seed, n_vars, n_query, observed):
        """Fully observed, partly observed and empty cases share one batch."""
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars)
        var_ids = [int(v) for v in rng.choice(n_vars, size=n_query, replace=False)]
        cases = [random_partial_case(rng, net.structure, p) for p in observed]
        got = batch_posterior_marginals(net, np.stack([c.states for c in cases]), var_ids)
        assert got.shape == (len(cases),) + tuple(net.structure.arity(v) for v in var_ids)
        for c, case in enumerate(cases):
            want = oracle_marginal(net, case, var_ids)
            np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                posterior_marginal(net, case, var_ids), want, rtol=0, atol=1e-10
            )

    def test_empty_batch_of_cases(self):
        net = chain3()
        values = np.full((4, 3), MISSING)
        got = batch_posterior_marginals(net, values, [2, 0])
        want = oracle_marginal(net, DataCase(values[0]), [2, 0])
        for c in range(4):
            np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-12)

    def test_zero_probability_names_batch_row(self):
        net = deterministic_chain()
        values = np.array([[0, MISSING], [MISSING, 1], [1, MISSING], [MISSING, 1]])
        with pytest.raises(ZeroProbabilityError) as info:
            batch_posterior_marginals(net, values, [1])
        assert info.value.case_index == 2
        with pytest.raises(ZeroProbabilityError) as info:
            posterior_marginal(net, DataCase(values[2]), [1])
        assert info.value.case_index == 0

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValidationError):
            batch_posterior_marginals(chain3(), np.full((2, 3), MISSING), [1, 1])


class TestBatchInvariance:
    """Row c of a batched result equals a solo run of row c: the case axis
    of every factor is innermost, and a factor whose variable is never
    observed in the batch keeps case length 1 and broadcasts."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(2, 8),
        observed=st.lists(st.sampled_from([0.0, 0.3, 0.7, 1.0]), min_size=1, max_size=6),
        n_unobserved=st.integers(0, 3),
    )
    def test_row_matches_solo_run(self, seed, n_vars, observed, n_unobserved):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars)
        s = net.structure
        values = np.stack([random_partial_case(rng, s, p).states for p in observed])
        values[:, rng.choice(n_vars, size=min(n_unobserved, n_vars), replace=False)] = MISSING
        var_ids = [int(v) for v in rng.choice(n_vars, size=2, replace=False)]
        n = len(observed)

        posts, lls = batch_family_posteriors(net, values)
        ll_only = log_likelihood_cases(net, values)
        margs = batch_posterior_marginals(net, values, var_ids)
        assert lls.shape == ll_only.shape == (n,)
        assert margs.shape == (n,) + tuple(s.arity(v) for v in var_ids)
        for i in range(n_vars):
            assert posts[i].shape == (n,) + s.table_shape(i)

        for c in range(n):
            solo = values[c : c + 1]
            solo_posts, solo_lls = batch_family_posteriors(net, solo)
            assert lls[c] == pytest.approx(solo_lls[0], rel=1e-12, abs=1e-12)
            assert ll_only[c] == pytest.approx(log_likelihood_cases(net, solo)[0], rel=1e-12, abs=1e-12)
            for i in range(n_vars):
                assert solo_posts[i].shape == (1,) + s.table_shape(i)
                np.testing.assert_allclose(posts[i][c], solo_posts[i][0], rtol=0, atol=1e-12)
            solo_margs = batch_posterior_marginals(net, solo, var_ids)
            assert solo_margs.shape == (1,) + margs.shape[1:]
            np.testing.assert_allclose(margs[c], solo_margs[0], rtol=0, atol=1e-12)

    def test_unobserved_batch_broadcasts_to_every_row(self):
        """With no evidence at all every factor has case length 1; results
        still have one row per case."""
        rng = np.random.default_rng(5)
        net = random_network(rng, 6)
        values = np.full((3, 6), MISSING)
        posts, lls = batch_family_posteriors(net, values)
        np.testing.assert_allclose(lls, np.zeros(3), atol=1e-12)
        prior = parent_config_marginals(net)
        for i in range(6):
            assert posts[i].shape == (3,) + net.structure.table_shape(i)
            for c in range(3):
                np.testing.assert_allclose(posts[i][c].sum(axis=1), prior[i], rtol=0, atol=1e-12)
        assert log_likelihood_cases(net, values).shape == (3,)
        assert batch_posterior_marginals(net, values, [4]).shape == (3, net.structure.arity(4))
