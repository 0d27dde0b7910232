"""Exact inference against enumeration oracles and algebraic identities."""

import math
import platform

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnfit import inference
from bnfit.estimation import FitConfig, fit
from bnfit.harness import MissingnessSpec, forward_sample, obscure, query_error
from bnfit.inference import (
    _min_degree_order,
    _plan_of,
    _safe_total,
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
    probe_case_sums,
)
from bnfit.model import (
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
)
from bnfit.netio import MISSING, DataCase, DataSet
from bnfit.networks import chain3, twolayer15
from bnfit.online import LearningRateSchedule, run_stream

import util
from util import (
    case_from_dict,
    oracle_case_probability,
    oracle_family_posteriors,
    oracle_marginal,
    probe,
    random_network,
    random_partial_case,
    random_structure,
    random_tables,
    reference_family_posteriors,
    reference_log_likelihood_cases,
    reference_posterior_marginals,
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


@pytest.mark.parametrize("call", [
    log_marginal_likelihood,
    family_posteriors,
    lambda net, case: posterior_marginal(net, case, [0]),
    joint_probability,
    enumerate_case_probability,
    enumerate_family_posteriors,
    lambda net, case: query_error(net, net, case, "A"),
], ids=["log_marginal_likelihood", "family_posteriors", "posterior_marginal", "joint_probability",
        "enumerate_case_probability", "enumerate_family_posteriors", "query_error"])
@pytest.mark.parametrize("states, message", [
    # unchecked: IndexError
    ([MISSING, 0], "does not have one entry per variable"),
    # unchecked: read as [MISSING, 0, 0], log P = -0.669
    ([MISSING, 0, 0, 0], "does not have one entry per variable"),
    # unchecked: ZeroProbabilityError, or IndexError in the oracle
    ([MISSING, 5, 0], "has out-of-range states for variable 'M'"),
    # unchecked: read as missing
    ([MISSING, -2, 0], "has out-of-range states for variable 'M'"),
], ids=["short", "long", "state-5", "state-minus-2"])
def test_single_case_entry_points_check_the_case(call, states, message):
    """A single-case call refuses a case that is not one of the network's
    structure with a ValidationError, before any arithmetic."""
    with pytest.raises(ValidationError, match=f"^the case {message}"):
        call(chain3(), DataCase(np.array(states)))


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

    @pytest.mark.parametrize("bad", [3, -1, 1.0, True])
    def test_variable_ids_outside_the_network_rejected(self, bad):
        """An id must be an integer in [0, n_vars): the error names it."""
        net = chain3()
        match = rf"query variable must be an integer( in \[0, 2\])?, got {bad!r}$"
        with pytest.raises(ValidationError, match=match):
            batch_posterior_marginals(net, np.full((2, 3), MISSING), [0, bad])
        with pytest.raises(ValidationError, match=match):
            posterior_marginal(net, DataCase(np.full(3, MISSING)), [bad])


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


def batch_with_fixed_columns(rng: np.random.Generator, s: NetworkStructure, n_cases: int | None = None) -> np.ndarray:
    """Two or more partially observed rows, with a random nonempty set of
    columns observed in every row: a batch the plan conditions on."""
    n = int(rng.integers(2, 7)) if n_cases is None else n_cases
    values = np.stack([random_partial_case(rng, s, float(rng.random())).states for _ in range(n)])
    for v in rng.choice(s.n_vars, size=int(rng.integers(1, s.n_vars + 1)), replace=False):
        values[:, v] = rng.integers(s.arity(int(v)), size=n)
    return values


def assert_replay_equals_reference(net: Network, values: np.ndarray, var_ids: list[int]) -> None:
    """The compiled plan's replay against the per-call elimination it
    replaced.  The forward sweep does the same multiplications, so
    log-likelihoods and marginals are equal arrays, not merely close
    ones.  The reference gives each CPT factor its own adjoint and
    normalizes per case; the replay sums its bucket's one product J and,
    unchecked, reads posteriors off the last step's 1 / m adjoints: the
    same values in another order, within 1e-13, float64 rounding over a
    few dozen operations per entry."""
    posts, lls = batch_family_posteriors(net, values)
    ref_posts, ref_lls = reference_family_posteriors(net, values)
    np.testing.assert_array_equal(lls, ref_lls)
    for got, want in zip(posts, ref_posts):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(
        log_likelihood_cases(net, values), reference_log_likelihood_cases(net, values)
    )
    got = batch_posterior_marginals(net, values, var_ids)
    want = reference_posterior_marginals(net, values, var_ids)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestPlanReplay:
    """Replaying a plan compiled once per structure and eliminated set
    does the same multiplications, in the same order, as eliminating
    from scratch on every call."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        batch=st.sampled_from(["one", "one_and_missing", "never_observed", "fixed_columns"]),
        n_query=st.integers(1, 3),
    )
    def test_random_dags(self, seed, n_vars, batch, n_query):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars, arities=(2, 3, 4))
        s = net.structure
        if batch == "fixed_columns":
            values = batch_with_fixed_columns(rng, s)
        elif batch == "never_observed":
            # many cases, and variables no case observes: factors of case length 1
            values = np.stack([random_partial_case(rng, s, 0.7).states for _ in range(25)])
            values[:, rng.choice(n_vars, size=max(1, n_vars // 2), replace=False)] = MISSING
        else:
            values = random_partial_case(rng, s, 0.6).states[None, :]
            if batch == "one_and_missing":
                values = np.vstack([values, np.full_like(values, MISSING)])
        var_ids = [int(v) for v in rng.choice(n_vars, size=min(n_query, n_vars), replace=False)]
        assert_replay_equals_reference(net, values, var_ids)

    def test_underflowing_long_chain(self):
        """1000 links of rare transitions: the all-s0 case sinks far below
        float range and is rescaled at many buckets, beside a likely case
        and an all-missing row."""
        n = 1000
        variables = tuple(Variable(i, f"X{i}", ("s0", "s1")) for i in range(n))
        s = NetworkStructure(variables, ((),) + tuple((i - 1,) for i in range(1, n)))
        tables = [np.array([[0.01, 0.99]])] + [np.array([[0.01, 0.99], [0.99, 0.01]])] * (n - 1)
        net = Network(s, ParameterVector(tables))
        likely = np.tile([1, 0], n // 2)
        values = np.stack([np.zeros(n, dtype=np.int64), likely, np.full(n, MISSING)])
        values[1, ::7] = MISSING
        assert np.all(np.isfinite(log_likelihood_cases(net, values)))
        assert log_likelihood_cases(net, values)[0] < -4000.0
        assert_replay_equals_reference(net, values, [n // 2, 3])


def windowed_dag(rng: np.random.Generator, n: int = 50, window: int = 6) -> Network:
    """Arity 2 or 3, at most 3 parents among the previous `window`
    variables: many buckets of bounded width."""
    variables, parents = [], []
    for i in range(n):
        r = int(rng.choice((2, 3)))
        variables.append(Variable(i, f"X{i}", tuple(f"s{k}" for k in range(r))))
        pool = np.arange(max(0, i - window), i)
        k = int(rng.integers(0, min(3, pool.size) + 1))
        parents.append(tuple(sorted(int(p) for p in rng.choice(pool, size=k, replace=False))))
    s = NetworkStructure(tuple(variables), tuple(parents))
    return Network(s, random_tables(rng, s))


def rare_chain(n: int, p_rare: float) -> Network:
    """A binary chain whose all-s0 case has probability p_rare ** n."""
    variables = tuple(Variable(i, f"X{i}", ("s0", "s1")) for i in range(n))
    s = NetworkStructure(variables, ((),) + tuple((i - 1,) for i in range(1, n)))
    row = [p_rare, 1.0 - p_rare]
    tables = [np.array([row])] + [np.array([row, row[::-1]])] * (n - 1)
    return Network(s, ParameterVector(tables))


@pytest.fixture
def replays(monkeypatch):
    """The `checked` flag of every elimination replayed, in order."""
    seen = []
    eliminate = inference._eliminate

    def recording(plan, factors, keep=False, checked=True):
        seen.append(checked)
        return eliminate(plan, factors, keep, checked)

    monkeypatch.setattr(inference, "_eliminate", recording)
    return seen


class TestUncheckedReplay:
    """A replay without rescale checks stands in for the checked one only
    when the root proves no check would fire; the results are those of the
    per-call elimination with every check: its log-likelihoods and
    marginals bit for bit, its family posteriors within 1e-13
    (`assert_replay_equals_reference`)."""

    @pytest.mark.parametrize("which", ["twolayer15", "windowed_dag"])
    def test_likely_batches_run_no_check(self, monkeypatch, replays, which):
        rng = np.random.default_rng(11)
        net = twolayer15() if which == "twolayer15" else windowed_dag(rng)
        names = tuple(v.name for v in net.structure.variables)
        data = obscure(forward_sample(net, 200, seed=3), MissingnessSpec(names[::5], 0.3, seed=4))

        def no_check(*args):
            raise AssertionError("a rescale check ran")

        monkeypatch.setattr(inference, "_case_divisors", no_check)
        for values in (data.values, data.values[:1], data.values[:2]):
            log_likelihood_cases(net, values)
            batch_family_posteriors(net, values)
            batch_posterior_marginals(net, values, [3, 1])
        assert replays == [False] * 9
        assert_replay_equals_reference(net, data.values, [3, 1])

    def test_negative_entry_takes_the_checked_path(self, replays):
        """A probe past the row's last entry leaves it at -0.01: no bound,
        so one checked replay per call."""
        net = chain3()
        last = net.theta.tables[0][0, -1]
        probed = net.with_theta(probe(net.theta, 0, 0, 0, last + 0.01))
        assert probed.theta.tables[0].min() < 0.0
        assert _safe_total(_plan_of(net.structure, frozenset(range(3))), probed.theta.tables) == np.inf
        values = np.array([[MISSING, 0, 1], [MISSING, MISSING, 0], [MISSING, 1, MISSING]])
        assert_replay_equals_reference(probed, values, [0])
        assert replays == [True] * 3

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["dag", "chain"]),
        n_vars=st.integers(1, 8),
        n_links=st.integers(30, 70),
        p_rare=st.sampled_from([1e-3, 0.01, 0.1]),
        n_cases=st.integers(1, 4),
    )
    def test_either_side_of_the_bound(self, seed, shape, n_vars, n_links, p_rare, n_cases):
        """Random DAGs with near-deterministic rows, and chains whose
        all-s0 case, beside likely and all-missing cases, lies above the
        bound, between it and RESCALE_TRIGGER (no check fires, but the
        root cannot prove it) or below RESCALE_TRIGGER: at p_rare = 0.01,
        up to 43 links, 44 to 49, and from 50 on.  Above the bound, no
        check of the reference fires."""
        rng = np.random.default_rng(seed)
        if shape == "dag":
            s = random_structure(rng, n_vars)
            rows = [np.where(t < p_rare, t * p_rare, t) for t in random_tables(rng, s, 0.3, 0.0).tables]
            net = Network(s, ParameterVector([t / t.sum(axis=1, keepdims=True) for t in rows]))
            values = np.stack([random_partial_case(rng, s, 0.8).states for _ in range(n_cases)])
        else:
            net = rare_chain(n_links, p_rare)
            values = rng.integers(0, 2, size=(n_cases, n_links))
            values[rng.random(values.shape) < 0.2] = MISSING
            values[0] = 0
            if n_cases > 1:
                values[-1] = MISSING
        s = net.structure
        bound = _safe_total(_plan_of(s, frozenset(range(s.n_vars))), net.theta.tables)
        rescales = []
        check = util._case_divisors

        def recording(values, high=np.inf):
            div = check(values, high)
            rescales.append(div is not None)
            return div

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(util, "_case_divisors", recording)
            _, lls = reference_family_posteriors(net, values)
        if lls.min() > np.log(bound):
            assert not any(rescales)
        var_ids = [int(v) for v in rng.choice(s.n_vars, size=min(2, s.n_vars), replace=False)]
        assert_replay_equals_reference(net, values, var_ids)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        batch=st.sampled_from(["plain", "fixed_columns"]),
    )
    def test_per_case_posteriors_sum_to_one(self, seed, n_vars, batch):
        """The unchecked replay normalizes nothing: with the last step's
        1 / m adjoints, each family's J summed to its scope is read as its
        posteriors, so per case they sum to 1 within float64 rounding,
        1e-13.  A plain batch ends in an all-missing row, so that no
        column is fixed."""
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars, arities=(2, 3, 4))
        s = net.structure
        if batch == "fixed_columns":
            values = batch_with_fixed_columns(rng, s)
        else:
            rows = [random_partial_case(rng, s, float(rng.random())).states for _ in range(rng.integers(0, 5))]
            values = np.stack(rows + [np.full(n_vars, MISSING)])
        assert bool(_plan_of(s, frozenset(range(n_vars)), values).fixed) == (batch == "fixed_columns")
        seen = []
        eliminate = inference._eliminate

        def recording(plan, factors, keep=False, checked=True):
            seen.append(checked)
            return eliminate(plan, factors, keep, checked)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "_eliminate", recording)
            posts, _ = batch_family_posteriors(net, values)
        assert seen == [False]
        for i, post in enumerate(posts):
            assert post.shape == (values.shape[0],) + s.table_shape(i)
            np.testing.assert_allclose(post.sum(axis=(1, 2)), 1.0, rtol=0, atol=1e-13)

    def test_one_underflowing_case_sends_the_batch_to_the_checked_replay(self, replays):
        """The all-s0 case of a 300-link chain, P = 1e-600, beside likely
        cases: the unchecked replay's root fails the bound, and each entry
        point replays the whole batch again with checks."""
        n = 300
        net = rare_chain(n, 0.01)
        rng = np.random.default_rng(8)
        likely = np.tile([1, 0], n // 2)
        values = np.stack([likely, np.zeros(n, dtype=np.int64), likely, np.full(n, MISSING)])
        values[2, rng.random(n) < 0.5] = MISSING
        bound = _safe_total(_plan_of(net.structure, frozenset(range(n))), net.theta.tables)
        assert np.log(bound) > n * np.log(0.01)
        assert_replay_equals_reference(net, values, [n // 2, 7])
        assert replays == [False, True] * 3


class TestSummedPosteriors:
    """`summed=True` returns each family's sum over the cases of the
    per-case posteriors.  The unchecked replay reads it off each bucket's
    product, so it sums in another order: it must agree with the per-case
    sum to rtol 1e-12 and atol 1e-12 per case, float64 rounding over a few
    dozen operations per entry, and give the same log-likelihoods."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        batch=st.sampled_from(["partial", "single", "all_missing", "exact_zero", "checked", "fixed_columns"]),
        n_cases=st.integers(1, 6),
    )
    def test_equals_the_sum_of_the_per_case_posteriors(self, seed, n_vars, batch, n_cases):
        rng = np.random.default_rng(seed)
        if batch == "checked":
            # P = 1e-600 for the all-s0 case: the batch replays checked
            net = rare_chain(300, 0.01)
        else:
            net = random_network(rng, n_vars, arities=(2, 3, 4))
        s = net.structure
        if batch == "exact_zero":
            tables = [t.copy() for t in net.theta.tables]
            i = int(rng.integers(s.n_vars))
            j = int(rng.integers(tables[i].shape[0]))
            tables[i][j, int(rng.integers(tables[i].shape[1]))] = 0.0
            tables[i][j] /= tables[i][j].sum()
            net = net.with_theta(ParameterVector(tables))
        if batch == "single":
            n_cases = 1
        # forward-sampled cases are possible, whatever the zeros in the tables
        values = forward_sample(net, n_cases, seed=int(rng.integers(2**31))).values.copy()
        values[rng.random(values.shape) < rng.choice([0.0, 0.3, 0.7, 1.0])] = MISSING
        if batch == "all_missing":
            values[:] = MISSING
        if batch == "checked":
            values[0] = 0
        if batch == "fixed_columns":
            values = batch_with_fixed_columns(rng, s, max(n_cases, 2))

        posts, lls = batch_family_posteriors(net, values)
        sums, summed_lls = batch_family_posteriors(net, values, summed=True)
        np.testing.assert_array_equal(summed_lls, lls)
        for i, (got, post) in enumerate(zip(sums, posts)):
            assert got.shape == s.table_shape(i)
            np.testing.assert_allclose(got, post.sum(axis=0), rtol=1e-12, atol=1e-12 * n_cases)
        if batch == "checked":
            bound = _safe_total(_plan_of(s, frozenset(range(s.n_vars))), net.theta.tables)
            assert lls[0] < np.log(bound)


def weigh_by_probability(lls: np.ndarray) -> np.ndarray:
    """(2, P, N) weights: P(y_c) under probe p, and 1."""
    return np.stack([np.exp(lls), np.ones_like(lls)])


class TestConditionedBatches:
    """A batch of two or more rows conditions on the columns every row
    observes: factors keep only the entries at each case's values, fully
    fixed families become scalar factors of the last step, and outputs
    are scattered back.  Every output equals the row-by-row one, whose
    single-row batches are not conditioned, and the enumeration oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 7),
        probed_family=st.sampled_from(["folded", "any"]),
    )
    def test_equals_row_by_row_and_the_oracle(self, seed, n_vars, probed_family):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars, arities=(2, 3, 4))
        s = net.structure
        values = batch_with_fixed_columns(rng, s)
        n = values.shape[0]
        plan = _plan_of(s, frozenset(range(n_vars)), values)
        assert plan.fixed and all((values[:, v] >= 0).all() for v in plan.fixed)
        var_ids = [int(v) for v in rng.choice(n_vars, size=min(2, n_vars), replace=False)]

        posts, lls = batch_family_posteriors(net, values)
        sums, summed_lls = batch_family_posteriors(net, values, summed=True)
        ll_only = log_likelihood_cases(net, values)
        margs = batch_posterior_marginals(net, values, var_ids)
        for c in range(n):
            row, case = values[c : c + 1], DataCase(values[c])
            solo_posts, solo_lls = batch_family_posteriors(net, row)
            want_ll = np.log(oracle_case_probability(net, case))
            for got in (lls[c], summed_lls[c], ll_only[c]):
                assert got == pytest.approx(solo_lls[0], rel=0, abs=1e-12)
                assert got == pytest.approx(want_ll, rel=0, abs=1e-10)
            for got, solo, want in zip(posts, solo_posts, oracle_family_posteriors(net, case)):
                np.testing.assert_allclose(got[c], solo[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(got[c], want, rtol=0, atol=1e-10)
            np.testing.assert_allclose(margs[c], batch_posterior_marginals(net, row, var_ids)[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(margs[c], oracle_marginal(net, case, var_ids), rtol=0, atol=1e-10)
        for got, post in zip(sums, posts):
            np.testing.assert_allclose(got, post.sum(axis=0), rtol=0, atol=1e-12 * n)

        # three probed copies of one table, drawn afresh; "folded" picks a
        # family with every variable observed in every row when there is one
        folded = [i for i in range(n_vars) if set(s.parents[i]) | {i} <= set(plan.fixed)]
        table = int(rng.choice(folded if probed_family == "folded" and folded else n_vars))
        probed = np.stack([random_tables(rng, s).tables[table] for _ in range(3)])
        got, weights = probe_case_sums(net, values, np.arange(n), table, probed, weigh_by_probability)
        # the families of the probed table's part; a folded table is a part of its own
        assert [g is not None for g in got] == [plan.part[i] == plan.part[table] for i in range(n_vars)]
        if probed_family == "folded" and folded:
            assert [i for i, g in enumerate(got) if g is not None] == [table]
        unprobed = [oracle_family_posteriors(net, DataCase(row)) for row in values]
        want_w = np.zeros_like(weights)
        want = [np.zeros(s.table_shape(i) + (3, 2)) for i in range(n_vars)]
        solo_sums = [np.zeros_like(w) for w in want]
        for p in range(3):
            tables = list(net.theta.tables)
            tables[table] = probed[p]
            moved = net.with_theta(ParameterVector(tables))
            for c in range(n):
                case = DataCase(values[c])
                w = weigh_by_probability(np.log(oracle_case_probability(moved, case)))
                want_w[:, p, c] = w
                for i, post in enumerate(oracle_family_posteriors(moved, case)):
                    want[i][..., p, :] += post[..., None] * w
                    if got[i] is None:
                        # unreached: the probe leaves its posteriors alone
                        np.testing.assert_allclose(post, unprobed[c][i], rtol=0, atol=1e-10)
        for c in range(n):
            # one case replays the whole batch's plan: it reaches the same families
            solo, _ = probe_case_sums(net, values, [c], table, probed, weigh_by_probability)
            assert [x is not None for x in solo] == [g is not None for g in got]
            for acc, x in zip(solo_sums, solo):
                if x is not None:
                    acc += x
        np.testing.assert_allclose(weights, want_w, rtol=1e-10, atol=0)
        for i in range(n_vars):
            if got[i] is None:
                continue
            assert got[i].shape == s.table_shape(i) + (3, 2)
            np.testing.assert_allclose(got[i], solo_sums[i], rtol=0, atol=1e-12 * n)
            np.testing.assert_allclose(got[i], want[i], rtol=0, atol=1e-10 * n)

    def test_a_probe_reaches_its_own_part(self):
        """twolayer15 with its five roots observed in every row: the roots'
        families are scalar factors of the last step, and each child, whose
        parents are all roots, leaves a scalar message there: every table
        is a part of its own, and its probe returns its own family only."""
        net = twolayer15()
        s = net.structure
        roots = [i for i in range(s.n_vars) if not s.parents[i]]
        complete = forward_sample(net, 50, seed=3)
        values = obscure(complete, MissingnessSpec((), 0.2, seed=4)).values.copy()
        values[:, roots] = complete.values[:, roots]
        plan = _plan_of(s, frozenset(range(s.n_vars)), values)
        assert plan.steps[-1].ids[: len(roots)] == tuple(roots)
        assert len(plan.steps[-1].ids) == s.n_vars
        for table in range(s.n_vars):
            probed = np.stack([net.theta.tables[table]] * 2)
            got, _ = probe_case_sums(net, values, np.arange(len(values)), table, probed,
                                     weigh_by_probability)
            reached = [i for i, g in enumerate(got) if g is not None]
            assert [i for i in range(s.n_vars) if plan.part[i] == plan.part[table]] == [table]
            assert reached == [table]

    def test_fully_observed_rare_chain_sums_the_log_entries(self):
        """P = 1e-2000 for the all-s0 row of a 1000-link chain: every
        family is fixed, so the plan's one step multiplies the row's 1000
        entries, rescaling as it goes, and the log-likelihood is the sum
        of their logs."""
        n = 1000
        net = rare_chain(n, 0.01)
        likely = np.tile([1, 0], n // 2)
        values = np.stack([np.zeros(n, dtype=np.int64), likely])
        plan = _plan_of(net.structure, frozenset(range(n)), values)
        assert len(plan.steps) == 1 and plan.steps[0].ids == tuple(range(n))
        for lls in (log_likelihood_cases(net, values), batch_family_posteriors(net, values)[1],
                    batch_family_posteriors(net, values, summed=True)[1]):
            assert np.all(np.isfinite(lls))
            for c in range(2):
                entries = [net.theta.tables[0][0, values[c, 0]]] + [
                    net.theta.tables[i][values[c, i - 1], values[c, i]] for i in range(1, n)
                ]
                assert lls[c] == pytest.approx(math.fsum(np.log(entries)), rel=1e-12)
        assert lls[0] < -4000.0
        posts, _ = batch_family_posteriors(net, values)
        assert posts[0][0, 0, 0] == posts[5][1, 1, 0] == 1.0

    def test_the_last_step_rescales_its_products(self):
        """A 300-link chain whose second row misses every third variable:
        the all-s0 first row leaves, in the last step, the 100 entries of
        0.01 of the families with every variable fixed and 100 scalar
        messages of 1e-4 each, a product of 1e-600, which the checked
        replay rescales as it multiplies them."""
        n = 300
        net = rare_chain(n, 0.01)
        values = np.stack([np.zeros(n, dtype=np.int64), np.tile([1, 0], n // 2)])
        values[1, 1::3] = MISSING
        plan = _plan_of(net.structure, frozenset(range(n)), values)
        ids = plan.steps[-1].ids
        assert ids[:100] == tuple(range(0, n, 3)) and len(ids) == 200
        lls = log_likelihood_cases(net, values)
        assert lls[0] == pytest.approx(n * math.log(0.01), rel=1e-12)
        assert_replay_equals_reference(net, values, [n // 2, 7])

    def test_tiny_entries_of_fixed_families_do_not_underflow(self):
        """R -> C with P(R = s0) = 1e-99 and P(C = s0 | R = s0) = 1e-300,
        both observed in both rows: the last step multiplies the two
        entries, whose product, P(y) = 1e-399, is below the smallest
        float.  The checked replay rescales each entry before it
        multiplies."""
        v = (Variable(0, "R", ("s0", "s1")), Variable(1, "C", ("s0", "s1")))
        tables = [np.array([[1e-99, 1.0 - 1e-99]]), np.array([[1e-300, 1.0 - 1e-300], [0.5, 0.5]])]
        net = Network(NetworkStructure(v, ((), (0,))), ParameterVector(tables))
        values = np.zeros((2, 2), dtype=np.int64)
        want = math.log(1e-99) + math.log(1e-300)
        for lls in (log_likelihood_cases(net, values), batch_family_posteriors(net, values)[1]):
            np.testing.assert_allclose(lls, want, rtol=1e-14)
        posts, _ = batch_family_posteriors(net, values)
        np.testing.assert_array_equal(posts[1][:, 0, 0], 1.0)

    @pytest.mark.parametrize("family", ["folded", "gathered"])
    def test_zero_entry_at_the_observed_configuration_names_the_row(self, family):
        """chain3 with P(B = s1 | M = s1) = 0: row 2 observes M = s1 and
        B = s1.  B's family is a scalar factor of the last step when M is
        observed in every row, and gathered on B otherwise."""
        net = chain3()
        tables = [t.copy() for t in net.theta.tables]
        tables[2][1] = [1.0, 0.0]
        net = net.with_theta(ParameterVector(tables))
        values = np.array([[0, 0, 1], [MISSING, 0, 1], [1, 1, 1], [MISSING, 1, 0]])
        if family == "gathered":
            values[0, 1] = MISSING
        plan = _plan_of(net.structure, frozenset(range(3)), values)
        assert (2 in plan.steps[-1].ids) == (family == "folded")
        calls = [
            lambda: batch_family_posteriors(net, values),
            lambda: batch_family_posteriors(net, values, summed=True),
            lambda: log_likelihood_cases(net, values),
            lambda: batch_posterior_marginals(net, values, [0]),
        ]
        for call in calls:
            with pytest.raises(ZeroProbabilityError, match="case 2 has probability 0") as info:
                call()
            assert info.value.case_index == 2

    @pytest.mark.parametrize("schedule", [LearningRateSchedule.per_row_count(),
                                          LearningRateSchedule.inverse_t(2.0, 20.0)])
    def test_a_stream_compiles_at_most_one_plan(self, schedule):
        """Online batches are one row, or a row and an all-missing row: no
        column is observed in every row, so they share one plan."""
        net = twolayer15()
        names = tuple(v.name for v in net.structure.variables)
        data = obscure(forward_sample(net, 300, seed=5), MissingnessSpec(names[:3], 0.2, seed=6))
        inference._plan.cache_clear()
        run_stream(net, data, "em", schedule)
        assert inference._plan.cache_info().misses <= 1


def disjoint_union(components: list[Network]) -> Network:
    """The networks side by side: variables renumbered, no edge between them."""
    variables, parents, tables = [], [], []
    for net in components:
        base = len(variables)
        s = net.structure
        variables += [Variable(base + i, f"C{base + i}", v.states) for i, v in enumerate(s.variables)]
        parents += [tuple(base + p for p in pa) for pa in s.parents]
        tables += net.theta.tables
    return Network(NetworkStructure(tuple(variables), tuple(parents)), ParameterVector(tables))


def rare_pairs(n_pairs: int = 4, p_rare: float = 1e-99) -> Network:
    """n_pairs disconnected A -> B pairs with P(A = s1) = p_rare."""
    pair = NetworkStructure(
        (Variable(0, "A", ("s0", "s1")), Variable(1, "B", ("s0", "s1"))), ((), (0,))
    )
    tables = [np.array([[1.0 - p_rare, p_rare]]), np.array([[0.7, 0.3], [0.4, 0.6]])]
    return disjoint_union([Network(pair, ParameterVector(tables))] * n_pairs)


class TestDisjointComponents:
    """A network that is a disjoint union of components factorizes: P(y)
    is the product of the components' likelihoods, and each family's
    posteriors are its component's.  Each component's likelihood here
    lands within a few decades of RESCALE_TRIGGER, so their product sinks
    far below float underflow, and the last step, one scalar per
    component, must rescale as it multiplies whether or not the batch
    conditions."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_components=st.integers(2, 4),
        batch=st.sampled_from(["single", "conditioned", "with_missing_row"]),
    )
    @example(seed=1, n_components=4, batch="single")
    @example(seed=2, n_components=4, batch="with_missing_row")
    def test_equals_its_components(self, seed, n_components, batch):
        rng = np.random.default_rng(seed)
        n = 1 if batch == "single" else int(rng.integers(2, 5))
        components, columns, start = [], [], 0
        for _ in range(n_components):
            net = random_network(rng, int(rng.integers(1, 4)))
            values = np.stack([random_partial_case(rng, net.structure, 0.6).states for _ in range(n)])
            # X0 is a root, observed at s0 in every row; P(X0 = s0) scales
            # the first row's likelihood to 10**(-100 + u), 0.5 <= u <= 3
            values[:, 0] = 0
            tables = list(net.theta.tables)
            r = tables[0].shape[1]
            tables[0] = np.array([[1.0] + [0.0] * (r - 1)])
            rest = log_likelihood_cases(net.with_theta(ParameterVector(tables)), values[:1])[0]
            x = 10.0 ** (rng.uniform(-99.5, -97.0) - rest / math.log(10.0))
            tables[0] = np.array([[x] + [(1.0 - x) / (r - 1)] * (r - 1)])
            components.append(net.with_theta(ParameterVector(tables)))
            columns.append(values)
        union = disjoint_union(components)
        values = np.hstack(columns)
        columns = np.split(np.arange(values.shape[1]), np.cumsum([c.shape[1] for c in columns])[:-1])
        if batch == "with_missing_row":
            # no column observed in every row: the plan does not condition
            values = np.vstack([values, np.full(values.shape[1], MISSING)])

        posts, lls = batch_family_posteriors(union, values)
        sums, summed_lls = batch_family_posteriors(union, values, summed=True)
        want_lls = np.zeros(len(values))
        for net, cols in zip(components, columns):
            own_posts, own_lls = batch_family_posteriors(net, values[:, cols])
            want_lls += own_lls
            for i, own in zip(cols, own_posts):
                np.testing.assert_allclose(posts[i], own, rtol=0, atol=1e-12)
                np.testing.assert_allclose(sums[i], own.sum(axis=0), rtol=0, atol=1e-12 * len(values))
        assert want_lls[0] < -200.0
        for got in (lls, summed_lls, log_likelihood_cases(union, values)):
            np.testing.assert_allclose(got, want_lls, rtol=1e-12, atol=1e-12)

    def test_rare_pairs(self):
        """Four disconnected A -> B pairs with P(A = s1) = 1e-99, and rows
        that observe every A at s1: log P = 4 log(1e-99) for a single row,
        a batch of the row and an all-missing row, and a fit on the row;
        an online stream of two such rows skips neither."""
        net = rare_pairs()
        row = np.array([1, MISSING] * 4)
        want = 4 * math.log(1e-99)
        assert log_likelihood_cases(net, row[None])[0] == pytest.approx(want, rel=1e-12)
        for values in (row[None], np.stack([row, np.full(8, MISSING)])):
            posts, lls = batch_family_posteriors(net, values)
            assert lls[0] == pytest.approx(want, rel=1e-12)
            for a, b in zip(posts[::2], posts[1::2]):
                np.testing.assert_allclose(a[0], [[0.0, 1.0]], rtol=0, atol=1e-15)
                np.testing.assert_allclose(b[0], [[0.0, 0.0], [0.4, 0.6]], rtol=0, atol=1e-15)
        result = fit(net, DataSet(net.structure, row[None]), FitConfig("em", 1.0, 3))
        assert result.trace[0].train_ll == pytest.approx(want, rel=1e-12)
        data = DataSet(net.structure, np.stack([row, row]))
        stream = run_stream(net, data, "em", LearningRateSchedule.per_row_count())
        assert stream.n_skipped == 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap thresholds are set on glibc only")
def test_repeated_passes_fault_in_no_fresh_pages():
    """A pass frees a few MB of factors; the next pass reuses them instead
    of faulting fresh pages in, whatever the heap held before."""
    import resource

    rng = np.random.default_rng(3)
    net = random_network(rng, 30, max_parents=2, arities=(3,))
    values = rng.integers(0, 3, size=(2000, 30))
    values[rng.random(values.shape) < 0.3] = MISSING
    log_likelihood_cases(net, values)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        log_likelihood_cases(net, values)
    # under glibc's default, self-adjusting thresholds each of these passes
    # faulted about 1570 pages back in
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
