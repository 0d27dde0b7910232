"""Learning-rate spectrum: the EM operator, its Jacobian, and rates."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bnfit.estimation
import bnfit.inference
import bnfit.spectral
from bnfit.estimation import ROW_MASS_FLOOR, FitConfig, expected_stats, fit, is_fixpoint
from bnfit.harness import MissingnessSpec, forward_sample, obscure
from bnfit.model import (
    Network,
    NetworkStructure,
    PROB_FLOOR,
    NumericalError,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
    random_init,
)
from bnfit.netio import DataSet
from bnfit.networks import chain3, twolayer15
from bnfit.spectral import (
    EIGEN_CUTOFF,
    FD_AGREEMENT,
    FD_STEP,
    FIXPOINT_TOL,
    NotAFixpointError,
    _free_coords,
    build_report,
    contraction_rate,
    empirical_rate,
    eta_star,
    eigen_range,
    jacobian,
    phi_apply,
    report_to_json,
)

from util import probe, random_network, random_structure, random_tables, reference_jacobian, to_free


def converged_chain3(n=400, hidden=("M",), seed=0, init_seed=5):
    """A deeply converged EM(1) fixpoint on obscured chain3 data."""
    net = chain3()
    data = obscure(forward_sample(net, n, seed=seed), MissingnessSpec(hidden, 0.2, seed=seed + 1))
    cfg = FitConfig("em", 1.0, 4000, tol_ll=None, tol_param=1e-10, init="random", seed=init_seed)
    result = fit(net, data, cfg)
    return net.with_theta(result.theta), data


def twolayer15_fixpoint(n=500, seed=0, init_seed=3):
    """EM(1.8) fixpoint of twolayer15 on 0.2-obscured data, roots observed."""
    net = twolayer15()
    complete = forward_sample(net, n, seed=seed)
    data = obscure(complete, MissingnessSpec((), 0.2, seed=seed + 1))
    roots = [i for i in range(net.structure.n_vars) if not net.structure.parents[i]]
    values = data.values.copy()
    values[:, roots] = complete.values[:, roots]
    data = DataSet(net.structure, values)
    cfg = FitConfig("em", 1.8, 1000, tol_ll=None, tol_param=1e-10, init="random",
                    seed=init_seed, warm_start_em1=True)
    return net.with_theta(fit(net, data, cfg).theta), data


def two_chains(kind, n=400, seed=0, init_seed=5):
    """Two chain3 copies, A -> M -> B with M hidden and the rest 0.2
    obscured, at a deeply converged EM(1) fixpoint.  "conditioned": the
    copies share their root A, observed in every row, so a batch's plan
    has one part per copy and A's family, a scalar factor of the last
    step, is a third.  "components": each copy has its own root and
    nothing is observed in every row, so the plan has one part per
    connected component."""
    a, m, b = chain3().theta.tables
    if kind == "conditioned":
        names = ("A", "M1", "B1", "M2", "B2")
        parents = ((), (0,), (1,), (0,), (3,))
        tables = [a, m, b, b[::-1], m]
    else:
        names = ("A1", "M1", "B1", "A2", "M2", "B2")
        parents = ((), (0,), (1,), (), (3,), (4,))
        tables = [a, m, b, a[:, ::-1], m[:, ::-1], b[:, ::-1]]
    structure = NetworkStructure(
        tuple(Variable(i, name, ("s0", "s1")) for i, name in enumerate(names)), parents
    )
    net = Network(structure, ParameterVector([t.copy() for t in tables]))
    complete = forward_sample(net, n, seed=seed)
    values = obscure(complete, MissingnessSpec(("M1", "M2"), 0.2, seed=seed + 1)).values.copy()
    if kind == "conditioned":
        values[:, 0] = complete.values[:, 0]
    data = DataSet(structure, values)
    cfg = FitConfig("em", 1.0, 4000, tol_ll=None, tol_param=1e-10, init="random", seed=init_seed)
    return net.with_theta(fit(net, data, cfg).theta), data


@pytest.fixture(scope="module")
def twolayer15_at_fixpoint():
    return twolayer15_fixpoint()


class TestPhiApply:
    def test_eta_zero_identity(self):
        net = chain3()
        data = forward_sample(net, 50, seed=1)
        out = phi_apply(net, data, 0.0)
        for a, b in zip(out.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_complete_data_closed_form(self):
        """With complete data the statistics do not depend on theta, so
        the map is an exact convex combination with the frequency vector."""
        rng = np.random.default_rng(2)
        net = random_network(rng, 5)
        data = forward_sample(net, 200, seed=3)
        stats = expected_stats(net, data)
        for eta in (0.5, 1.0, 1.7):
            out = phi_apply(net, data, eta, clamp=False)
            for i, t in enumerate(out.tables):
                mask = stats.parent[i] > 1e-12
                freq = stats.joint[i][mask] / stats.parent[i][mask, None]
                expected = eta * freq + (1 - eta) * net.theta.tables[i][mask]
                np.testing.assert_allclose(t[mask], expected, atol=1e-12)

    def test_fixpoint_invariant_for_all_eta(self):
        net, data = converged_chain3()
        for eta in (0.5, 1.0, 1.7):
            out = phi_apply(net, data, eta)
            for a, b in zip(out.tables, net.theta.tables):
                np.testing.assert_allclose(a, b, atol=1e-9)


class TestJacobian:
    def test_complete_data_gives_identity(self):
        """Complete data: the statistics are constant in theta, so M is
        the identity on every visited row's coordinates.  Rows never hit
        by the data are frozen, contribute zero eigenvalues, and are
        filtered by the cutoff."""
        rng = np.random.default_rng(4)
        net = random_network(rng, 5)
        data = forward_sample(net, 300, seed=5)
        res = fit(net, data, FitConfig("em", 1.0, 5, tol_ll=1e-13, init="random", seed=6))
        at_fix = net.with_theta(res.theta)
        stats = expected_stats(at_fix, data)
        m = jacobian(at_fix, data)
        coords = []
        for i in range(net.structure.n_vars):
            q, r = net.structure.table_shape(i)
            for j in range(q):
                visited = stats.parent[i][j] > 1e-12
                coords.extend([visited] * (r - 1))
        coords = np.array(coords)
        sub = m[np.ix_(coords, coords)]
        np.testing.assert_allclose(sub, np.eye(int(coords.sum())), atol=1e-6)
        assert np.all(np.abs(m[np.ix_(~coords, ~coords)]) < 1e-9)
        lmin, lmax, _ = eigen_range(m)
        assert lmin == pytest.approx(1.0, abs=1e-6)
        assert lmax == pytest.approx(1.0, abs=1e-6)

    def test_duplicated_dataset_same_jacobian(self):
        net, data = converged_chain3(n=200)
        m1 = jacobian(net, data)
        doubled = type(data)(data.structure, np.vstack([data.values, data.values]))
        m2 = jacobian(net, doubled)
        np.testing.assert_allclose(m1, m2, atol=1e-10)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(3, 6),
        obscure_prob=st.sampled_from([0.1, 0.3, 0.6]),
        n_hidden=st.integers(0, 2),
        roots_observed=st.booleans(),
    )
    @example(seed=4, n_vars=3, obscure_prob=0.3, n_hidden=1, roots_observed=False)
    def test_case_counts_and_order(self, seed, n_vars, obscure_prob, n_hidden, roots_observed):
        """Probe passes run once per distinct case of a part, weighted by its
        count: M is the same on the fitted dataset, on its rows permuted, and
        on the dataset stacked on itself, where every count doubles.  Roots
        observed in every row split the parts, each root a part of its own."""
        rng = np.random.default_rng(seed)
        truth = random_network(rng, n_vars)
        s = truth.structure
        hidden = tuple(v.name for v in s.variables[n_vars - n_hidden:])
        complete = forward_sample(truth, 60, seed=seed % 1000)
        mask = MissingnessSpec(hidden, obscure_prob, seed=seed % 997)
        values = obscure(complete, mask).values.copy()
        if roots_observed:
            roots = [i for i in range(n_vars) if not s.parents[i]]
            values[:, roots] = complete.values[:, roots]
        data = DataSet(s, values)
        cfg = FitConfig("em", 1.0, 200, tol_ll=None, tol_param=1e-9, init="random", seed=seed % 991)
        net = truth.with_theta(fit(truth, data, cfg).theta)
        with pytest.MonkeyPatch.context() as mp:
            # a fit stopped at max_iters may sit off the fixpoint; the
            # invariance holds at any point
            mp.setattr(bnfit.spectral, "FIXPOINT_TOL", np.inf)
            mp.setattr(bnfit.spectral, "FD_AGREEMENT", np.inf)
            m = jacobian(net, data)
            permuted = jacobian(net, DataSet(s, values[rng.permutation(len(values))]))
            stacked = jacobian(net, DataSet(s, np.vstack([values, values])))
        # Row c of M is a quotient by the parent mass w of coordinate c's
        # row, so its rounding grows as 1 / w: on rows with w near 0 (an
        # entry sliding to the floor) only w * M is held to the bound.
        w = np.array([expected_stats(net, data).parent[i][j] for i, j, _ in _free_coords(net)])
        solid = w > 1e-3
        for other in (permuted, stacked):
            np.testing.assert_allclose(other[solid], m[solid], rtol=0, atol=1e-10)
            np.testing.assert_allclose(w[:, None] * other, w[:, None] * m, rtol=0, atol=1e-10)

    def test_hidden_middle_eigenvalues_in_unit_interval(self):
        net, data = converged_chain3()
        m = jacobian(net, data)
        eigs = np.linalg.eigvals(m)
        assert np.all(np.abs(eigs.imag) < 1e-8)
        assert eigs.real.min() > -1e-6
        assert eigs.real.max() < 1.0 + 1e-6

    def test_not_a_fixpoint_rejected(self):
        net = chain3()
        data = forward_sample(net, 100, seed=7)
        shifted = net.with_theta(random_init(net.structure, 99))
        with pytest.raises(NotAFixpointError):
            jacobian(shifted, data)


class TestProbeReconstruction:
    """The Jacobian differentiates the EM(1) map exactly from the base pass
    and one pass at +h per coordinate."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(2, 6),
        obscure_prob=st.sampled_from([0.0, 0.3, 0.7]),
        n_hidden=st.integers(0, 2),
    )
    @example(seed=615, n_vars=6, obscure_prob=0.3, n_hidden=0)
    def test_matches_central_differences_of_phi(self, seed, n_vars, obscure_prob, n_hidden):
        rng = np.random.default_rng(seed)
        s = random_structure(rng, n_vars, arities=(2, 3, 4))
        # X1 depends on X0, whose state 0 has probability 0: X1's row 0
        # carries no mass at the base point.
        parents = (s.parents[0], tuple(sorted({0, *s.parents[1]}))) + s.parents[2:]
        structure = NetworkStructure(s.variables, parents)
        tables = list(random_tables(rng, structure).tables)
        root = np.concatenate([[0.0], rng.dirichlet(np.ones(structure.arity(0) - 1))])
        tables[0] = root[None, :]
        net = Network(structure, ParameterVector(tables))
        hidden = tuple(v.name for v in structure.variables[n_vars - n_hidden:])
        data = obscure(forward_sample(net, 40, seed=seed % 1000),
                       MissingnessSpec(hidden, obscure_prob, seed=seed % 997))

        with pytest.MonkeyPatch.context() as mp:
            # a random network is no fixpoint, and far from one the
            # forward-difference quotient is far from the derivative
            mp.setattr(bnfit.spectral, "FIXPOINT_TOL", np.inf)
            mp.setattr(bnfit.spectral, "FD_AGREEMENT", np.inf)
            m = jacobian(net, data)

        coords = _free_coords(net)

        def central(h):
            slopes = np.empty((len(coords), len(coords)))
            for c, (i, j, k) in enumerate(coords):
                plus, minus = (
                    phi_apply(net.with_theta(probe(net.theta, i, j, k, step)), data, 1.0, clamp=False)
                    for step in (h, -h)
                )
                slopes[:, c] = (to_free(plus, coords) - to_free(minus, coords)) / (2.0 * h)
            return slopes

        # A central difference errs by O(h^2), up to 6.7e-6 at FD_STEP on
        # rows of parent mass 0.002, where Phi curves sharply; Richardson
        # extrapolation from h and 2h cancels that term.
        slopes = (4.0 * central(FD_STEP) - central(2.0 * FD_STEP)) / 3.0
        # Phi jumps where a probe gives a zero-mass row some mass, from the
        # probed entries to the ratio; at the base point such a row keeps
        # its entries, so its derivative is the identity and its row of M
        # is zero.
        parent = expected_stats(net, data).parent
        moved = np.array([parent[i][j] > 0.0 for i, j, _ in coords])
        np.testing.assert_allclose(m[moved], np.eye(len(coords))[moved] - slopes[moved],
                                   rtol=0, atol=1e-6)
        np.testing.assert_array_equal(m[~moved], 0.0)
        assert not moved[coords.index((1, 0, 0))]

    def test_independent_of_the_step(self, twolayer15_at_fixpoint):
        """Up to rounding; the forward-difference guard passes at every h
        here because the map is close to affine along each coordinate."""
        net, data = twolayer15_at_fixpoint
        at_default = jacobian(net, data)
        for h in (1e-3, 1e-2):
            np.testing.assert_allclose(jacobian(net, data, h), at_default, rtol=0, atol=1e-9)

    def test_moderate_steps_on_a_curved_map(self):
        """The secant's gap to the trapezoid of the exact slopes is O(h^2):
        on chain3 it passes at h = 1e-2, where a forward difference alone
        is off by about 1.5e-2."""
        net, data = converged_chain3()
        at_default = jacobian(net, data)
        for h in (1e-3, 1e-2):
            np.testing.assert_allclose(jacobian(net, data, h), at_default, rtol=0, atol=1e-9)

    def test_wrong_slope_rejected(self, monkeypatch):
        """Halving each case's likelihood ratio halves the slope at 0 and
        doubles the slope at +h, but leaves Phi(+h) alone: the guard trips."""
        net, data = converged_chain3()
        passes = bnfit.spectral.probe_case_sums

        def wrong_ratio(network, block, rows, table, probed, weigh):
            return passes(network, block, rows, table, probed, lambda lls: weigh(lls + np.log(0.5)))

        monkeypatch.setattr(bnfit.spectral, "probe_case_sums", wrong_ratio)
        with pytest.raises(NumericalError, match="disagree"):
            jacobian(net, data)

    @pytest.mark.parametrize("network", ["chain3", "twolayer15"])
    def test_matches_four_probe_reference(self, network, twolayer15_at_fixpoint):
        if network == "chain3":
            net, data = converged_chain3()
        else:
            net, data = twolayer15_at_fixpoint
        np.testing.assert_allclose(
            jacobian(net, data), reference_jacobian(net, data), rtol=0, atol=1e-8
        )

    @pytest.mark.parametrize("kind", ["conditioned", "components"])
    def test_parts_do_not_couple(self, kind):
        """A probe pass replays only the probed table's part; an entry of M
        coupling two parts is exactly 0."""
        net, data = two_chains(kind)
        plan = bnfit.inference._plan_of(net.structure, frozenset(range(net.structure.n_vars)),
                                        data.values)
        ids = plan.steps[-1].ids
        assert len(ids) == 2 + (kind == "conditioned")
        assert (ids[0] == 0) == (kind == "conditioned")
        m = jacobian(net, data)
        np.testing.assert_allclose(m, reference_jacobian(net, data), rtol=0, atol=1e-8)
        part = np.array([plan.part[i] for i, _, _ in _free_coords(net)])
        cross = part[:, None] != part
        assert cross.any() and not cross.all()
        np.testing.assert_array_equal(m[cross], 0.0)

    def test_signatures_past_the_radix_limit(self):
        """Forty ternary variables with MISSING take 4**40 > 2**62 codes, so
        the codes are renumbered on the way; the signatures are still the
        distinct rows, in first-occurrence order, with their counts.  Rows
        that differ in the first variable only would share a code wrapped
        modulo 2**64 (4**39 is a multiple of it)."""
        structure = NetworkStructure(
            tuple(Variable(i, f"X{i}", ("a", "b", "c")) for i in range(40)), ((),) * 40
        )
        rng = np.random.default_rng(3)
        rows = rng.integers(-1, 3, size=(6, 40))
        twins = rows.copy()
        twins[:, 0] = (rows[:, 0] + 2) % 4 - 1
        values = np.vstack([rows, twins])[rng.integers(0, 12, size=300)]
        net = Network(structure, random_tables(rng, structure))
        reps, counts = bnfit.spectral._signatures(net, values, list(range(40)))
        distinct, first, inverse = np.unique(values, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)
        np.testing.assert_array_equal(reps, first[order])
        np.testing.assert_array_equal(counts, np.bincount(inverse.ravel())[order])

    def test_several_blocks_same_matrix(self, monkeypatch):
        net, data = converged_chain3(n=200)
        one_block = jacobian(net, data)
        monkeypatch.setattr(bnfit.estimation, "E_STEP_CHUNK", 37)
        np.testing.assert_allclose(jacobian(net, data), one_block, rtol=0, atol=1e-9)

    def test_non_fixpoint_refused_after_one_pass_per_block(self, monkeypatch):
        """Every block's base pass runs before any probe: off the fixpoint,
        200 cases in blocks of 37 cost six passes, not the probes of five
        blocks too."""
        net = chain3()
        data = forward_sample(net, 200, seed=7)
        shifted = net.with_theta(random_init(net.structure, 99))
        calls = []
        inner = bnfit.estimation.batch_family_posteriors

        def counting(network, values, **kwargs):
            calls.append(len(values))
            return inner(network, values, **kwargs)

        monkeypatch.setattr(bnfit.estimation, "batch_family_posteriors", counting)
        monkeypatch.setattr(bnfit.estimation, "E_STEP_CHUNK", 37)
        with pytest.raises(NotAFixpointError):
            jacobian(shifted, data)
        assert calls == [37] * 5 + [15]

    def test_one_pass_per_probe_group_and_case_block(self, monkeypatch, twolayer15_at_fixpoint):
        """One base pass; then per table one group of the probes that keep
        every entry nonnegative and one of those that move a row's last
        entry below 0, each over sub-blocks of E_STEP_CHUNK // P of the
        distinct signatures of the cases on the family variables of the
        table's part of the plan."""
        net, data = twolayer15_at_fixpoint
        calls, passes = [], []
        inner = bnfit.estimation.batch_family_posteriors
        probes = bnfit.spectral.probe_case_sums

        def counting(network, values, **kwargs):
            calls.append(len(values))
            return inner(network, values, **kwargs)

        def recording(network, block, rows, table, probed, weigh):
            passes.append((table, len(probed), len(rows)))
            return probes(network, block, rows, table, probed, weigh)

        monkeypatch.setattr(bnfit.estimation, "batch_family_posteriors", counting)
        monkeypatch.setattr(bnfit.spectral, "probe_case_sums", recording)
        build_report(net, data, [1.0])
        assert calls == [len(data)]
        s = net.structure
        part = bnfit.inference._plan_of(s, frozenset(range(s.n_vars)), data.values).part
        chunk, expected = bnfit.estimation.E_STEP_CHUNK, []
        for i, table in enumerate(net.theta.tables):
            tables = [u for u in range(s.n_vars) if part[u] == part[i]]
            variables = sorted({v for u in tables for v in (u, *s.parents[u])})
            n = len(np.unique(data.values[:, variables], axis=0))
            free = table.shape[1] - 1
            low = free * int(np.count_nonzero(table[:, -1] < FD_STEP))
            for size in (table.shape[0] * free - low, low):
                if size:
                    width = chunk // size
                    expected += [(i, size, min(width, n - a)) for a in range(0, n, width)]
        assert passes == expected
        assert len(passes) < len(_free_coords(net))

    @pytest.mark.parametrize("chunk", [37, 5])
    def test_case_and_probe_sub_blocks_same_matrix(self, monkeypatch, chunk):
        """At 5, fewer than the 18 coordinates of twolayer15's largest
        table, the probes of a group are split too; no pass has more than
        E_STEP_CHUNK (probe, case) columns."""
        net, data = twolayer15_fixpoint(n=60)
        one_block = jacobian(net, data)
        columns = []
        probes = bnfit.spectral.probe_case_sums

        def recording(network, block, rows, table, probed, weigh):
            columns.append(len(probed) * len(rows))
            return probes(network, block, rows, table, probed, weigh)

        monkeypatch.setattr(bnfit.spectral, "probe_case_sums", recording)
        monkeypatch.setattr(bnfit.estimation, "E_STEP_CHUNK", chunk)
        np.testing.assert_allclose(jacobian(net, data), one_block, rtol=0, atol=1e-9)
        assert 0 < max(columns) <= chunk

    def test_one_plan_per_block_fixed_set(self, monkeypatch, twolayer15_at_fixpoint):
        """Probe passes replay their block's plan, whatever columns their
        few representative cases happen to share: a report compiles one
        plan per distinct fixed set of its E-step blocks."""
        plans = bnfit.inference._plan
        net, data = twolayer15_at_fixpoint
        plans.cache_clear()
        build_report(net, data, [1.0])
        assert plans.cache_info().currsize == 1

        net, data = twolayer15_fixpoint(n=200)
        monkeypatch.setattr(bnfit.estimation, "E_STEP_CHUNK", 37)
        fixed_sets = {frozenset(np.flatnonzero((data.values[a : a + 37] >= 0).all(axis=0)))
                      for a in range(0, len(data), 37)}
        plans.cache_clear()
        build_report(net, data, [1.0])
        assert plans.cache_info().currsize == len(fixed_sets)

    def test_negative_probes_take_the_checked_replay(self, monkeypatch, twolayer15_at_fixpoint):
        """The fixture has rows whose last entry sits at PROB_FLOOR, below
        h.  Their probes leave `_safe_total` no bound, and their passes
        replay checked; every other probe pass replays unchecked."""
        net, data = twolayer15_at_fixpoint
        assert min(t.min() for t in net.theta.tables) == PROB_FLOOR
        passes = []
        probes = bnfit.spectral.probe_case_sums
        eliminate = bnfit.inference._eliminate

        def recording(network, block, rows, table, probed, weigh):
            passes.append((bool(probed.min() < 0.0), []))
            return probes(network, block, rows, table, probed, weigh)

        def replaying(plan, factors, keep=False, checked=True):
            if passes:
                passes[-1][1].append(checked)
            return eliminate(plan, factors, keep, checked)

        monkeypatch.setattr(bnfit.spectral, "probe_case_sums", recording)
        monkeypatch.setattr(bnfit.inference, "_eliminate", replaying)
        m = jacobian(net, data)
        assert any(negative for negative, _ in passes)
        for negative, replays in passes:
            assert replays == [negative]
        np.testing.assert_allclose(m, reference_jacobian(net, data), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("etas, empirical, match", [
        pytest.param([1.0, float("inf")], None, "eta must be a finite positive number", id="inf"),
        pytest.param([1.0, float("nan")], None, "eta must be a finite positive number", id="nan"),
        pytest.param([1.0, 0.0], None, "eta must be a finite positive number", id="0.0"),
        pytest.param([1.0], {1.0: float("nan")}, "empirical rate must be a finite nonnegative",
                     id="empirical-nan"),
        pytest.param([1.0], {1.8: 0.5}, "eta 1.8, which is not among the etas",
                     id="empirical-for-another-eta"),
    ])
    def test_bad_eta_rejected_before_any_e_step(self, monkeypatch, etas, empirical, match):
        net, data = converged_chain3(n=200)
        calls = []
        inner = bnfit.estimation.batch_family_posteriors

        def counting(network, values, **kwargs):
            calls.append(len(values))
            return inner(network, values, **kwargs)

        monkeypatch.setattr(bnfit.estimation, "batch_family_posteriors", counting)
        with pytest.raises(ValidationError, match=match):
            build_report(net, data, etas, empirical)
        assert calls == []

    def test_probe_making_a_case_impossible(self):
        """P(A = a0) = 0.25 at the fixpoint; the probe at -h with h = 0.5
        gives it probability -0.25, so row 1, the first a0 case, is
        impossible; a repeat of it further down still leaves row 1 named."""
        structure = NetworkStructure((Variable(0, "A", ("a0", "a1")),), ((),))
        net = Network(structure, ParameterVector([np.array([[0.25, 0.75]])]))
        for rows in ([1, 0, 1, 1], [1, 0, 1, 1, 1, 0, 1, 1]):
            data = DataSet(structure, np.array(rows)[:, None])
            for jac in (jacobian, reference_jacobian):
                with pytest.raises(ZeroProbabilityError) as info:
                    jac(net, data, h=0.5)
                assert info.value.case_index == 1


def information_symmetry_gap(network, dataset):
    """max|A - A^T| / max|A| for A = I_c M at a fixpoint, on the free chart,
    and the largest relative fixpoint gap |t - joint / w| / t of its entries.

    There M = I_c^-1 I_obs (Dempster, Laird and Rubin 1977), so I_c M is
    the observed information, symmetric.  I_c, the expected complete-data
    information, has one block per row (i, j): with parent mass w and
    entries t, w * (diag(1 / t[:-1]) + 1 / t[-1]).  A row with no mass
    makes I_c singular and one with an entry near PROB_FLOOR makes it
    ill-conditioned, so their coordinates are left out.
    """
    m_matrix = jacobian(network, dataset)
    stats = expected_stats(network, dataset)
    i_c = np.zeros_like(m_matrix)
    kept = []
    drift = 0.0
    c = 0
    for t, joint, w in zip(network.theta.tables, stats.joint, stats.parent):
        for row, counts, mass in zip(t, joint, w):
            block = slice(c, c + len(row) - 1)
            i_c[block, block] = mass * (np.diag(1.0 / row[:-1]) + 1.0 / row[-1])
            if mass > ROW_MASS_FLOOR and row.min() > 10 * PROB_FLOOR:
                kept.extend(range(block.start, block.stop))
                drift = max(drift, float(np.max(np.abs(row - counts / mass) / row)))
            c = block.stop
    a = (i_c @ m_matrix)[np.ix_(kept, kept)]
    return float(np.max(np.abs(a - a.T)) / np.max(np.abs(a))), drift


class TestInformationSymmetry:
    """I_c M is symmetric at a fixpoint while M is not: a check of every
    column of the Jacobian against its mirrored row."""

    def test_chain3(self):
        net, data = converged_chain3()
        m_matrix = jacobian(net, data)
        assert np.max(np.abs(m_matrix - m_matrix.T)) > 0.1
        assert information_symmetry_gap(net, data)[0] <= 1e-9

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_vars=st.integers(3, 6))
    @example(seed=89, n_vars=5)
    def test_random_dags(self, seed, n_vars):
        rng = np.random.default_rng(seed)
        truth = random_network(rng, n_vars)
        hidden = (truth.structure.variables[int(rng.integers(n_vars))].name,)
        data = obscure(forward_sample(truth, 300, seed=seed % 1000),
                       MissingnessSpec(hidden, 0.3, seed=seed % 997))
        cfg = FitConfig("em", 1.8, 3000, tol_ll=None, tol_param=1e-11, init="random",
                        seed=seed % 991, warm_start_em1=True)
        result = fit(truth, data, cfg)
        net = truth.with_theta(result.theta)
        if result.termination == "max_iters":
            # The gap tracks the distance to the fixpoint: stopped at
            # max_iters, one draw had drift 6.2e-8 and gap 1.55e-9 (seed
            # 89), which 2000 EM(1) updates bring to 5.9e-10 and 1.5e-11.
            polish = FitConfig("em", 1.0, 2000, tol_ll=None, tol_param=0.0)
            net = net.with_theta(fit(net, data, polish).theta)
        # EM can stop short of a fixpoint: on a slow mode, or with an
        # entry still sliding toward the floor, whose gap is small in
        # absolute terms only (one draw in 160: gap 1.8e-3 relative, and an
        # asymmetry of 3e-7; at most 1e-9 relative on the others)
        assume(is_fixpoint(net.theta, expected_stats(net, data), 1e-9)[0])
        gap, drift = information_symmetry_gap(net, data)
        assume(drift <= 1e-6)
        assert gap <= 1e-9


class TestEigenRange:
    def test_identity_matrix(self):
        assert eigen_range(np.eye(4)) == (1.0, 1.0, False)

    def test_diagonal(self):
        lmin, lmax, deficient = eigen_range(np.diag([0.5, 1.0]))
        assert (lmin, lmax, deficient) == (0.5, 1.0, False)

    def test_zero_filtered_and_flagged(self):
        """An eigenvalue equal to the cutoff is left out of the range and
        flagged, as 0 is."""
        for low in (0.0, EIGEN_CUTOFF):
            lmin, lmax, deficient = eigen_range(np.diag([low, 0.5, 1.0]))
            assert (lmin, lmax) == (0.5, 1.0)
            assert deficient

    def test_all_below_cutoff_rejected(self):
        with pytest.raises(NumericalError):
            eigen_range(np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,), (2, 2, 2)])
    def test_not_a_nonempty_square_matrix_rejected(self, shape):
        with pytest.raises(ValidationError, match=rf"got shape {re.escape(str(shape))}"):
            eigen_range(np.ones(shape))


class TestRateFormulas:
    def test_eta_star_values(self):
        assert eta_star(1.0, 1.0) == pytest.approx(1.0)
        assert eta_star(0.5, 1.0) == pytest.approx(4.0 / 3.0)
        assert eta_star(0.1, 0.4) == pytest.approx(4.0)

    def test_eta_star_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            eta_star(0.0, 0.5)
        with pytest.raises(ValidationError):
            eta_star(-0.1, 0.5)
        with pytest.raises(ValidationError):
            eta_star(0.6, 0.5)

    def test_contraction_rate_values(self):
        assert contraction_rate(1.0, 0.2, 1.0) == pytest.approx(0.8)
        assert contraction_rate(4.0 / 3.0, 0.5, 1.0) == pytest.approx(1.0 / 3.0)
        assert contraction_rate(2.0, 0.5, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("eta", [float("inf"), float("nan"), 0.0, -1.0])
    def test_contraction_rate_needs_finite_positive_eta(self, eta):
        with pytest.raises(ValidationError, match="eta must be a finite positive number"):
            contraction_rate(eta, 0.5, 1.0)

    def test_eta_star_minimizes_rate(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            lmin = rng.uniform(0.01, 1.0)
            lmax = rng.uniform(lmin, 1.0)
            star = eta_star(lmin, lmax)
            best = contraction_rate(star, lmin, lmax)
            for eta in np.linspace(0.05, 3.0, 100):
                assert best <= contraction_rate(eta, lmin, lmax) + 1e-12


class TestEmpiricalRate:
    def test_exact_synthetic_contraction(self):
        net = chain3()
        star = net.theta
        direction = [np.array([[0.02, -0.02]]),
                     np.array([[0.01, -0.01], [-0.02, 0.02]]),
                     np.array([[0.0, 0.0], [0.015, -0.015]])]
        thetas = []
        for s in range(10):
            scale = 0.7**s
            thetas.append(
                ParameterVector(
                    [t + scale * d for t, d in zip(star.tables, direction)],
                    _validate=False,
                )
            )
        assert empirical_rate(thetas, star) == pytest.approx(0.7, abs=1e-9)

    def test_too_few_iterates_rejected(self):
        net = chain3()
        with pytest.raises(NumericalError):
            empirical_rate([net.theta] * 3, net.theta)

    def test_noise_floor_rejected(self):
        net = chain3()
        star = net.theta
        thetas = [star] * 6  # all distances are exactly zero
        with pytest.raises(NumericalError):
            empirical_rate(thetas, star)


class TestEndToEnd:
    def test_em1_empirical_rate_matches_prediction(self):
        """Cross-module consistency on the hidden-middle chain."""
        net, data = converged_chain3(n=500, seed=11, init_seed=3)
        report = build_report(net, data, [1.0])
        predicted = report.rho[0].predicted
        rng = np.random.default_rng(12)
        tables = []
        for t in net.theta.tables:
            d = rng.normal(size=t.shape)
            d -= d.mean(axis=1, keepdims=True)
            tables.append(t + 3e-3 * d)
        start = net.with_theta(ParameterVector(tables, _validate=False))
        run = fit(start, data,
                  FitConfig("em", 1.0, 60, tol_ll=None, tol_param=1e-11,
                            init="network", record_thetas=True))
        limit = fit(net.with_theta(run.theta), data,
                    FitConfig("em", 1.0, 4000, tol_ll=None, tol_param=1e-12,
                              init="network"))
        measured = empirical_rate(list(run.thetas), limit.theta)
        assert abs(measured - predicted) / predicted <= 0.15

    def test_optimal_rate_contracts_faster_than_em1(self):
        """Runs at eta* shrink toward the fixpoint faster than EM(1)."""
        net, data = converged_chain3(n=500, seed=11, init_seed=3)
        m = jacobian(net, data)
        lmin, lmax, _ = eigen_range(m)
        star = eta_star(lmin, lmax)
        rng = np.random.default_rng(21)
        tables = []
        for t in net.theta.tables:
            d = rng.normal(size=t.shape)
            d -= d.mean(axis=1, keepdims=True)
            tables.append(t + 3e-3 * d)
        start = net.with_theta(ParameterVector(tables, _validate=False))
        rates = {}
        for eta in (1.0, star):
            run = fit(start, data,
                      FitConfig("em", eta, 60, tol_ll=None, tol_param=1e-11,
                                init="network", record_thetas=True))
            limit = fit(net.with_theta(run.theta), data,
                        FitConfig("em", eta, 4000, tol_ll=None, tol_param=1e-12,
                                  init="network"))
            rates[eta] = empirical_rate(list(run.thetas), limit.theta)
        assert rates[star] < rates[1.0]

    def test_report_json_schema(self):
        net, data = converged_chain3(n=300, seed=13, init_seed=4)
        report = build_report(net, data, [0.5, 1.0, 1.5], empirical={1.0: 0.8})
        doc = json.loads(report_to_json(report))
        assert set(doc) == {
            "lambda_min", "lambda_max", "eta_star", "rank_deficient",
            "theta_residual", "rho",
        }
        assert doc["eta_star"] >= 1.0 - 1e-6
        assert len(doc["rho"]) == 3
        assert "empirical" in doc["rho"][1] and "empirical" not in doc["rho"][0]
        assert doc["theta_residual"] < 1e-6
