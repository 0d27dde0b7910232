"""Learning-rate spectrum: the EM operator, its Jacobian, and rates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnfit.estimation
import bnfit.spectral
from bnfit.estimation import FitConfig, expected_stats, fit, is_fixpoint
from bnfit.harness import MissingnessSpec, forward_sample, obscure
from bnfit.model import (
    Network,
    NetworkStructure,
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
    FD_AGREEMENT,
    FD_STEP,
    FIXPOINT_TOL,
    NotAFixpointError,
    _free_coords,
    _probe,
    _to_free,
    build_report,
    contraction_rate,
    empirical_rate,
    eta_star,
    eigen_range,
    jacobian,
    phi_apply,
    report_to_json,
)

from util import random_network, random_structure, random_tables


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


def reference_jacobian(network, dataset, h=FD_STEP):
    """The four-probe finite-difference Jacobian: one full E-step per image."""
    coords = _free_coords(network)
    m = len(coords)
    ok, residual = is_fixpoint(network.theta, expected_stats(network, dataset), FIXPOINT_TOL)
    if not ok:
        raise NotAFixpointError(f"fixpoint residual {residual:.3g}")

    def grad_phi(step):
        cols = np.empty((m, m))
        for c, (i, j, k) in enumerate(coords):
            plus = phi_apply(network.with_theta(_probe(network.theta, i, j, k, step)),
                             dataset, 1.0, clamp=False)
            minus = phi_apply(network.with_theta(_probe(network.theta, i, j, k, -step)),
                              dataset, 1.0, clamp=False)
            cols[:, c] = (_to_free(plus, coords) - _to_free(minus, coords)) / (2.0 * step)
        return cols

    j_h = grad_phi(h)
    j_half = grad_phi(h / 2.0)
    assert np.max(np.abs(j_h - j_half)) <= FD_AGREEMENT
    return np.eye(m) - (4.0 * j_half - j_h) / 3.0


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
    def test_matches_central_differences_of_phi(self, seed, n_vars, obscure_prob, n_hidden):
        rng = np.random.default_rng(seed)
        s = random_structure(rng, n_vars)
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
        h = FD_STEP
        central = np.empty((len(coords), len(coords)))
        for c, (i, j, k) in enumerate(coords):
            plus, minus = (
                phi_apply(net.with_theta(_probe(net.theta, i, j, k, step)), data, 1.0, clamp=False)
                for step in (h, -h)
            )
            central[:, c] = (_to_free(plus, coords) - _to_free(minus, coords)) / (2.0 * h)
        # Phi jumps where a probe gives a zero-mass row some mass, from the
        # probed entries to the ratio; at the base point such a row keeps
        # its entries, so its derivative is the identity and its row of M
        # is zero.
        parent = expected_stats(net, data).parent
        moved = np.array([parent[i][j] > 0.0 for i, j, _ in coords])
        np.testing.assert_allclose(m[moved], np.eye(len(coords))[moved] - central[moved],
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

    @pytest.mark.parametrize("network", ["chain3", "twolayer15"])
    def test_matches_four_probe_reference(self, network, twolayer15_at_fixpoint):
        if network == "chain3":
            net, data = converged_chain3()
        else:
            net, data = twolayer15_at_fixpoint
        np.testing.assert_allclose(
            jacobian(net, data), reference_jacobian(net, data), rtol=0, atol=1e-8
        )

    def test_several_blocks_same_matrix(self, monkeypatch):
        net, data = converged_chain3(n=200)
        one_block = jacobian(net, data)
        monkeypatch.setattr(bnfit.estimation, "E_STEP_CHUNK", 37)
        np.testing.assert_allclose(jacobian(net, data), one_block, rtol=0, atol=1e-9)

    def test_one_e_step_per_coordinate(self, monkeypatch, twolayer15_at_fixpoint):
        net, data = twolayer15_at_fixpoint
        calls = []
        inner = bnfit.estimation.batch_family_posteriors

        def counting(network, values):
            calls.append(len(values))
            return inner(network, values)

        monkeypatch.setattr(bnfit.estimation, "batch_family_posteriors", counting)
        build_report(net, data, [1.0])
        assert calls == [len(data)] * (len(_free_coords(net)) + 1)

    def test_probe_making_a_case_impossible(self):
        """P(A = a0) = 0.25 at the fixpoint; the probe at -h with h = 0.5
        gives it probability -0.25, so row 1, the first a0 case, is impossible."""
        structure = NetworkStructure((Variable(0, "A", ("a0", "a1")),), ((),))
        net = Network(structure, ParameterVector([np.array([[0.25, 0.75]])]))
        data = DataSet(structure, np.array([[1], [0], [1], [1]]))
        for jac in (jacobian, reference_jacobian):
            with pytest.raises(ZeroProbabilityError) as info:
                jac(net, data, h=0.5)
            assert info.value.case_index == 1


class TestEigenRange:
    def test_identity_matrix(self):
        assert eigen_range(np.eye(4)) == (1.0, 1.0, False)

    def test_diagonal(self):
        lmin, lmax, deficient = eigen_range(np.diag([0.5, 1.0]))
        assert (lmin, lmax, deficient) == (0.5, 1.0, False)

    def test_zero_filtered_and_flagged(self):
        lmin, lmax, deficient = eigen_range(np.diag([0.0, 0.5, 1.0]), cutoff=1e-8)
        assert (lmin, lmax) == (0.5, 1.0)
        assert deficient

    def test_all_below_cutoff_rejected(self):
        with pytest.raises(NumericalError):
            eigen_range(np.zeros((3, 3)))


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
