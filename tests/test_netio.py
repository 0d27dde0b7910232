"""File formats: network JSON, dataset CSV, trace CSV."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit.estimation import FitConfig, TraceRecord, fit
from bnfit.harness import forward_sample
from bnfit.model import ParameterVector, ValidationError, uniform_init
from bnfit.netio import (
    MISSING,
    DataCase,
    DataSet,
    format_dataset,
    format_online_trace,
    format_trace,
    load_dataset,
    parse_network,
    serialize_network,
)
from bnfit.networks import chain3, tree8
from bnfit.online import LearningRateSchedule, OnlineTraceRecord, run_stream

from util import dataset_from_cases, random_network

TWO_NODE = """
{
  "name": "two",
  "variables": [
    {"name": "A", "states": ["a0", "a1"]},
    {"name": "B", "states": ["b0", "b1", "b2"]}
  ],
  "parents": {"B": ["A"]},
  "cpt": {
    "A": [[0.3, 0.7]],
    "B": [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]
  }
}
"""


class TestParseNetwork:
    def test_two_node_roundtrip(self):
        net = parse_network(TWO_NODE)
        assert [v.name for v in net.structure.variables] == ["A", "B"]
        assert net.structure.parents[1] == (0,)
        again = parse_network(serialize_network(net))
        assert again.structure == net.structure
        for a, b in zip(again.theta.tables, net.theta.tables):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_cycle_rejected(self):
        text = TWO_NODE.replace('"parents": {"B": ["A"]}', '"parents": {"B": ["A"], "A": ["B"]}')
        with pytest.raises(ValidationError, match="cycle"):
            parse_network(text)

    def test_bad_row_sum_rejected(self):
        text = TWO_NODE.replace("[0.3, 0.7]", "[0.5, 0.6]")
        with pytest.raises(ValidationError, match="sums to"):
            parse_network(text)

    def test_near_one_row_renormalized(self):
        text = TWO_NODE.replace("[0.3, 0.7]", "[0.3000001, 0.7]")
        net = parse_network(text)
        assert net.theta.tables[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_parent_rejected(self):
        text = TWO_NODE.replace('"B": ["A"]', '"B": ["Z"]')
        with pytest.raises(ValidationError, match="unknown parent"):
            parse_network(text)

    def test_wrong_row_length_rejected(self):
        text = TWO_NODE.replace("[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]", "[0.5, 0.5], [0.5, 0.5]")
        with pytest.raises(ValidationError):
            parse_network(text)

    def test_duplicate_variable_rejected(self):
        text = TWO_NODE.replace('{"name": "B", "states": ["b0", "b1", "b2"]}',
                                '{"name": "A", "states": ["b0", "b1", "b2"]}')
        with pytest.raises(ValidationError, match="duplicate"):
            parse_network(text)

    def test_missing_cpt_rejected(self):
        text = TWO_NODE.replace('"A": [[0.3, 0.7]],', "")
        with pytest.raises(ValidationError, match="missing CPT"):
            parse_network(text)


class TestSerializeNetwork:
    def test_uniform_rows_print_plainly(self):
        net = chain3().with_theta(uniform_init(chain3().structure))
        text = serialize_network(net)
        assert "[0.5, 0.5]" in text

    def test_random_nets_roundtrip_within_1e15(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = random_network(rng, 6)
            again = parse_network(serialize_network(net))
            assert again.structure == net.structure
            for a, b in zip(again.theta.tables, net.theta.tables):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)

    def test_fit_can_start_from_serialized_output(self):
        """End-to-end: a learned net written to text is a usable init."""
        net = chain3()
        data = forward_sample(net, 100, seed=0)
        result = fit(net, data, FitConfig("em", 1.0, 3, tol_ll=1e-12, init="random", seed=1))
        text = serialize_network(net.with_theta(result.theta))
        reloaded = parse_network(text)
        cfg = FitConfig("em", 1.0, 3, tol_ll=1e-12, init="network")
        result2 = fit(reloaded, data, cfg)
        assert result2.trace[0].train_ll == pytest.approx(result.trace[-1].train_ll, abs=1e-12)


class TestLoadDataset:
    def test_missing_token(self):
        net = parse_network(TWO_NODE)
        ds = load_dataset("A,B\na1,?\n", net.structure)
        assert len(ds) == 1
        assert ds.values[0, 0] == 1
        assert ds.values[0, 1] == MISSING

    def test_unknown_state_rejected(self):
        net = parse_network(TWO_NODE)
        with pytest.raises(ValidationError, match="unknown state"):
            load_dataset("A,B\na1,b9\n", net.structure)

    def test_unknown_header_variable_rejected(self):
        net = parse_network(TWO_NODE)
        with pytest.raises(ValidationError, match="unknown variable"):
            load_dataset("A,Z\na1,b0\n", net.structure)

    def test_ragged_row_rejected(self):
        net = parse_network(TWO_NODE)
        with pytest.raises(ValidationError, match="cells"):
            load_dataset("A,B\na1\n", net.structure)

    def test_empty_cell_rejected(self):
        net = parse_network(TWO_NODE)
        with pytest.raises(ValidationError, match="empty cell"):
            load_dataset("A,B\na1,\n", net.structure)

    def test_utf8_bom_before_header_accepted(self):
        net = parse_network(TWO_NODE)
        ds = load_dataset("\ufeffA,B\na1,b2\n", net.structure)
        assert ds.values.tolist() == [[1, 2]]

    def test_trailing_blank_lines_accepted(self):
        net = parse_network(TWO_NODE)
        for text in ("A,B\na1,b2\n\n", "A,B\na1,b2\n\n\n", "A,B\r\na1,b2\r\n\r\n"):
            ds = load_dataset(text, net.structure)
            assert ds.values.tolist() == [[1, 2]]

    def test_blank_line_between_rows_rejected(self):
        net = parse_network(TWO_NODE)
        with pytest.raises(ValidationError, match="row 2"):
            load_dataset("A,B\na1,b2\n\na0,b0\n", net.structure)

    def test_header_permutation_and_subset(self):
        net = parse_network(TWO_NODE)
        ds = load_dataset("B,A\nb2,a0\n", net.structure)
        assert ds.values[0, 0] == 0 and ds.values[0, 1] == 2
        ds2 = load_dataset("B\nb1\n", net.structure)
        assert ds2.values[0, 0] == MISSING and ds2.values[0, 1] == 1

    def test_no_rows_silently_dropped(self):
        net = tree8()
        data = forward_sample(net, 2000, seed=5)
        text = format_dataset(data)
        ds = load_dataset(text, net.structure)
        assert len(ds) == 2000

    def test_write_load_roundtrip(self):
        net = tree8()
        data = forward_sample(net, 200, seed=6)
        ds = load_dataset(format_dataset(data), net.structure)
        np.testing.assert_array_equal(ds.values, data.values)

    def test_roundtrip_with_missing_values(self):
        net = parse_network(TWO_NODE)
        cases = load_dataset("A,B\n?,b1\na0,?\n?,?\n", net.structure).cases()
        ds = dataset_from_cases(net.structure, cases)
        again = load_dataset(format_dataset(ds), net.structure)
        np.testing.assert_array_equal(again.values, ds.values)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        n_rows=st.integers(0, 30),
        p_missing=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_network_and_dataset_round_trip(self, seed, n_vars, n_rows, p_missing):
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars, arities=(2, 3, 5))
        text = serialize_network(net)
        again = parse_network(text)
        assert again.structure == net.structure
        for a, b in zip(again.theta.tables, net.theta.tables):
            np.testing.assert_array_equal(a, b)
        assert serialize_network(again) == text

        s = net.structure
        values = np.stack([rng.integers(0, s.arity(i), n_rows) for i in range(n_vars)], axis=1)
        values[rng.random(values.shape) < p_missing] = MISSING
        data = DataSet(s, values)
        csv = format_dataset(data)
        loaded = load_dataset(csv, s)
        np.testing.assert_array_equal(loaded.values, data.values)
        assert format_dataset(loaded) == csv


class TestTraceFormat:
    def test_empty_records_header_only(self):
        assert format_trace([]) == "iter,train_ll,test_ll,max_param_delta,l2_step,wall_ms\n"

    def test_fit_trace_iterations_increase_from_zero(self):
        net = chain3()
        data = forward_sample(net, 50, seed=1)
        result = fit(net, data, FitConfig("em", 1.0, 5, tol_ll=1e-12, init="uniform"))
        lines = format_trace(result.trace).strip().splitlines()[1:]
        iters = [int(line.split(",")[0]) for line in lines]
        assert iters == list(range(len(iters)))

    def test_empty_test_ll_column(self):
        rec = TraceRecord(0, -1.5, None, 0.0, 0.0, 1.0)
        line = format_trace([rec]).splitlines()[1]
        assert line.split(",")[2] == ""

    def test_online_trace_of_a_skipped_first_case(self):
        """A skipped case has an empty case_ll and skipped 1."""
        net = chain3()
        impossible_a0 = [np.array([[0.0, 1.0]])] + list(net.theta.tables[1:])
        net = net.with_theta(ParameterVector(impossible_a0))
        result = run_stream(net, [DataCase(np.array([0, MISSING, 1]))], "em",
                            LearningRateSchedule.fixed(0.5))
        records = result.trace + (OnlineTraceRecord(1, -0.5, 0.25, False),)
        assert format_online_trace(records) == "t,case_ll,step_l2,skipped\n0,,0,1\n1,-0.5,0.25,0\n"
