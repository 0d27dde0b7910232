"""Model types: parent-configuration encoding, initializers and validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnfit.model import (
    Network,
    NetworkStructure,
    ParameterVector,
    ValidationError,
    Variable,
    ZeroProbabilityError,
    check_number,
    clamp_rows,
    parent_config_index,
    parent_rows,
    random_init,
    uniform_init,
)

from util import decode_parent_config, random_structure


def two_parent_structure():
    a = Variable(0, "A", ("a0", "a1"))
    b = Variable(1, "B", ("b0", "b1", "b2"))
    c = Variable(2, "C", ("c0", "c1"))
    return NetworkStructure((a, b, c), ((), (), (0, 1)))


class TestParentConfigIndex:
    def test_first_config(self):
        s = two_parent_structure()
        assert parent_config_index(s, 2, {0: 0, 1: 0}) == 0

    def test_last_config(self):
        s = two_parent_structure()
        assert parent_config_index(s, 2, {0: 1, 1: 2}) == 5

    def test_lexicographic_order_matches_enumeration(self):
        """First parent most significant; verified against an explicit
        enumeration of all six configurations."""
        s = two_parent_structure()
        expected = list(itertools.product(range(2), range(3)))
        for j, (sa, sb) in enumerate(expected):
            assert parent_config_index(s, 2, {0: sa, 1: sb}) == j
        assert parent_config_index(s, 2, {0: 0, 1: 2}) == 2

    def test_roundtrip_exhaustive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_structure(rng, 8, max_parents=4)
            for i in range(s.n_vars):
                q = s.parent_config_count(i)
                assert q <= 1024
                for j in range(q):
                    assignment = decode_parent_config(s, i, j)
                    assert parent_config_index(s, i, assignment) == j

    def test_wrong_assignment_rejected(self):
        s = two_parent_structure()
        with pytest.raises(ValidationError):
            parent_config_index(s, 2, {0: 0})
        with pytest.raises(ValidationError):
            parent_config_index(s, 2, {0: 0, 1: 5})
        with pytest.raises(ValidationError):
            decode_parent_config(s, 2, 6)


class TestParentRows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 8),
        n_cases=st.integers(0, 20),
    )
    def test_matches_parent_config_index(self, seed, n_vars, n_cases):
        """On single cases and case matrices, parent_rows is
        parent_config_index of each row, and decode_parent_config inverts it."""
        rng = np.random.default_rng(seed)
        s = random_structure(rng, n_vars, max_parents=4, arities=(2, 3, 5))
        arities = [v.arity for v in s.variables]
        values = rng.integers(0, arities, size=(n_cases, n_vars))
        for i in range(n_vars):
            rows = parent_rows(s, i, values)
            assert rows.shape == (n_cases,)
            if not s.parents[i]:
                assert not rows.any()
            for case, j in zip(values, rows):
                assert parent_rows(s, i, case) == j
                assignment = {p: int(case[p]) for p in s.parents[i]}
                assert parent_config_index(s, i, assignment) == j
                assert decode_parent_config(s, i, int(j)) == assignment


class TestCheckSeed:
    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2**40])
    def test_nonnegative_integers_pass(self, seed):
        check_number(seed, "seed", integer=True, low=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_others_rejected_by_name(self, seed):
        with pytest.raises(ValidationError, match="init_seed must be (a nonnegative|an) integer"):
            check_number(seed, "init_seed", integer=True, low=0)

    def test_random_init_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            random_init(two_parent_structure(), -1)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, -3, np.int64(2), 2**70])
    def test_integers_pass_as_counts(self, value):
        check_number(value, "n", integer=True)

    @pytest.mark.parametrize("value", [0, -1.5, np.float32(0.25)])
    def test_numbers_pass_as_reals(self, value):
        """Without bounds any finite real passes."""
        check_number(value, "x")

    @pytest.mark.parametrize("value", [2.5, 10.0, True, "3", None])
    def test_non_integer_count_rejected(self, value):
        with pytest.raises(ValidationError, match=f"n_train must be an integer, got {value!r}"):
            check_number(value, "n_train", integer=True)

    @pytest.mark.parametrize("value", [True, False, "0.2", None, [1.0]])
    def test_non_number_real_rejected(self, value):
        with pytest.raises(ValidationError, match=r"eta must be a number, got "):
            check_number(value, "eta")


class TestZeroProbabilityError:
    def test_of_row_names_the_row(self):
        e = ZeroProbabilityError.of_row(4)
        assert str(e) == "case 4 has probability 0 under the current parameters"
        assert e.case_index == 4
        e = ZeroProbabilityError.of_row(2, "test set")
        assert str(e) == "test set case 2 has probability 0 under the current parameters"
        assert e.case_index == 2


class TestStructureValidation:
    def test_arity_below_two_rejected(self):
        with pytest.raises(ValidationError):
            Variable(0, "A", ("only",))

    def test_duplicate_state_names_rejected(self):
        with pytest.raises(ValidationError):
            Variable(0, "A", ("x", "x"))

    def test_cycle_rejected(self):
        a = Variable(0, "A", ("s0", "s1"))
        b = Variable(1, "B", ("s0", "s1"))
        with pytest.raises(ValidationError):
            NetworkStructure((a, b), ((1,), (0,)))

    def test_self_parent_rejected(self):
        a = Variable(0, "A", ("s0", "s1"))
        with pytest.raises(ValidationError):
            NetworkStructure((a,), ((0,),))

    def test_duplicate_parent_rejected(self):
        a = Variable(0, "A", ("s0", "s1"))
        b = Variable(1, "B", ("s0", "s1"))
        with pytest.raises(ValidationError):
            NetworkStructure((a, b), ((), (0, 0)))

    def test_topo_order_consistent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_structure(rng, 10)
            pos = {v: idx for idx, v in enumerate(s.topo_order)}
            for child in range(s.n_vars):
                for p in s.parents[child]:
                    assert pos[p] < pos[child]


class TestUniformInit:
    def test_binary_row(self):
        s = two_parent_structure()
        theta = uniform_init(s)
        np.testing.assert_array_equal(theta.tables[0], [[0.5, 0.5]])

    def test_three_state_row(self):
        s = two_parent_structure()
        theta = uniform_init(s)
        np.testing.assert_allclose(theta.tables[1], [[1 / 3, 1 / 3, 1 / 3]], rtol=0)

    def test_row_sums_all_arities(self):
        """Row sums are exact up to one rounding of the final addition."""
        for r in range(2, 65):
            v = Variable(0, "A", tuple(f"s{k}" for k in range(r)))
            s = NetworkStructure((v,), ((),))
            row = uniform_init(s).tables[0][0]
            assert abs(row.sum() - 1.0) <= 2 * np.finfo(float).eps


class TestRandomInit:
    def test_same_seed_identical(self):
        rng = np.random.default_rng(2)
        s = random_structure(rng, 6)
        a = random_init(s, 123)
        b = random_init(s, 123)
        assert a == b

    def test_different_seed_differs(self):
        rng = np.random.default_rng(2)
        s = random_structure(rng, 6)
        assert random_init(s, 1) != random_init(s, 2)

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        s = random_structure(rng, 6)
        theta = random_init(s, 9)
        for t in theta.tables:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)

    def test_flat_dirichlet_mean(self):
        """Entry of a 2-state row averages 0.5 over many seeds."""
        v = Variable(0, "A", ("s0", "s1"))
        s = NetworkStructure((v,), ((),))
        draws = [random_init(s, seed).tables[0][0, 0] for seed in range(10000)]
        assert abs(np.mean(draws) - 0.5) < 0.02


class TestParameterVector:
    def test_row_sum_enforced(self):
        with pytest.raises(ValidationError):
            ParameterVector([np.array([[0.5, 0.6]])])

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValidationError):
            ParameterVector([np.array([[1.2, -0.2]])])

    def test_immutable(self):
        theta = ParameterVector([np.array([[0.5, 0.5]])])
        with pytest.raises(ValueError):
            theta.tables[0][0, 0] = 0.9

    def test_shape_check_against_structure(self):
        s = two_parent_structure()
        bad = ParameterVector([np.full((1, 2), 0.5), np.full((1, 3), 1 / 3), np.full((3, 2), 0.5)])
        with pytest.raises(ValidationError):
            Network(s, bad)

    def test_arity_cap(self):
        with pytest.raises(ValidationError):
            Variable(0, "A", tuple(f"s{k}" for k in range(65)))


class TestClampRows:
    def test_saturated_row(self):
        out = clamp_rows(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0 - 1e-9, 1e-9]], rtol=1e-6)

    def test_negative_entries_floored(self):
        out = clamp_rows(np.array([[1.3, -0.3]]))
        assert out[0, 1] >= 1e-10
        assert out[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_interior_row_nearly_unchanged(self):
        row = np.array([[0.25, 0.75]])
        np.testing.assert_allclose(clamp_rows(row), row, atol=1e-15)
