"""Data and networks must share one structure: every entry point that reads
a dataset against a network, or compares two networks, refuses a mismatch
with a ValidationError naming both sides."""

import numpy as np
import pytest

from bnfit.cli import main
from bnfit.estimation import FitConfig, expected_stats, fit
from bnfit.harness import EvalSpec, evaluate_queries, forward_sample, query_error, sample_obscured
from bnfit.model import Network, NetworkStructure, ValidationError, Variable
from bnfit.netio import DataCase, write_dataset, write_network
from bnfit.networks import chain3, tree8, twolayer15
from bnfit.online import LearningRateSchedule, run_stream
from bnfit.spectral import jacobian, phi_apply

from util import alt_chain3

MISMATCH = "have different structures"


@pytest.fixture(scope="module")
def chain3_data():
    return forward_sample(chain3(), 200, seed=1)


@pytest.fixture(scope="module")
def alt_data():
    return forward_sample(alt_chain3(), 200, seed=1)


class TestFit:
    def test_data_of_another_structure(self, alt_data):
        """Unchecked, the fit failed with "case 0 has probability 0"."""
        with pytest.raises(ValidationError, match=f"the data and the network {MISMATCH}"):
            fit(chain3(), alt_data, FitConfig())

    def test_network_of_another_structure(self, chain3_data):
        """Unchecked, the fit ran, reading A's states against a 3-state table."""
        with pytest.raises(ValidationError, match=f"the data and the network {MISMATCH}"):
            fit(alt_chain3(), chain3_data, FitConfig())

    def test_network_of_another_size(self, chain3_data):
        """Unchecked, the fit failed with an IndexError."""
        with pytest.raises(ValidationError, match=f"the data and the network {MISMATCH}"):
            fit(twolayer15(), chain3_data, FitConfig())

    def test_test_set_of_another_structure(self, chain3_data, alt_data):
        with pytest.raises(ValidationError, match=f"the test set and the network {MISMATCH}"):
            fit(chain3(), chain3_data, FitConfig(), test=alt_data)

    def test_equal_structures_of_distinct_objects_agree(self, chain3_data):
        """Two chain3() calls build equal structures, not one object."""
        net = chain3()
        assert net.structure is not chain3_data.structure
        fit(net, chain3_data, FitConfig(max_iters=2))


class TestEStepCallers:
    def test_expected_stats(self, alt_data):
        with pytest.raises(ValidationError, match=MISMATCH):
            expected_stats(chain3(), alt_data)

    def test_phi_apply(self, alt_data):
        with pytest.raises(ValidationError, match=MISMATCH):
            phi_apply(chain3(), alt_data, 1.0)

    def test_jacobian(self, alt_data):
        with pytest.raises(ValidationError, match=MISMATCH):
            jacobian(chain3(), alt_data)


def test_run_stream_data_of_another_structure(alt_data):
    """Unchecked, the stream skipped many of the cases as impossible."""
    with pytest.raises(ValidationError, match=f"the stream and the network {MISMATCH}"):
        run_stream(chain3(), alt_data, "em", LearningRateSchedule.fixed(0.1))


class TestEvaluation:
    def test_learned_network_of_another_structure(self):
        data = sample_obscured(chain3(), 20, ("M",), 0.0, 2)
        with pytest.raises(ValidationError,
                           match=f"the learned network and the true network {MISMATCH}"):
            evaluate_queries(alt_chain3(), chain3(), data, EvalSpec(("M",)))

    def test_data_of_another_structure(self):
        data = sample_obscured(alt_chain3(), 20, ("M",), 0.0, 2)
        with pytest.raises(ValidationError, match=f"the data and the true network {MISMATCH}"):
            evaluate_queries(chain3(), chain3(), data, EvalSpec(("M",)))

    def test_query_error(self):
        case = DataCase(np.array([0, -1, 1]))
        with pytest.raises(ValidationError,
                           match=f"the learned network and the true network {MISMATCH}"):
            query_error(alt_chain3(), chain3(), case, "M")


class TestCliEval:
    """`bnfit eval` refuses a learned network of another structure with exit 2
    and writes no --out."""

    @pytest.mark.parametrize("learned, truth, target", [
        # unchecked: exit 3, "numerical failure: ... probability 0"
        (tree8(), twolayer15(), "V5"),
        # unchecked: exit 0 and an error report
        (alt_chain3(), chain3(), "M"),
    ], ids=["tree8-twolayer15", "alt-chain3"])
    def test_exit_2_writes_nothing(self, tmp_path, capsys, learned, truth, target):
        paths = {k: tmp_path / f"{k}.json" for k in ("learned", "truth")}
        write_network(learned, str(paths["learned"]))
        write_network(truth, str(paths["truth"]))
        data = tmp_path / "data.csv"
        write_dataset(sample_obscured(truth, 20, (target,), 0.0, 1), str(data))
        out = tmp_path / "errors.json"
        code = main(["eval", "--learned", str(paths["learned"]), "--truth", str(paths["truth"]),
                     "--data", str(data), "--targets", target, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: the learned network and the true network")
        assert not out.exists()


def chain3_variant(kind):
    """chain3's tables on another structure of the same table shapes: B's
    parent is A instead of M, or B is renamed."""
    net = chain3()
    variables, parents = net.structure.variables, net.structure.parents
    if kind == "reparented":
        parents = (*parents[:2], (0,))
    else:
        variables = (*variables[:2], Variable(2, "B2", variables[2].states))
    return Network(NetworkStructure(variables, parents), net.theta)


class TestCliNetworkFiles:
    """`bnfit fit --init file:PATH` and `bnfit spectral --theta PATH` refuse a
    network file of another structure with exit 2 and write no --out, even
    when its tables have the --network file's shapes."""

    @pytest.mark.parametrize("kind", ["reparented", "renamed"])
    @pytest.mark.parametrize("command, flag", [
        # unchecked: exit 0, a fit from the other network's tables
        ("fit", "--init"),
        # unchecked: exit 3, the point is not a fixpoint
        ("spectral", "--theta"),
    ], ids=["fit", "spectral"])
    def test_exit_2_writes_nothing(self, tmp_path, capsys, command, flag, kind):
        network, other = tmp_path / "chain3.json", tmp_path / "other.json"
        write_network(chain3(), str(network))
        write_network(chain3_variant(kind), str(other))
        data = tmp_path / "data.csv"
        write_dataset(forward_sample(chain3(), 40, seed=1), str(data))
        out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
        argv = [command, "--network", str(network), "--data", str(data), "--out", str(out)]
        if command == "fit":
            argv += ["--init", f"file:{other}", "--trace", str(trace)]
        else:
            argv += ["--theta", str(other)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: the {flag} file and the network {MISMATCH}")
        assert not out.exists() and not trace.exists()
