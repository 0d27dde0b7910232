"""Every numeric setting, at every entry point, is refused with a
ValidationError naming it: one row per (entry point, setting, interval).

A new setting is one more row of ROWS."""

import json
import math
import re

import numpy as np
import pytest

from bnfit.estimation import FitConfig
from bnfit.harness import ExperimentArm, ExperimentConfig, MissingnessSpec, forward_sample
from bnfit.model import (
    Network, NetworkStructure, ParameterVector, ValidationError, Variable, random_init
)
from bnfit.netio import DataSet
from bnfit.networks import chain3
from bnfit.online import ETA_MAX, LearningRateSchedule
from bnfit.spectral import build_report, contraction_rate, eta_star, jacobian

NET = chain3()
DATA = forward_sample(NET, 20, seed=1)
TINY = 5e-324  # the smallest positive float
# one variable at its maximum-likelihood point, so that a report runs through
ROOT = Network(NetworkStructure((Variable(0, "A", ("a0", "a1")),), ((),)),
               ParameterVector([np.array([[0.25, 0.75]])]))
ROOT_DATA = DataSet(ROOT.structure, np.array([[1], [0], [1], [1]]))

# Refused by every setting: the wrong kinds, then the values a real may not
# take.  A count has no upper bound, so 10**400 is a valid count and a float
# count is refused in its place.
BAD_KINDS = (True, "1", None)
BAD_REALS = (math.nan, math.inf, -math.inf, 10**400)
BAD_COUNTS = (math.nan, math.inf, -math.inf, 1.0)

# Each interval's edges and the values just outside it, with whether each is accepted.
NONNEGATIVE = ((0.0, True), (-TINY, False))
POSITIVE = ((0.0, False), (-TINY, False))
UNIT = ((0.0, True), (1.0, True), (-TINY, False), (math.nextafter(1.0, 2.0), False))
RATE = ((0.0, False), (ETA_MAX, True), (math.nextafter(ETA_MAX, 3.0), False))
# a disabled stopping tolerance is None
TOLERANCE = NONNEGATIVE + ((None, True),)
COUNT = ((0, True), (-1, False))
POSITIVE_COUNT = ((0, False), (1, True))


def _experiment(**fields):
    doc = {"network": "builtin:chain3", "n_train": 10, "n_test": 0, "hidden": (),
           "obscure_prob": 0.0, "seed": 1, "arms": (ExperimentArm("em", 1.0),)}
    return ExperimentConfig(**{**doc, **fields})


def _arm_eta(value):
    """An arm's eta as a config document gives it: NaN, Infinity and 10**400 parse."""
    doc = {"network": "builtin:chain3", "n_train": 10, "seed": 1,
           "arms": [{"rule": "em", "eta": value}]}
    return ExperimentConfig.from_json(json.dumps(doc))


# (entry point, the setting's name in the message, a call with the setting at v, interval)
ROWS = (
    ("FitConfig", "eta", lambda v: FitConfig(eta=v), NONNEGATIVE),
    ("FitConfig", "max_iters", lambda v: FitConfig(max_iters=v), COUNT),
    ("FitConfig", "tol_ll", lambda v: FitConfig(tol_ll=v, tol_param=1e-6), TOLERANCE),
    ("FitConfig", "tol_param", lambda v: FitConfig(tol_param=v), TOLERANCE),
    ("FitConfig", "seed", lambda v: FitConfig(seed=v), COUNT),
    ("MissingnessSpec", "obscure_prob", lambda v: MissingnessSpec((), v, 0), UNIT),
    ("MissingnessSpec", "seed", lambda v: MissingnessSpec((), 0.5, v), COUNT),
    ("forward_sample", "the number of cases", lambda v: forward_sample(NET, v, 0), COUNT),
    ("forward_sample", "seed", lambda v: forward_sample(NET, 5, v), COUNT),
    ("random_init", "seed", lambda v: random_init(NET.structure, v), COUNT),
    ("ExperimentConfig", "n_train", lambda v: _experiment(n_train=v), POSITIVE_COUNT),
    ("ExperimentConfig", "n_test", lambda v: _experiment(n_test=v), COUNT),
    ("ExperimentConfig", "seed", lambda v: _experiment(seed=v), COUNT),
    ("ExperimentConfig", "init_seed", lambda v: _experiment(init_seed=v), COUNT),
    ("ExperimentConfig.from_json", "eta", _arm_eta, NONNEGATIVE),
    ("LearningRateSchedule.fixed", "the fixed rate", LearningRateSchedule.fixed, RATE),
    ("LearningRateSchedule.inverse_t", "inverse_t c",
     lambda v: LearningRateSchedule.inverse_t(v, 0.0), POSITIVE),
    ("LearningRateSchedule.inverse_t", "inverse_t t0",
     lambda v: LearningRateSchedule.inverse_t(1.0, v), NONNEGATIVE),
    ("build_report", "eta", lambda v: build_report(NET, DATA, [1.0, v]), POSITIVE),
    ("build_report", "empirical rate",
     lambda v: build_report(ROOT, ROOT_DATA, [1.0], {1.0: v}), NONNEGATIVE),
    ("contraction_rate", "eta", lambda v: contraction_rate(v, 0.5, 1.0), POSITIVE),
    ("contraction_rate", "lambda_min", lambda v: contraction_rate(1.0, v, 1.0), POSITIVE),
    ("contraction_rate", "lambda_max", lambda v: contraction_rate(1.0, 0.5, v), POSITIVE),
    ("eta_star", "lambda_min", lambda v: eta_star(v, 1.0), POSITIVE),
    ("eta_star", "lambda_max", lambda v: eta_star(0.5, v), POSITIVE),
    ("jacobian", "h", lambda v: jacobian(NET, DATA, h=v), POSITIVE),
)


def _label(value) -> str:
    return "10**400" if value == 10**400 else repr(value)


def _cases():
    for entry, name, call, interval in ROWS:
        counts = interval in (COUNT, POSITIVE_COUNT)
        bad = [v for v in BAD_KINDS + (BAD_COUNTS if counts else BAD_REALS)
               if all(v is not edge for edge, _ in interval)]
        for value, accepted in [(v, False) for v in bad] + list(interval):
            yield pytest.param(name, call, value, accepted, id=f"{entry}-{name}-{_label(value)}")


@pytest.mark.parametrize("name, call, value, accepted", _cases())
def test_numeric_setting(name, call, value, accepted):
    if accepted:
        call(value)
    else:
        # the name starts the message or follows a prefix such as "arm 0 "
        with pytest.raises(ValidationError, match=rf"(^|\W){re.escape(name)} must be "):
            call(value)
