"""The full experimental protocol, end to end.

Samples train/test data from a true network, hides some variables,
obscures the rest at a fixed rate, fits several (rule, eta) arms from
one shared random initialization, and scores each arm by held-out
likelihood and by query error on output variables.  Everything lands in
an artifact directory: datasets, per-arm traces, learned networks, and a
summary JSON.  The demo writes it to a temporary directory that is
removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path

from bnfit import ExperimentArm, ExperimentConfig, run_experiment

config = ExperimentConfig(
    network="builtin:twolayer15",
    n_train=400,
    n_test=200,
    hidden=("V0", "V2", "V4"),
    obscure_prob=0.2,
    seed=5,
    arms=(
        ExperimentArm("em", 1.0),
        ExperimentArm("em", 1.8),
        ExperimentArm("gp", 0.2),
    ),
    targets=("V7", "V13"),
    init="random",
    init_seed=17,
    max_iters=150,
    tol_ll=1e-6,
    warm_start_em1=True,
)

with tempfile.TemporaryDirectory(prefix="bnfit_experiment_") as tmp:
    out_dir = Path(tmp)
    summary = run_experiment(config, str(out_dir))

    print(f"artifacts in {out_dir}:")
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            print("  ", path.relative_to(out_dir))

    print("\narm results:")
    for arm in summary["arms"]:
        errors = arm["errors"]["overall"]
        print(
            f"  {arm['rule']}({arm['eta']:g}): {arm['iterations']:3d} iterations "
            f"({arm['termination']}), test LL {arm['final_test_ll']:.5f}, "
            f"mean query error {errors['mean_abs']:.4f}"
        )

    with open(out_dir / "summary.json") as f:
        doc = json.load(f)
    print("\ntrain file hash:", doc["train_sha256"][:16], "...")
