"""Command-line interface.

Subcommands: sample, fit, online, spectral, eval, experiment.
Exit codes: 0 success, 2 input/validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .estimation import RULES, FitConfig, fit
from .harness import EvalSpec, ExperimentConfig, evaluate_queries, run_experiment, sample_obscured
from .model import NumericalError, ValidationError, check_same_structure
from .netio import (
    read_dataset,
    read_network,
    write_dataset,
    write_network,
    write_online_trace,
    write_text,
    write_trace,
)
from .online import LearningRateSchedule, run_stream
from .spectral import build_report, report_to_json


def _names(csv: str) -> tuple[str, ...]:
    return tuple(x for x in csv.split(",") if x) if csv else ()


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{what} must be a number, got {text!r}") from None


def _parse_schedule(text: str) -> LearningRateSchedule:
    if text.startswith("fixed:"):
        return LearningRateSchedule.fixed(_number(text.split(":", 1)[1], "the fixed rate"))
    if text.startswith("inv_t:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise ValidationError("inv_t schedule needs two parameters: inv_t:C,T0")
        return LearningRateSchedule.inverse_t(*(_number(p, "an inv_t parameter") for p in parts))
    if text == "per_row":
        return LearningRateSchedule.per_row_count()
    raise ValidationError(
        f"unknown schedule {text!r}; expected fixed:ETA, inv_t:C,T0 or per_row"
    )


def _cmd_sample(args) -> int:
    network = read_network(args.network)
    data = sample_obscured(network, args.n, _names(args.hidden), args.obscure, args.seed)
    write_dataset(data, args.out)
    return 0


def _cmd_fit(args) -> int:
    network = read_network(args.network)
    data = read_dataset(args.data, network.structure)
    test = read_dataset(args.test, network.structure) if args.test else None
    init = args.init
    if init.startswith("file:"):
        network, init = read_network(init.split(":", 1)[1]), "network"
        check_same_structure(network.structure, data.structure, "the --init file", "the network")
    config = FitConfig(
        rule=args.rule,
        eta=args.eta,
        max_iters=args.max_iters,
        tol_ll=args.tol_ll,
        init=init,
        seed=args.seed,
        warm_start_em1=args.warm_start_em1,
    )
    result = fit(network, data, config, test)
    if args.trace:
        write_trace(result.trace, args.trace)
    write_network(network.with_theta(result.theta), args.out, name="fitted")
    print(
        f"{result.termination} after {result.iterations} iterations, "
        f"train_ll={result.trace[-1].train_ll:.6f}"
    )
    return 0


def _cmd_online(args) -> int:
    network = read_network(args.network)
    stream = read_dataset(args.stream, network.structure)
    schedule = _parse_schedule(args.schedule)
    result = run_stream(network, stream, args.rule, schedule)
    if args.trace:
        write_online_trace(result.trace, args.trace)
    write_network(result.state.network, args.out, name="adapted")
    print(f"processed {len(result.trace)} cases, skipped {result.n_skipped}")
    return 0


def _cmd_spectral(args) -> int:
    network = read_network(args.network)
    point = read_network(args.theta)
    check_same_structure(point.structure, network.structure, "the --theta file", "the network")
    data = read_dataset(args.data, network.structure)
    etas = [_number(x, "an --etas entry") for x in args.etas.split(",") if x]
    report = build_report(point, data, etas)
    write_text(args.out, report_to_json(report))
    print(
        f"lambda=[{report.lambda_min:.6f}, {report.lambda_max:.6f}], "
        f"eta_star={report.eta_star:.6f}"
    )
    return 0


def _cmd_eval(args) -> int:
    learned = read_network(args.learned)
    truth = read_network(args.truth)
    data = read_dataset(args.data, truth.structure)
    spec = EvalSpec(_names(args.targets))
    result = evaluate_queries(learned, truth, data, spec)
    write_text(args.out, json.dumps(result, indent=2) + "\n")
    overall = result["overall"]
    print(f"mean_abs={overall['mean_abs']}, mean_rel={overall['mean_rel']}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        config = ExperimentConfig.from_json(f.read())
    summary = run_experiment(config, args.out_dir)
    for arm in summary["arms"]:
        print(
            f"{arm['rule']}({arm['eta']:g}): {arm['iterations']} iterations "
            f"({arm['termination']}), train_ll={arm['final_train_ll']:.6f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bnfit",
        description="Parameter estimation for discrete Bayesian networks "
        "with missing data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw obscured cases from a network")
    p.add_argument("--network", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hidden", default="")
    p.add_argument("--obscure", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="batch parameter estimation")
    p.add_argument("--network", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--test")
    p.add_argument("--rule", choices=RULES, default="em")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--tol-ll", type=float, default=1e-6)
    p.add_argument("--init", default="random", help="random|uniform|network|file:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warm-start-em1", type=_bool, default=False)
    p.add_argument("--trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("online", help="one-sample adaptation over a stream")
    p.add_argument("--network", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--rule", choices=RULES, default="em")
    p.add_argument("--schedule", default="fixed:0.1")
    p.add_argument("--trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_online)

    p = sub.add_parser("spectral", help="learning-rate spectrum at a fixpoint")
    p.add_argument("--network", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--etas", default="0.5,1.0,1.5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("eval", help="query error of a learned network")
    p.add_argument("--learned", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--targets", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a multi-arm experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
