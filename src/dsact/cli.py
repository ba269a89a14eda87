"""Command-line entry points: train, eval, bias, ablate.

Exit codes: 0 on success, 2 on configuration errors, 3 on numerical
failures during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .config import ConfigError, RunConfig, load_config
from .harness import STUDIES, evaluate, measure_bias, run_ablation, train
from .numerics import NumericalError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dsact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--config", required=True, help="JSON config file")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="override the output directory")

    p_eval = sub.add_parser("eval", help="evaluate a stored policy")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument("--stochastic", action="store_true", help="sample instead of tanh(mu)")
    p_eval.add_argument("--seed", type=int, default=0)

    p_bias = sub.add_parser("bias", help="measure critic bias against Monte-Carlo truth")
    p_bias.add_argument("--checkpoint", required=True)
    p_bias.add_argument("--samples", type=int, default=20)
    p_bias.add_argument("--rollouts", type=int, default=100)
    p_bias.add_argument("--seed", type=int, default=0)

    p_abl = sub.add_parser("ablate", help="run a comparison study")
    p_abl.add_argument("--study", required=True, choices=STUDIES)
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--seeds", type=int, nargs="*", default=None)
    p_abl.add_argument("--out", default=None)
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "out", None):
        updates["out_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates).validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "train":
            summary = train(_load(args))
            print(json.dumps({k: summary[k] for k in ("final_return", "env_steps", "runtime_s")}))
        elif args.command == "eval":
            mean, std = evaluate(
                args.checkpoint,
                episodes=args.episodes,
                deterministic=not args.stochastic,
                seed=args.seed,
            )
            print(json.dumps({"avg_return": mean, "return_std": std, "episodes": args.episodes}))
        elif args.command == "bias":
            report = measure_bias(
                args.checkpoint,
                n_samples=args.samples,
                n_rollouts=args.rollouts,
                seed=args.seed,
            )
            print(json.dumps(report.to_jsonable()))
        elif args.command == "ablate":
            report = run_ablation(args.study, _load(args), seeds=args.seeds, out_dir=args.out)
            print(json.dumps({arm: info["mean_final_return"] for arm, info in report["arms"].items()}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
