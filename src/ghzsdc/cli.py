"""Command-line entry point: sweep, train, purify-demo, capacity."""

from __future__ import annotations

import argparse
import sys

from . import harness, purify, qnn
from .harness import SweepConfig, score_point, train_inline_model
from .noise import NoiseKind, NoiseSpec, NoiseStage
from .sdc import distribute


def _add_noise_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", required=True,
                   choices=[k.value for k in NoiseKind])
    p.add_argument("--n", type=int, default=3)


def _add_stage_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise-stage", choices=[s.value for s in NoiseStage],
                   default=NoiseStage.DISTRIBUTION_ONLY.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ghzsdc")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="sweep noise strength and emit records")
    _add_noise_args(sweep)
    _add_stage_arg(sweep)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--p-start", type=float, default=0.0)
    sweep.add_argument("--p-stop", type=float, default=1.0)
    sweep.add_argument("--p-step", type=float, default=0.05)
    sweep.add_argument("--pipeline", choices=harness.PIPELINES, default="raw")
    sweep.add_argument("--rounds", type=int, default=1)
    sweep.add_argument("--model", default=None, help="path to a saved QNN model")
    sweep.add_argument("--train-at", type=float, default=None,
                       help="noise strength for inline model training")
    sweep.add_argument("--out", required=True)

    train = sub.add_parser("train", help="train a QNN corrector and save it")
    _add_noise_args(train)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--p", type=float, required=True)
    train.add_argument("--layers", type=int, default=1)
    train.add_argument("--iters", type=int, default=200)
    train.add_argument("--trajectories", type=int, default=100)
    train.add_argument("--out", required=True)

    demo = sub.add_parser("purify-demo", help="report one iterated purification")
    _add_noise_args(demo)
    demo.add_argument("--p", type=float, required=True)
    demo.add_argument("--rounds", type=int, default=1)

    cap = sub.add_parser("capacity", help="capacity report at a single noise point")
    _add_noise_args(cap)
    _add_stage_arg(cap)
    cap.add_argument("--p", type=float, required=True)
    return parser


def _cmd_sweep(args) -> None:
    if args.train_at is not None and args.pipeline not in ("qnn", "purify-qnn"):
        raise ValueError("--train-at applies only to the qnn and purify-qnn pipelines")
    cfg = SweepConfig(
        noise_kind=NoiseKind(args.noise),
        p_start=args.p_start, p_stop=args.p_stop, p_step=args.p_step,
        n=args.n, pipeline=args.pipeline, rounds=args.rounds,
        model_path=args.model, train_at=args.train_at,
        noise_stage=NoiseStage(args.noise_stage), seed=args.seed,
    )
    records = harness.run_sweep(cfg)
    harness.emit_records(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_train(args) -> None:
    cfg = SweepConfig(
        noise_kind=NoiseKind(args.noise), p_start=0.0, p_stop=0.0, p_step=1.0,
        n=args.n, seed=args.seed, trajectories=args.trajectories,
        train_iters=args.iters, hidden_layers=args.layers,
    )
    model, rep = train_inline_model(cfg, args.p)
    qnn.save_model(model, args.out)
    print(f"saved model to {args.out}")
    print(f"final cost: {rep.final_cost:.6f}")
    print(f"iterations: {rep.iterations}")
    print(f"converged: {rep.converged}")


def _cmd_purify_demo(args) -> None:
    rho = distribute(args.n, NoiseSpec(NoiseKind(args.noise), args.p))
    result = purify.purify_iterated(rho, args.rounds)
    print(f"fidelity before: {result.fidelity_before:.6f}")
    print(f"fidelity after {args.rounds} round(s): {result.fidelity_after:.6f}")
    print(f"compound success probability: {result.success_probability:.6f}")


def _cmd_capacity(args) -> None:
    spec = NoiseSpec(NoiseKind(args.noise), args.p, NoiseStage(args.noise_stage))
    _, rep = score_point(distribute(args.n, spec), spec)
    print(f"holevo: {rep.holevo:.6f} bits")
    print(f"classical capacity: {rep.classical_capacity:.6f} bits")
    print(f"entropy exchange: {rep.entropy_exchange:.6f} bits")
    print(f"coherent information: {rep.coherent_information:.6f} bits")
    print(f"quantum capacity: {rep.quantum_capacity:.6f} bits")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "train": _cmd_train,
        "purify-demo": _cmd_purify_demo,
        "capacity": _cmd_capacity,
    }
    try:
        handlers[args.command](args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
