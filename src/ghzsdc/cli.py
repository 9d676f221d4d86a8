"""Command-line entry point: sweep, train, purify-demo, capacity.

One command table, `_COMMANDS`, drives both parsing and dispatch, so a call
builds only its own command's parser.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, purify, qnn
from .harness import CorrectionPipeline, SweepConfig, train_inline_model
from .noise import NoiseKind, NoiseSpec, NoiseStage
from .sdc import distribute, ghz_fidelity


def _add_noise_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", required=True,
                   choices=[k.value for k in NoiseKind])
    p.add_argument("--n", type=int, default=3)


def _add_stage_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise-stage", choices=[s.value for s in NoiseStage],
                   default=NoiseStage.DISTRIBUTION_ONLY.value)


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    _add_noise_args(p)
    _add_stage_arg(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-start", type=float, default=0.0)
    p.add_argument("--p-stop", type=float, default=1.0)
    p.add_argument("--p-step", type=float, default=0.05)
    p.add_argument("--pipeline", choices=harness.PIPELINES, default="raw")
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--model", default=None, help="path to a saved QNN model")
    p.add_argument("--train-at", type=float, default=None,
                   help="noise strength for inline model training")
    p.add_argument("--out", required=True)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    _add_noise_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--trajectories", type=int, default=100)
    p.add_argument("--out", required=True)


def _add_purify_demo_args(p: argparse.ArgumentParser) -> None:
    _add_noise_args(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rounds", type=int, default=1)


def _add_capacity_args(p: argparse.ArgumentParser) -> None:
    _add_noise_args(p)
    _add_stage_arg(p)
    p.add_argument("--p", type=float, required=True)


def _cmd_sweep(args) -> None:
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
    model, rep = train_inline_model(NoiseKind(args.noise), args.n, args.p, args.seed,
                                    args.trajectories, args.iters, args.layers)
    qnn.save_model(model, args.out)
    print(f"saved model to {args.out}")
    print(f"final cost: {rep.final_cost:.6f}")
    print(f"iterations: {rep.iterations}")
    print(f"converged: {rep.converged}")
    print(f"stopped: {rep.stop}")


def _cmd_purify_demo(args) -> None:
    rho = distribute(args.n, NoiseSpec(NoiseKind(args.noise), args.p))
    result = purify.purify_iterated(rho, args.rounds)
    print(f"fidelity before: {ghz_fidelity(rho):.6f}")
    print(f"fidelity after {args.rounds} round(s): {ghz_fidelity(result.kept_state):.6f}")
    print(f"compound success probability: {result.success_probability:.6f}")


def _cmd_capacity(args) -> None:
    spec = NoiseSpec(NoiseKind(args.noise), args.p, NoiseStage(args.noise_stage))
    rep = CorrectionPipeline().score(args.n, spec)
    print(f"holevo: {rep.holevo:.6f} bits")
    print(f"classical capacity: {rep.holevo:.6f} bits")
    print(f"entropy exchange: {rep.entropy_exchange:.6f} bits")
    print(f"coherent information: {rep.coherent_information:.6f} bits")
    print(f"quantum capacity: {rep.quantum_capacity:.6f} qubits")


# command name -> (help text, adds its arguments, handler)
_COMMANDS = {
    "sweep": ("sweep noise strength and emit records", _add_sweep_args, _cmd_sweep),
    "train": ("train a QNN corrector and save it", _add_train_args, _cmd_train),
    "purify-demo": ("report one iterated purification", _add_purify_demo_args,
                    _cmd_purify_demo),
    "capacity": ("capacity report at a single noise point", _add_capacity_args,
                 _cmd_capacity),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with only `command`'s.

    A one-command parser names every command in its usage line, which an
    "unrecognized arguments" error prints; the full parser leaves the metavar
    unset, so an invalid choice is still reported against `command`."""
    parser = argparse.ArgumentParser(prog="ghzsdc")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_args, _ = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        handler(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
