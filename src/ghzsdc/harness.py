"""Pipeline orchestration: seeded parameter sweeps over noise strength,
corrected and scored point by point, and record emission."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import capacity, purify, qnn
from .noise import NoiseKind, NoiseSpec, NoiseStage
from .qcore import DensityOperator, StateVector
from .sdc import _check_width, _kraus_branches, _x_distribute, distribute, shared_state

PIPELINES = ("raw", "purify", "qnn", "purify-qnn")


@dataclass(frozen=True)
class SweepConfig:
    noise_kind: NoiseKind
    p_start: float
    p_stop: float
    p_step: float
    n: int = 3
    pipeline: str = "raw"
    rounds: int = 1
    model_path: Optional[str] = None
    train_at: Optional[float] = None
    noise_stage: NoiseStage = NoiseStage.DISTRIBUTION_ONLY
    seed: int = 0
    trajectories: int = 100
    train_iters: int = 200

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"the bitwise encoder requires n >= 3, got {self.n}")
        if not (0.0 <= self.p_start <= self.p_stop <= 1.0):
            raise ValueError("need 0 <= p_start <= p_stop <= 1")
        # written so that NaN, which fails every comparison, fails it too
        if not 0.0 < self.p_step < np.inf:
            raise ValueError("p_step must be finite and positive")
        if self.pipeline not in PIPELINES:
            raise ValueError(f"pipeline must be one of {PIPELINES}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.model_path is not None and self.pipeline not in ("qnn", "purify-qnn"):
            raise ValueError("a model applies only to the qnn and purify-qnn pipelines")
        if self.rounds > 1 and self.pipeline not in ("purify", "purify-qnn"):
            raise ValueError("rounds > 1 applies only to the purify and purify-qnn pipelines")
        if self.train_at is not None and self.pipeline not in ("qnn", "purify-qnn"):
            raise ValueError("train_at applies only to the qnn and purify-qnn pipelines")
        if self.train_at is not None and self.model_path is not None:
            raise ValueError("train_at sets inline training and cannot go with a model file")


@dataclass(frozen=True)
class SweepRecord:
    noise: str
    p: float
    n: int
    pipeline: str
    avg_fidelity: float
    holevo: float
    classical_capacity: float
    coherent_info: float
    quantum_capacity: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.avg_fidelity <= 1.0 + 1e-9:
            raise ValueError(f"avg_fidelity {self.avg_fidelity} outside [0, 1]")
        for name in ("holevo", "classical_capacity", "coherent_info", "quantum_capacity"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")


# the CSV columns are the record's fields, in order
_COLUMNS = tuple(f.name for f in fields(SweepRecord))
CSV_HEADER = ",".join(_COLUMNS)


@dataclass(frozen=True)
class CorrectionPipeline:
    """Corrections of the shared state between distribution and encoding,
    run by calling it: purification rounds first, then a trained QNN model."""

    purify_rounds: int = 0
    model: Optional[qnn.QnnModel] = None

    def __call__(self, rho: DensityOperator) -> DensityOperator:
        if self.purify_rounds > 0:
            rho = purify.purify_iterated(rho, self.purify_rounds).kept_state
        if self.model is not None:
            rho = qnn.feedforward(self.model, rho)
        return rho

    def score(self, n: int, spec: NoiseSpec) -> capacity.CapacityReport:
        """The report of the n-qubit point of `spec`, distributed and then
        corrected by this pipeline. With no model, the shared state is held
        as its X-state (`sdc._x_distribute`), purified in closed form
        (`purify._x_round`) and scored exactly (`capacity._x_report`); with a
        model, the corrected dense n-qubit state is scored
        (`capacity.report`)."""
        _check_width(n, encoded=True)
        if self.model is not None:
            return capacity.report(self(distribute(n, spec)), spec)
        shared = _x_distribute(n, spec.kind, spec.p)
        if self.purify_rounds > 0:
            shared, _ = purify._iterate(shared, self.purify_rounds, purify._x_round)
        return capacity._x_report(shared, spec)


def p_grid(cfg: SweepConfig) -> List[float]:
    values = []
    for k in itertools.count():
        p = cfg.p_start + k * cfg.p_step
        if p > cfg.p_stop + 1e-12:
            break
        values.append(min(p, 1.0))
    return values


def trajectory_pairs(kind: NoiseKind, n: int, p: float, seed: int,
                     trajectories: int) -> List[qnn.TrainingPair]:
    """`trajectories` noisy-distribution trajectories of the n-qubit shared
    state, each paired with the ideal shared state as its target. Trajectory
    k is one of the `_kraus_branches` that `distribute` mixes, renormalized,
    picked by the k-th of the seeds that `seed` draws: one uniform from
    `default_rng(k-th seed)` searched in the Born weights' cumulative sum,
    the pick `Generator.choice(p=weights)` makes. Each drawn branch is
    validated once and shared by every trajectory that picks it."""
    if trajectories < 1:
        raise ValueError("trajectories must be >= 1")
    psi = shared_state(n)
    seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=trajectories)
    branches = _kraus_branches(n, kind, p)
    weights = np.array([np.linalg.norm(b) ** 2 for b in branches])
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    picks = [int(cdf.searchsorted(np.random.default_rng(int(s)).random(), side="right")) for s in seeds]
    inputs = {i: StateVector(branches[i] / np.linalg.norm(branches[i])) for i in set(picks)}
    return [qnn.TrainingPair(inputs[i], psi) for i in picks]


def train_inline_model(kind: NoiseKind, n: int, p: float, seed: int, trajectories: int,
                       iters: int, layers: int) -> Tuple[qnn.QnnModel, qnn.TrainingReport]:
    """Train a corrector of `layers` transitions on the `trajectory_pairs`
    of these arguments; returns it with its report."""
    return qnn.train(trajectory_pairs(kind, n, p, seed, trajectories), layers,
                     max_iters=iters, rng_seed=seed)


def _build_corrector(cfg: SweepConfig) -> CorrectionPipeline:
    wants_purify = cfg.pipeline in ("purify", "purify-qnn")
    wants_qnn = cfg.pipeline in ("qnn", "purify-qnn")
    model = None
    if wants_qnn:
        if cfg.model_path is not None:
            model = qnn.load_model(cfg.model_path)
            if model.width != cfg.n:
                raise ValueError(f"model width {model.width} differs from n={cfg.n}")
        else:
            p_train = cfg.train_at if cfg.train_at is not None else 0.3
            model, _ = train_inline_model(cfg.noise_kind, cfg.n, p_train, cfg.seed,
                                          cfg.trajectories, cfg.train_iters, layers=1)
    return CorrectionPipeline(
        purify_rounds=cfg.rounds if wants_purify else 0,
        model=model,
    )


def run_sweep(cfg: SweepConfig) -> List[SweepRecord]:
    """One record per grid point, distributed, corrected and scored once by
    `CorrectionPipeline.score`. Deterministic for a fixed seed."""
    corrector = _build_corrector(cfg)
    records = []
    for p in p_grid(cfg):
        spec = NoiseSpec(cfg.noise_kind, p, cfg.noise_stage)
        rep = corrector.score(cfg.n, spec)
        records.append(SweepRecord(
            noise=cfg.noise_kind.value,
            p=p,
            n=cfg.n,
            pipeline=cfg.pipeline,
            avg_fidelity=rep.avg_fidelity,
            holevo=rep.holevo,
            classical_capacity=rep.holevo,
            coherent_info=rep.coherent_information,
            quantum_capacity=rep.quantum_capacity,
            seed=cfg.seed,
        ))
    return records


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_records(records: Sequence[SweepRecord], path) -> None:
    """Comma-separated records sorted by (pipeline, p), reals at 12
    significant digits."""
    ordered = sorted(records, key=lambda r: (r.pipeline, r.p))
    lines = [CSV_HEADER]
    for r in ordered:
        values = (getattr(r, name) for name in _COLUMNS)
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc
