"""Pipeline orchestration: seeded parameter sweeps over noise strength,
per-point capacity reports, and record emission."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import capacity, purify, qcore, qnn
from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel, sample_trajectory
from .qcore import DensityOperator
from .sdc import Codeword, distribute, ideal_received_state, shared_state, transmit

PIPELINES = ("raw", "purify", "qnn", "purify-qnn")

CSV_HEADER = "noise,p,n,pipeline,avg_fidelity,holevo,classical_capacity,coherent_info,quantum_capacity,seed"


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
    hidden_layers: int = 1

    def __post_init__(self):
        if not (0.0 <= self.p_start <= self.p_stop <= 1.0):
            raise ValueError("need 0 <= p_start <= p_stop <= 1")
        if self.p_step <= 0:
            raise ValueError("p_step must be positive")
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


def p_grid(cfg: SweepConfig) -> List[float]:
    values = []
    for k in itertools.count():
        p = cfg.p_start + k * cfg.p_step
        if p > cfg.p_stop + 1e-12:
            break
        values.append(min(p, 1.0))
    return values


def train_inline_model(cfg: SweepConfig, p_train: float) -> Tuple[qnn.QnnModel, qnn.TrainingReport]:
    """Train a corrector on noisy-distribution trajectories of the shared
    state, targeting the ideal shared state; returns it with its report."""
    psi = shared_state(cfg.n)
    single = make_channel(cfg.noise_kind, p_train)
    seed_root = np.random.default_rng(cfg.seed).integers(0, 2 ** 31, size=cfg.trajectories)
    pairs = [
        qnn.TrainingPair(sample_trajectory(psi, single, [0], int(s)), psi)
        for s in seed_root
    ]
    arch = qnn.NetworkArchitecture(cfg.n, cfg.hidden_layers)
    return qnn.train(arch, pairs, max_iters=cfg.train_iters, rng_seed=cfg.seed)


def _build_corrector(cfg: SweepConfig) -> CorrectionPipeline:
    wants_purify = cfg.pipeline in ("purify", "purify-qnn")
    wants_qnn = cfg.pipeline in ("qnn", "purify-qnn")
    model = None
    if wants_qnn:
        if cfg.model_path is not None:
            model = qnn.load_model(cfg.model_path)
            if model.architecture.input_width != cfg.n:
                raise ValueError(
                    f"model width {model.architecture.input_width} differs from n={cfg.n}")
        else:
            p_train = cfg.train_at if cfg.train_at is not None else 0.3
            model, _ = train_inline_model(cfg, p_train)
    return CorrectionPipeline(
        purify_rounds=cfg.rounds if wants_purify else 0,
        model=model,
    )


def score_point(shared: DensityOperator, spec: NoiseSpec) -> Tuple[float, capacity.CapacityReport]:
    """Average fidelity and capacity report of the 2^n codewords sent from
    the corrected shared state.

    On an orbit point (`NoiseSpec.is_orbit`) every output is U_x sigma U_x^dag
    for one state sigma: the shared state itself at stage dist, or with the
    return noise applied once at stage both (codeword 0 encodes with the
    identity). Every fidelity is then <GHZ|sigma|GHZ> and the Holevo value is
    `capacity.orbit_holevo(sigma)`. Otherwise each codeword is transmitted and
    scored on its own. `capacity.report` scores the noise channel."""
    n = shared.qubit_count
    if spec.is_orbit:
        sigma = shared
        if spec.stage is NoiseStage.DISTRIBUTION_AND_RETURN:
            sigma = transmit(shared, Codeword(n, 0), spec)
        fidelities = [qcore.fidelity(shared_state(n), sigma)] * 2 ** n
        chi = capacity.orbit_holevo(sigma)
    else:
        codes = [Codeword(n, x) for x in range(2 ** n)]
        outputs = [transmit(shared, code, spec) for code in codes]
        fidelities = [qcore.fidelity(ideal_received_state(n, code), rho)
                      for code, rho in zip(codes, outputs)]
        chi = capacity.holevo(outputs)
    return float(np.mean(fidelities)), capacity.report(chi, spec, n)


def run_sweep(cfg: SweepConfig) -> List[SweepRecord]:
    """One record per grid point: the shared state is distributed and
    corrected once, then scored by `score_point`. Deterministic for a fixed
    seed."""
    # raises for an n the encoder does not support, before any training
    ideal_received_state(cfg.n, Codeword(cfg.n, 0))
    corrector = _build_corrector(cfg)
    records = []
    for p in p_grid(cfg):
        spec = NoiseSpec(cfg.noise_kind, p, cfg.noise_stage)
        avg_fidelity, rep = score_point(corrector(distribute(cfg.n, spec)), spec)
        records.append(SweepRecord(
            noise=cfg.noise_kind.value,
            p=p,
            n=cfg.n,
            pipeline=cfg.pipeline,
            avg_fidelity=avg_fidelity,
            holevo=rep.holevo,
            classical_capacity=rep.classical_capacity,
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
        lines.append(",".join([
            r.noise, _fmt(r.p), str(r.n), r.pipeline, _fmt(r.avg_fidelity),
            _fmt(r.holevo), _fmt(r.classical_capacity), _fmt(r.coherent_info),
            _fmt(r.quantum_capacity), str(r.seed),
        ]))
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write records to {path}: {exc}") from exc
