"""GHZ-state superdense coding under noise: density-matrix simulation,
entanglement purification, QNN correction, and channel-capacity analysis."""

from .capacity import CapacityReport, coherent_information, entropy_exchange, holevo
from .harness import CorrectionPipeline, SweepConfig, SweepRecord, emit_records, run_sweep
from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel, sample_trajectory
from .purify import PurificationResult, PurificationUnderflow, purify_iterated, purify_round
from .qcore import (
    DensityOperator,
    QuantumChannel,
    StateVector,
    Unitary,
    apply_channel,
    basis_state,
    fidelity,
    partial_trace,
    tensor_product,
    von_neumann_entropy,
)
from .qnn import NetworkArchitecture, QnnModel, TrainingPair, TrainingReport, cost, feedforward, load_model, save_model, train
from .sdc import Codeword, GhzBasis, SdcRunResult, decode_ghz, distribute, encode_usdc, ghz_basis, run_protocol, shared_state, transmit

__all__ = [name for name in dir() if not name.startswith("_")]
