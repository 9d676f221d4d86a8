"""GHZ-state superdense coding under noise: density-matrix simulation,
entanglement purification, QNN correction, and channel-capacity analysis."""

from .capacity import CapacityReport
from .harness import CorrectionPipeline, SweepConfig, SweepRecord, emit_records, run_sweep
from .noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from .purify import PurificationResult, PurificationUnderflow, purify_iterated
from .qcore import (
    DensityOperator,
    QuantumChannel,
    StateVector,
    Unitary,
    von_neumann_entropy,
)
from .qnn import QnnModel, TrainingPair, TrainingReport, feedforward, load_model, save_model, train
from .sdc import (Codeword, SdcRunResult, decode_ghz, distribute, encode_usdc, ghz_fidelity, run_protocol,
                  shared_state, transmit)

__all__ = [name for name in dir() if not name.startswith("_")]
