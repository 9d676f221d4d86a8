import argparse
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import capacity, cli, harness, purify, qcore, qnn, sdc
from ghzsdc.harness import (
    CSV_HEADER,
    CorrectionPipeline,
    SweepConfig,
    SweepRecord,
    emit_records,
    p_grid,
    run_sweep,
    trajectory_pairs,
)
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.sdc import (
    Codeword,
    _frame,
    _return_walk,
    distribute,
    ghz_fidelity,
    run_protocol,
    shared_state,
    transmit,
    twirl,
)

import reference
from full_space import holevo, identity_model, kron_embedding, mixture, shannon_entropy

DATA_DIR = pathlib.Path(__file__).parent / "data"


def small_config(**overrides):
    base = dict(noise_kind=NoiseKind.BIT_FLIP, p_start=0.0, p_stop=0.2,
                p_step=0.1, n=3, pipeline="raw", seed=0)
    base.update(overrides)
    return SweepConfig(**base)


class TestConfigValidation:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            small_config(p_start=0.5, p_stop=0.2)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            small_config(p_step=0.0)

    # a NaN step would never let the grid reach p_stop
    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
    def test_non_finite_or_negative_step_rejected(self, step):
        with pytest.raises(ValueError, match="p_step must be finite and positive"):
            small_config(p_step=step)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError):
            small_config(pipeline="bogus")

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rounds_below_one_rejected(self, rounds):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            small_config(pipeline="purify", rounds=rounds)

    # the bitwise encoder needs Bob's qubit and at least two of Alice's
    @pytest.mark.parametrize("n", [1, 2])
    def test_width_below_three_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 3"):
            small_config(n=n)

    @pytest.mark.parametrize("trajectories", [0, -1])
    def test_trajectories_below_one_rejected(self, trajectories):
        with pytest.raises(ValueError, match="trajectories must be >= 1"):
            small_config(pipeline="qnn", trajectories=trajectories)

    @pytest.mark.parametrize("pipeline", ["raw", "purify"])
    def test_model_rejected_outside_qnn_pipelines(self, pipeline):
        with pytest.raises(ValueError, match="qnn and purify-qnn"):
            small_config(pipeline=pipeline, model_path="model.txt")

    @pytest.mark.parametrize("pipeline", ["raw", "qnn"])
    def test_rounds_rejected_outside_purify_pipelines(self, pipeline):
        with pytest.raises(ValueError, match="purify and purify-qnn"):
            small_config(pipeline=pipeline, rounds=2)

    @pytest.mark.parametrize("pipeline", ["raw", "purify"])
    def test_train_at_rejected_outside_qnn_pipelines(self, pipeline):
        with pytest.raises(ValueError, match="train_at applies only to the qnn and purify-qnn pipelines"):
            small_config(pipeline=pipeline, train_at=0.3)

    @pytest.mark.parametrize("pipeline", ["qnn", "purify-qnn"])
    def test_train_at_rejected_with_model(self, pipeline):
        with pytest.raises(ValueError, match="train_at"):
            small_config(pipeline=pipeline, model_path="model.txt", train_at=0.2)

    def test_record_invariants(self):
        with pytest.raises(ValueError, match="avg_fidelity"):
            SweepRecord("bit-flip", 0.1, 3, "raw", 1.5, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="finite"):
            SweepRecord("bit-flip", 0.1, 3, "raw", 0.5, np.nan, 0, 0, 0, 0)


class TestPGrid:
    def test_inclusive_endpoints(self):
        grid = p_grid(small_config(p_start=0.0, p_stop=0.3, p_step=0.1))
        assert np.allclose(grid, [0.0, 0.1, 0.2, 0.3])

    def test_endpoint_with_rounding_noise(self):
        grid = p_grid(small_config(p_start=0.0, p_stop=0.15, p_step=0.05))
        assert len(grid) == 4
        assert abs(grid[-1] - 0.15) < 1e-12

    def test_single_point(self):
        grid = p_grid(small_config(p_start=0.4, p_stop=0.4, p_step=0.1))
        assert grid == [0.4]


class TestRunSweep:
    def test_record_shape_and_noiseless_point(self):
        records = run_sweep(small_config())
        assert len(records) == 3
        first = records[0]
        assert first.p == 0.0
        assert first.noise == "bit-flip"
        assert abs(first.avg_fidelity - 1.0) < 1e-9
        assert abs(first.holevo - 3.0) < 1e-9
        assert abs(first.coherent_info - 3.0) < 1e-9

    def test_fidelity_decreases_with_noise(self):
        records = run_sweep(small_config(p_stop=0.4, p_step=0.2))
        fids = [r.avg_fidelity for r in records]
        assert fids == sorted(fids, reverse=True)

    def test_deterministic_across_runs(self):
        cfg = small_config(pipeline="qnn", p_stop=0.1, train_at=0.2,
                           train_iters=30, trajectories=20)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a == b

    def test_purify_pipeline_beats_raw(self):
        raw = run_sweep(small_config(p_start=0.2, p_stop=0.2))
        pur = run_sweep(small_config(p_start=0.2, p_stop=0.2, pipeline="purify"))
        assert pur[0].avg_fidelity > raw[0].avg_fidelity

    def test_qnn_pipeline_at_training_cap_width(self):
        cfg = small_config(noise_kind=NoiseKind.AMPLITUDE_DAMPING, n=qnn.MAX_TRAINABLE_WIDTH,
                           pipeline="qnn", p_start=0.2, p_stop=0.2, train_iters=5)
        (record,) = run_sweep(cfg)
        assert record.n == qnn.MAX_TRAINABLE_WIDTH
        assert 0.0 < record.avg_fidelity <= 1.0

    def test_unsupported_width_fails_before_training(self, monkeypatch):
        def untrainable(*args, **kwargs):
            raise AssertionError("qnn.train was called")

        monkeypatch.setattr(qnn, "train", untrainable)
        with pytest.raises(ValueError, match="n >= 3"):
            run_sweep(small_config(n=2, pipeline="qnn", train_iters=5, trajectories=5))

    def test_both_stage_depolarizing_at_six_qubits(self):
        # the channel columns are one single-qubit term per qubit; the return
        # noise touches every qubit, so each contributes 1 - H(1-p, p/3, p/3, p/3)
        p = 0.2
        (record,) = run_sweep(small_config(noise_kind=NoiseKind.DEPOLARIZING, n=6,
                                           noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN,
                                           p_start=p, p_stop=p))
        per_qubit = -sum(q * np.log2(q) for q in (1 - p, p / 3, p / 3, p / 3))
        assert abs(record.coherent_info - 6 * (1 - per_qubit)) < 1e-12
        assert record.quantum_capacity == 0.0

    # a Pauli kind purifies the GHZ-basis weights, amplitude damping the
    # dense state
    @pytest.mark.parametrize("kind, rounds", [(NoiseKind.BIT_FLIP, "purify_ghz_weights"),
                                              (NoiseKind.AMPLITUDE_DAMPING, "purify_iterated")])
    def test_correction_runs_once_per_grid_point(self, kind, rounds, monkeypatch):
        calls = []
        original = getattr(purify, rounds)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(purify, rounds, counted)
        cfg = small_config(noise_kind=kind, pipeline="purify")
        run_sweep(cfg)
        assert len(calls) == len(p_grid(cfg))

    @pytest.mark.parametrize("kind", [NoiseKind.BIT_FLIP, NoiseKind.AMPLITUDE_DAMPING])
    @pytest.mark.parametrize("pipeline", ["raw", "purify"])
    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_sweep_matches_single_codeword_runs(self, kind, pipeline, stage):
        # the dense scorer reads every codeword's fidelity off the corrected
        # shared state once, bit for bit as the runs read each; amplitude
        # damping's sweep is that scorer, while bit flip's reads the same
        # value off GHZ-basis weights, whose own rounding leaves it within
        # 2 ulps
        cfg = small_config(noise_kind=kind, pipeline=pipeline, noise_stage=stage,
                           p_start=0.1, p_stop=0.3, p_step=0.2)
        corrector = CorrectionPipeline(purify_rounds=cfg.rounds if pipeline == "purify" else 0)
        records = run_sweep(cfg)
        assert [r.p for r in records] == p_grid(cfg)
        for record in records:
            spec = NoiseSpec(cfg.noise_kind, record.p, stage)
            single = [run_protocol(Codeword(cfg.n, x), spec, corrector).post_fidelity
                      for x in range(2 ** cfg.n)]
            dense = capacity.report(corrector(distribute(cfg.n, spec)), spec).avg_fidelity
            assert dense == np.mean(single)
            if kind is NoiseKind.AMPLITUDE_DAMPING:
                assert record.avg_fidelity == dense
            else:
                assert abs(record.avg_fidelity - dense) <= 2 * np.spacing(dense)

    def test_pauli_weights_read_once_per_point(self, monkeypatch):
        # a both-stage Pauli point walks its GHZ-basis weights twice, at
        # distribution and at return, on one reading of the channel's Pauli
        # weights: 4 Paulis against the 4 depolarizing Kraus operators
        reads = []
        vdot = np.vdot

        def counted(*args):
            reads.append(args)
            return vdot(*args)

        sdc._ghz_moves.cache_clear()
        monkeypatch.setattr(np, "vdot", counted)
        run_sweep(small_config(noise_kind=NoiseKind.DEPOLARIZING, n=5, pipeline="purify", p_start=0.3,
                               p_stop=0.3, noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN))
        assert len(reads) == 16

    def test_return_channel_built_once_per_point(self, monkeypatch):
        # amplitude-damping return noise is scored per codeword; the 2^n
        # transmits and the capacity report share one channel
        built = []
        validate = qcore.QuantumChannel.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        make_channel.cache_clear()
        monkeypatch.setattr(qcore.QuantumChannel, "__post_init__", counted)
        cfg = small_config(noise_kind=NoiseKind.AMPLITUDE_DAMPING, n=5, p_start=0.3,
                           p_stop=0.3, noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN)
        run_sweep(cfg)
        assert len(built) == 1

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_widths_above_the_density_cap_refused_on_every_path(self, kind, stage):
        with pytest.raises(ValueError, match=r"supports 2\.\.10 qubits, got 11"):
            run_sweep(small_config(noise_kind=kind, noise_stage=stage, n=11, p_start=0.2, p_stop=0.2))

    # amplitude damping at stage dist scores its 3-qubit state, and
    # both-stage depolarizing solves only the channel side's 4 x 4
    # environment Gram matrix: no 1024 x 1024 state is solved
    @pytest.mark.parametrize("kind, stage, widest", [
        (NoiseKind.AMPLITUDE_DAMPING, NoiseStage.DISTRIBUTION_ONLY, 8),
        (NoiseKind.DEPOLARIZING, NoiseStage.DISTRIBUTION_AND_RETURN, 4),
    ])
    @pytest.mark.parametrize("pipeline", ["raw", "purify"])
    def test_ten_qubit_point_solves_nothing_wider_than_its_reduction(self, kind, stage, widest, pipeline,
                                                                      monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a)[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        run_sweep(small_config(noise_kind=kind, noise_stage=stage, n=10, pipeline=pipeline,
                               p_start=0.2, p_stop=0.2))
        assert max(sizes) == widest

    def test_model_width_mismatch_rejected(self, tmp_path):
        model = identity_model(2, 1)
        path = tmp_path / "model.txt"
        qnn.save_model(model, path)
        cfg = small_config(pipeline="qnn", model_path=str(path))
        with pytest.raises(ValueError, match="width"):
            run_sweep(cfg)


# Every kind at stage dist, and the Pauli kinds at stage both: the points
# whose outputs are one orbit U_x sigma U_x^dag.
ORBIT_NOISE = ([(kind, NoiseStage.DISTRIBUTION_ONLY) for kind in NoiseKind]
               + [(kind, NoiseStage.DISTRIBUTION_AND_RETURN)
                  for kind in (NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP, NoiseKind.DEPOLARIZING)])


class TestOrbitScoring:
    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_orbit_predicate(self, kind, stage, monkeypatch):
        # no codeword is sent at an orbit point, and at stage both its shared
        # state takes one return walk; amplitude-damping return noise breaks
        # the orbit, so every codeword is sent, and one return walk of the
        # twirl mixes them
        n = 4
        sent, walked = [], []

        def counted(shared, code, spec):
            sent.append(code)
            return transmit(shared, code, spec)

        def walk(ch, rho):
            walked.append(rho)
            return _return_walk(ch, rho)

        monkeypatch.setattr(capacity, "transmit", counted)
        monkeypatch.setattr(capacity, "_return_walk", walk)
        spec = NoiseSpec(kind, 0.3, stage)
        capacity.report(distribute(n, spec), spec)
        assert len(sent) == (0 if (kind, stage) in ORBIT_NOISE else 2 ** n)
        assert len(walked) == (stage is NoiseStage.DISTRIBUTION_AND_RETURN)

    @settings(max_examples=30, deadline=None)
    @example(n=3, noise_=ORBIT_NOISE[0], pipeline="raw", p=0.0)
    @example(n=7, noise_=ORBIT_NOISE[-1], pipeline="purify", p=1.0)
    @example(n=5, noise_=ORBIT_NOISE[4], pipeline="raw", p=1.0)
    @example(n=4, noise_=ORBIT_NOISE[5], pipeline="purify", p=0.0)
    # small p: eigenvalues on both sides of the old 1e-12 entropy floor
    @example(n=3, noise_=(NoiseKind.BIT_FLIP, NoiseStage.DISTRIBUTION_ONLY), pipeline="purify", p=1e-6)
    @example(n=4, noise_=(NoiseKind.BIT_FLIP, NoiseStage.DISTRIBUTION_AND_RETURN), pipeline="raw", p=1e-12)
    @given(n=st.integers(3, 7), noise_=st.sampled_from(ORBIT_NOISE),
           pipeline=st.sampled_from(["raw", "purify"]), p=st.floats(0.0, 1.0))
    def test_matches_per_codeword_oracle(self, n, noise_, pipeline, p):
        spec = NoiseSpec(noise_[0], p, noise_[1])
        corrector = CorrectionPipeline(purify_rounds=1 if pipeline == "purify" else 0)
        shared = corrector(distribute(n, spec))
        rep = capacity.report(shared, spec)
        codes = [Codeword(n, x) for x in range(2 ** n)]
        outputs = [transmit(shared, code, spec) for code in codes]
        # each output's fidelity by the decoder form, which
        # TestDecode::test_fidelity_matches_dense_overlap holds to the dense
        # overlap, so the orbit reduction itself is matched bit for bit
        fidelities = [ghz_fidelity(rho, x) for x, rho in enumerate(outputs)]
        assert rep.avg_fidelity == np.mean(fidelities)
        assert abs(rep.holevo - holevo(outputs)) < 1e-13
        # the closed-form twirl against the mean of the encoder gathers;
        # codeword 0 encodes with the identity, so output 0 is sigma
        sigma = outputs[0]
        explicit = np.zeros_like(sigma.matrix)
        for code in codes:
            image, sign = _frame(code)
            explicit += (sigma.matrix * np.outer(sign, sign))[np.ix_(image, image)]
        assert np.max(np.abs(twirl(sigma).matrix - explicit / 2 ** n)) < 1e-15

    # Distribution noise touches qubit 0 only, so an n-qubit point is the
    # 3-qubit point plus n - 3 noiseless bits, which is how a sweep scores an
    # amplitude-damping dist point; the dense n-qubit state scored by
    # capacity.report is the oracle, the only one at n = 8..10, where the
    # per-codeword oracle is too slow.
    @settings(max_examples=20, deadline=None)
    @example(n=10, kind=NoiseKind.AMPLITUDE_DAMPING, pipeline="raw", p=0.2)
    @example(n=4, kind=NoiseKind.DEPOLARIZING, pipeline="purify", p=0.0)
    @example(n=9, kind=NoiseKind.BIT_FLIP, pipeline="purify", p=1.0)
    @given(n=st.integers(4, 9), kind=st.sampled_from(NoiseKind),
           pipeline=st.sampled_from(["raw", "purify"]), p=st.floats(0.0, 1.0))
    def test_distribution_noise_reduces_to_three_qubits(self, n, kind, pipeline, p):
        (wide,) = run_sweep(small_config(noise_kind=kind, n=n, pipeline=pipeline,
                                         p_start=p, p_stop=p))
        spec = NoiseSpec(kind, p)
        corrector = CorrectionPipeline(purify_rounds=1 if pipeline == "purify" else 0)
        dense = capacity.report(corrector(distribute(n, spec)), spec)
        assert abs(wide.holevo - dense.holevo) < 1e-12
        assert abs(wide.avg_fidelity - dense.avg_fidelity) < 1e-15
        assert abs(wide.coherent_info - dense.coherent_information) < 1e-12


class TestReturnScoring:
    # A fixed random corrector per width, whose outputs are no block state
    # and have no symmetry among Alice's qubits.
    RANDOM_MODELS = {n: qnn.random_model(n, 1, np.random.default_rng(n)) for n in range(3, 7)}

    @settings(max_examples=30, deadline=None)
    @example(n=3, pipeline="raw", p=0.0)
    @example(n=6, pipeline="raw", p=1.0)
    @example(n=4, pipeline="purify", p=1.0)
    @example(n=5, pipeline="qnn", p=0.0)
    @example(n=6, pipeline="qnn", p=1.0)
    @given(n=st.integers(3, 6), pipeline=st.sampled_from(["raw", "purify", "qnn"]),
           p=st.floats(0.0, 1.0))
    def test_amplitude_damping_return_matches_per_codeword_oracle(self, n, pipeline, p):
        # off the orbit the outputs mix to the returned twirl of the shared
        # state, by linearity of the return channel
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, p, NoiseStage.DISTRIBUTION_AND_RETURN)
        corrector = CorrectionPipeline(purify_rounds=1 if pipeline == "purify" else 0,
                                       model=self.RANDOM_MODELS[n] if pipeline == "qnn" else None)
        shared = corrector(distribute(n, spec))
        rep = capacity.report(shared, spec)
        codes = [Codeword(n, x) for x in range(2 ** n)]
        outputs = [transmit(shared, code, spec) for code in codes]
        # the decoder form of each fidelity, as in TestOrbitScoring
        fidelities = [ghz_fidelity(rho, x) for x, rho in enumerate(outputs)]
        assert rep.avg_fidelity == np.mean(fidelities)
        assert abs(rep.holevo - holevo(outputs)) < 1e-12
        returned = transmit(twirl(shared), codes[0], spec)
        assert np.max(np.abs(returned.matrix - mixture(outputs))) < 1e-13


class TestDistributionClosedForms:
    # Distribution noise touches only Bob's qubit of the shared state, so the
    # received states are a two-qubit state on Bob's qubit and Alice's
    # logical qubit plus n - 2 noiseless bits, and chi = (n - 1) + S(tau) -
    # S(sigma) (Bowen 2001) has a closed form per kind; `holevo` is clamped at
    # 0, which no n >= 3 point reaches.
    @staticmethod
    def closed_form(kind, n, p):
        if kind is NoiseKind.AMPLITUDE_DAMPING:
            return (n - 1 + shannon_entropy((1 - p) / 2, (1 + p) / 2) - shannon_entropy(p / 2, 1 - p / 2),
                    (1 + np.sqrt(1 - p)) / 2)
        if kind is NoiseKind.DEPOLARIZING:
            return n - shannon_entropy(1 - p, p / 3, p / 3, p / 3), np.sqrt(1 - p)
        return n - shannon_entropy(1 - p, p), np.sqrt(1 - p)

    @settings(max_examples=60, deadline=None)
    @example(n=3, kind=NoiseKind.DEPOLARIZING, p=0.0)
    @example(n=8, kind=NoiseKind.DEPOLARIZING, p=0.75)
    @example(n=5, kind=NoiseKind.DEPOLARIZING, p=1.0)
    @example(n=8, kind=NoiseKind.AMPLITUDE_DAMPING, p=1.0)
    @example(n=6, kind=NoiseKind.BIT_FLIP, p=0.75)
    @example(n=4, kind=NoiseKind.PHASE_FLIP, p=1.0)
    @example(n=3, kind=NoiseKind.PHASE_FLIP, p=1 - 2 ** -52)
    @example(n=10, kind=NoiseKind.AMPLITUDE_DAMPING, p=0.2)
    @example(n=10, kind=NoiseKind.DEPOLARIZING, p=0.75)
    @given(n=st.integers(3, 9), kind=st.sampled_from(NoiseKind), p=st.floats(0.0, 1.0))
    def test_raw_point_matches_closed_form(self, n, kind, p):
        (record,) = run_sweep(small_config(noise_kind=kind, n=n, p_start=p, p_stop=p))
        chi, fidelity = self.closed_form(kind, n, p)
        assert abs(record.holevo - max(chi, 0.0)) < 1e-12
        # relative, since the Pauli kinds' fidelity sqrt(1 - p) nears 0 as
        # p -> 1, and exact where it is 0
        if fidelity == 0:
            assert record.avg_fidelity == 0
        else:
            assert abs(record.avg_fidelity - fidelity) <= 1e-12 * fidelity


class TestGhzFrameScores:
    # Pauli noise keeps the shared state diagonal in the GHZ basis, so every
    # raw and purify point of the Pauli kinds has the closed form of
    # reference.ghz_frame_score, cheap enough at every width up to
    # MAX_DENSITY_QUBITS; rounds = 0 is the raw pipeline
    @settings(max_examples=40, deadline=None)
    @example(kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_AND_RETURN, n=10, rounds=0, p=0.75)
    @example(kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN, n=9, rounds=3, p=1.0)
    @example(kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, n=10, rounds=2, p=0.0)
    @example(kind=NoiseKind.DEPOLARIZING, stage=NoiseStage.DISTRIBUTION_ONLY, n=3, rounds=1, p=0.75)
    @example(kind=NoiseKind.BIT_FLIP, stage=NoiseStage.DISTRIBUTION_ONLY, n=4, rounds=0, p=1.0)
    @example(kind=NoiseKind.PHASE_FLIP, stage=NoiseStage.DISTRIBUTION_AND_RETURN, n=5, rounds=1, p=0.0)
    @given(kind=st.sampled_from([NoiseKind.BIT_FLIP, NoiseKind.PHASE_FLIP, NoiseKind.DEPOLARIZING]),
           stage=st.sampled_from(NoiseStage), n=st.integers(3, 10), rounds=st.integers(0, 3),
           p=st.floats(0.0, 1.0))
    def test_pauli_point_matches_the_frame_reference(self, kind, stage, n, rounds, p):
        (record,) = run_sweep(small_config(noise_kind=kind, noise_stage=stage, n=n, rounds=max(rounds, 1),
                                           pipeline="purify" if rounds else "raw", p_start=p, p_stop=p))
        want = reference.ghz_frame_score(kind.value, p, n, stage is NoiseStage.DISTRIBUTION_AND_RETURN, rounds)
        assert abs(record.holevo - want["holevo"]) < 1e-12
        # as in tests/test_reference.py, the fidelity is held through its
        # square where the rounding of a GHZ weight near 0 dominates its root
        if want["min_overlap"] < 1e-8:
            assert abs(record.avg_fidelity ** 2 - want["avg_fidelity"] ** 2) < 1e-12
        else:
            assert abs(record.avg_fidelity - want["avg_fidelity"]) < 1e-12


class TestEmitRecords:
    def test_header_only_for_empty_list(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_records([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_rows_sorted_by_pipeline_then_p(self, tmp_path):
        recs = [
            SweepRecord("bit-flip", 0.2, 3, "raw", 0.9, 1, 1, 0.5, 0.5, 0),
            SweepRecord("bit-flip", 0.1, 3, "purify", 0.95, 2, 2, 1, 1, 0),
            SweepRecord("bit-flip", 0.1, 3, "raw", 0.93, 2, 2, 1, 1, 0),
        ]
        path = tmp_path / "out.csv"
        emit_records(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert [l.split(",")[3] for l in lines[1:]] == ["purify", "raw", "raw"]
        assert [l.split(",")[1] for l in lines[1:]] == ["0.1", "0.1", "0.2"]

    def test_twelve_significant_digits(self, tmp_path):
        rec = SweepRecord("bit-flip", 1 / 3, 3, "raw", 0.123456789012345, 1, 1, 0.5, 0.5, 7)
        path = tmp_path / "out.csv"
        emit_records([rec], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[1] == "0.333333333333"
        assert row[4] == "0.123456789012"
        assert row[-1] == "7"

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            emit_records([], tmp_path / "missing" / "out.csv")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(p_stop=0.1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_records(run_sweep(cfg), a)
        emit_records(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_golden_fixture(self, tmp_path):
        # frozen output of the pinned configuration below; regenerate only
        # with a deliberate format or numerics change
        cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=0.0,
                          p_stop=0.3, p_step=0.15, n=3, pipeline="purify",
                          rounds=1, seed=0)
        path = tmp_path / "out.csv"
        emit_records(run_sweep(cfg), path)
        assert path.read_text() == (DATA_DIR / "sweep_ad_purify_n3.csv").read_text()

    # frozen both-stage outputs, where every qubit is noisy: amplitude damping
    # scores each codeword and purifies, depolarizing scores one orbit state
    @pytest.mark.parametrize("kind, pipeline, golden", [
        (NoiseKind.AMPLITUDE_DAMPING, "purify", "sweep_both_ad_purify_n4.csv"),
        (NoiseKind.DEPOLARIZING, "raw", "sweep_both_depol_raw_n4.csv"),
    ])
    def test_both_stage_golden_fixture(self, kind, pipeline, golden, tmp_path):
        cfg = SweepConfig(noise_kind=kind, p_start=0.0, p_stop=1.0, p_step=0.125, n=4,
                          pipeline=pipeline, noise_stage=NoiseStage.DISTRIBUTION_AND_RETURN,
                          seed=0)
        path = tmp_path / "out.csv"
        emit_records(run_sweep(cfg), path)
        assert path.read_bytes() == (DATA_DIR / golden).read_bytes()


class TestTrajectoryPairs:
    """The QNN training set: pure-state trajectories of the distribution
    noise on Bob's qubit 0 of the shared state, a Monte-Carlo unravelling of
    the channel (Dalibard, Castin and Molmer, PRL 68, 580 (1992))."""

    @staticmethod
    def branches(kind, n, p):
        """The renormalized Kraus branches of the noise on qubit 0 of the
        shared state, by the Kronecker embedding, and their Born weights."""
        psi = shared_state(n).amplitudes
        raw = [kron_embedding(k, [0], n) @ psi for k in make_channel(kind, p).kraus_ops]
        weights = np.array([np.vdot(b, b).real for b in raw])
        return [b / np.linalg.norm(b) for b in raw], weights / weights.sum()

    def test_deterministic_per_seed(self):
        a, b = (trajectory_pairs(NoiseKind.DEPOLARIZING, 3, 0.4, 11, 50) for _ in range(2))
        assert [x.input.amplitudes.tobytes() for x in a] == [x.input.amplitudes.tobytes() for x in b]

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_picks_match_generator_choice(self, kind):
        # trajectory k picks what Generator.choice picks from the Born weights
        # with the k-th of the seeds that the root seed draws
        n, p, seed, count = 3, 0.6, 4, 2000
        branches, weights = self.branches(kind, n, p)
        seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=count)
        picks = [int(np.random.default_rng(int(s)).choice(len(weights), p=weights)) for s in seeds]
        assert set(picks) == set(range(len(weights)))
        for pair, pick in zip(trajectory_pairs(kind, n, p, seed, count), picks):
            assert np.max(np.abs(pair.input.amplitudes - branches[pick])) < 1e-12

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_one_shared_input_per_drawn_branch(self, kind):
        pairs = trajectory_pairs(kind, 3, 0.6, 4, 500)
        assert len({id(x.input) for x in pairs}) == len({x.input.amplitudes.tobytes() for x in pairs})
        assert len({id(x.target) for x in pairs}) == 1

    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_p_zero_gives_ghz_inputs(self, kind):
        psi = shared_state(4).amplitudes
        for pair in trajectory_pairs(kind, 4, 0.0, 0, 20):
            assert np.max(np.abs(pair.input.amplitudes - psi)) < 1e-12
            assert np.array_equal(pair.target.amplitudes, psi)

    @pytest.mark.parametrize("p", [0.35, 1.0])
    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_mixture_of_inputs_is_the_distributed_state(self, kind, p):
        # Monte-Carlo oracle: the mean outer product of the trajectories
        # converges to the state that distribution noise leaves
        n, count = 3, 10_000
        amps = np.array([pair.input.amplitudes for pair in trajectory_pairs(kind, n, p, 0, count)])
        mean = amps.T @ amps.conj() / count
        assert np.max(np.abs(mean - distribute(n, NoiseSpec(kind, p)).matrix)) < 0.02


class TestInlineTraining:
    def test_training_set_follows_p(self, monkeypatch):
        # bit flip keeps the shared state or flips qubit 0, so the number of
        # unflipped training inputs counts one Kraus branch
        captured = []
        monkeypatch.setattr(qnn, "train", lambda pairs, layers, **kw: captured.append(pairs))
        for p in (0.1, 0.5):
            harness.train_inline_model(NoiseKind.BIT_FLIP, 3, p, seed=0, trajectories=100,
                                       iters=1, layers=1)
        psi = shared_state(3).amplitudes
        kept = [sum(np.allclose(pair.input.amplitudes, psi) for pair in pairs)
                for pairs in captured]
        assert kept[0] > kept[1]


QNN_SWEEP_ARGS = ["sweep", "--noise", "amplitude-damping", "--n", "3", "--pipeline", "qnn",
                  "--p-start", "0", "--p-stop", "0.5", "--p-step", "0.1", "--seed", "0"]


class TestQnnSweepRegression:
    # Inline training sums floats in batch order, so the frozen QNN sweep is
    # compared per field within the qnn-ad-n3 benchmark tolerance, relative
    # to max(1, |value|); the non-numeric fields must match exactly.
    TOLERANCE = 1e-6

    def test_golden_fixture(self, tmp_path):
        path = tmp_path / "out.csv"
        assert cli.main(QNN_SWEEP_ARGS + ["--out", str(path)]) == 0
        got = path.read_text().splitlines()
        want = (DATA_DIR / "sweep_ad_qnn_n3.csv").read_text().splitlines()
        assert got[0] == want[0] == CSV_HEADER
        assert len(got) == len(want) == 7
        numeric = {"p", "avg_fidelity", "holevo", "classical_capacity",
                   "coherent_info", "quantum_capacity"}
        for got_row, want_row in zip(got[1:], want[1:]):
            for name, g, w in zip(CSV_HEADER.split(","), got_row.split(","),
                                  want_row.split(",")):
                if name in numeric:
                    assert abs(float(g) - float(w)) <= self.TOLERANCE * max(1.0, abs(float(w))), name
                else:
                    assert g == w, name

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(QNN_SWEEP_ARGS + ["--out", str(a)]) == 0
        assert cli.main(QNN_SWEEP_ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCli:
    def test_sweep_subcommand_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--noise", "bit-flip", "--p-start", "0",
                       "--p-stop", "0.1", "--p-step", "0.1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert "wrote 2 records" in capsys.readouterr().out

    def test_train_then_sweep_with_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        rc = cli.main(["train", "--noise", "amplitude-damping", "--p", "0.3",
                       "--n", "2", "--iters", "30", "--trajectories", "20",
                       "--out", str(model_path)])
        assert rc == 0
        assert model_path.exists()
        model = qnn.load_model(model_path)
        assert model.width == 2

    def test_train_reports_training(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        rc = cli.main(["train", "--noise", "amplitude-damping", "--p", "0.3",
                       "--n", "2", "--iters", "3", "--trajectories", "20",
                       "--out", str(model_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"saved model to {model_path}"
        printed = dict(line.split(": ") for line in lines[1:])
        assert set(printed) == {"final cost", "iterations", "converged", "stopped"}
        assert 1 <= int(printed["iterations"]) <= 3
        assert printed["converged"] in ("True", "False")
        assert printed["stopped"] in ("flat window", "step floor", "iteration cap")
        _, report = harness.train_inline_model(NoiseKind.AMPLITUDE_DAMPING, 2, 0.3, seed=0,
                                               trajectories=20, iters=3, layers=1)
        assert printed["final cost"] == f"{report.final_cost:.6f}"
        assert printed["iterations"] == str(report.iterations)
        assert printed["converged"] == str(report.converged)
        assert printed["stopped"] == report.stop

    def test_purify_demo_reports_gain(self, capsys):
        rc = cli.main(["purify-demo", "--noise", "bit-flip", "--p", "0.2",
                       "--rounds", "1"])
        assert rc == 0
        # bit-flip recurrence at n = 3, q = 0.2: GHZ weight 0.8 before, and
        # 0.8^2 / 0.68 after a round kept with probability 0.8^2 + 0.2^2
        assert capsys.readouterr().out.splitlines() == [
            f"fidelity before: {np.sqrt(0.8):.6f}",
            f"fidelity after 1 round(s): {np.sqrt(0.64 / 0.68):.6f}",
            f"compound success probability: {0.68:.6f}",
        ]

    def test_capacity_subcommand(self, monkeypatch, capsys):
        # read from sys.argv, as the console script calls it
        monkeypatch.setattr(sys, "argv", ["ghzsdc", "capacity", "--noise", "depolarizing", "--p", "0.1"])
        rc = cli.main()
        assert rc == 0
        out = capsys.readouterr().out
        for field in ("holevo", "classical capacity", "entropy exchange",
                      "coherent information", "quantum capacity"):
            assert field in out
        # the quantum capacity is a rate of qubits, every other field of bits
        printed = dict(line.split(": ") for line in out.splitlines())
        assert printed["quantum capacity"].endswith(" qubits")
        assert all(value.endswith(" bits") for field, value in printed.items() if field != "quantum capacity")

    def test_capacity_above_density_cap_fails_fast(self, capsys):
        rc = cli.main(["capacity", "--noise", "amplitude-damping", "--n", "11", "--p", "0.2"])
        assert rc == 1
        assert "shared GHZ state supports 2..10 qubits" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("n, message", [(1, "the shared GHZ state supports 2..10 qubits, got 1"),
                                            (2, "the bitwise encoder requires n >= 3")])
    def test_capacity_below_three_qubits_fails(self, kind, n, message, capsys):
        rc = cli.main(["capacity", "--noise", kind.value, "--n", str(n), "--p", "0.2"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", list(NoiseKind))
    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_capacity_matches_sweep_record(self, kind, stage, capsys):
        rc = cli.main(["capacity", "--noise", kind.value, "--noise-stage", stage.value,
                       "--n", "4", "--p", "0.3"])
        assert rc == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        (record,) = run_sweep(small_config(noise_kind=kind, noise_stage=stage, n=4,
                                           p_start=0.3, p_stop=0.3))
        assert printed["holevo"] == f"{record.holevo:.6f} bits"
        assert printed["coherent information"] == f"{record.coherent_info:.6f} bits"

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--noise", "bit-flip", "--p-start", "0.5",
                       "--p-stop", "0.2", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_nonzero(self, step, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--noise", "bit-flip", "--p-step", step, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: p_step must be finite and positive\n"
        assert not out.exists()

    def test_model_with_non_finite_entry_exits_nonzero(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        qnn.save_model(qnn.random_model(3, 1, np.random.default_rng(0)),
                       model_path)
        lines = model_path.read_text().splitlines()
        lines[4] = "nan nan"
        model_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--noise", "amplitude-damping", "--p-start", "0",
                       "--p-stop", "0", "--p-step", "0.1", "--pipeline", "qnn",
                       "--model", str(model_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}:")
        assert err.endswith(": matrix is not unitary\n")
        assert not out.exists()

    def test_negative_trajectories_exit_nonzero(self, tmp_path, capsys):
        out = tmp_path / "model.txt"
        rc = cli.main(["train", "--noise", "amplitude-damping", "--p", "0.3",
                       "--trajectories", "-1", "--out", str(out)])
        assert rc == 1
        assert "error: trajectories must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_model_config_mismatch_via_cli(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        qnn.save_model(identity_model(2, 1), model_path)
        rc = cli.main(["sweep", "--noise", "bit-flip", "--p-start", "0",
                       "--p-stop", "0", "--p-step", "0.1", "--pipeline", "qnn",
                       "--model", str(model_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "width" in capsys.readouterr().err

    def test_model_with_purify_pipeline_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--noise", "amplitude-damping", "--p-start", "0",
                       "--p-stop", "0", "--p-step", "0.1", "--pipeline", "purify",
                       "--model", str(tmp_path / "missing.txt"), "--out", str(out)])
        assert rc == 1
        assert "purify-qnn" in capsys.readouterr().err
        assert not out.exists()

    def test_train_at_changes_the_qnn_sweep(self, tmp_path, capsys):
        csvs = []
        for train_at in ("0.1", "0.5"):
            out = tmp_path / f"qnn-{train_at}.csv"
            assert cli.main(["sweep", "--noise", "amplitude-damping", "--pipeline", "qnn",
                             "--p-start", "0.2", "--p-stop", "0.2", "--train-at", train_at,
                             "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] != csvs[1]

    @pytest.mark.parametrize("options, message", [
        (["--pipeline", "raw", "--rounds", "5"], "purify and purify-qnn"),
        (["--pipeline", "qnn", "--rounds", "2"], "purify and purify-qnn"),
        (["--pipeline", "raw", "--train-at", "0.9"], "qnn and purify-qnn"),
        (["--pipeline", "purify", "--train-at", "0.2"], "qnn and purify-qnn"),
        (["--pipeline", "qnn", "--model", "m.txt", "--train-at", "0.2"], "train_at"),
    ])
    def test_options_the_pipeline_ignores_exit_nonzero(self, options, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = cli.main(["sweep", "--noise", "amplitude-damping", "--p-start", "0",
                       "--p-stop", "0", "--p-step", "0.1", *options, "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # Only sweep and capacity score return noise; only sweep and train draw
    # random numbers.
    @pytest.mark.parametrize("argv", [
        ["capacity", "--noise", "depolarizing", "--p", "0.1", "--seed", "1"],
        ["purify-demo", "--noise", "bit-flip", "--p", "0.2", "--seed", "1"],
        ["purify-demo", "--noise", "bit-flip", "--p", "0.2", "--noise-stage", "both"],
        ["train", "--noise", "bit-flip", "--p", "0.2", "--noise-stage", "both",
         "--out", "unused.txt"],
    ])
    def test_unread_options_rejected(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# Each command's --help, a missing required option and an unrecognized
# option, then the calls that name no command.
_REQUIRED = {
    "sweep": ["--noise", "bit-flip", "--out", "x.csv"],
    "train": ["--noise", "bit-flip", "--p", "0.2", "--out", "m.txt"],
    "purify-demo": ["--noise", "bit-flip", "--p", "0.2"],
    "capacity": ["--noise", "bit-flip", "--p", "0.2"],
}
PARSER_EXITS = [argv for cmd, req in _REQUIRED.items()
                for argv in ([cmd, "--help"], [cmd, *req[:-2]], [cmd, *req, "--bogus"])]
PARSER_EXITS += [[], ["--help"], ["bogus"], ["--n", "3"]]


class TestCliParser:
    @pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
    def test_text_matches_the_full_parser(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        seen = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            out, err = capsys.readouterr()
            seen.append((exc.value.code, out, err))
        assert seen[0] == seen[1]
        assert not list(tmp_path.iterdir())

    def test_sweep_builds_one_subparser(self, tmp_path, monkeypatch, capsys):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert cli.main(["sweep", "--noise", "bit-flip", "--p-start", "0", "--p-stop", "0",
                         "--out", str(tmp_path / "x.csv")]) == 0
        assert built == ["sweep"]
        built.clear()
        cli.build_parser()
        assert built == ["sweep", "train", "purify-demo", "capacity"]
