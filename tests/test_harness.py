import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzsdc import cli, harness, purify, qcore, qnn
from ghzsdc.capacity import holevo
from ghzsdc.harness import (
    CSV_HEADER,
    CorrectionPipeline,
    SweepConfig,
    SweepRecord,
    emit_records,
    p_grid,
    run_sweep,
    score_point,
)
from ghzsdc.noise import NoiseKind, NoiseSpec, NoiseStage, make_channel
from ghzsdc.sdc import (
    Codeword,
    _frame,
    distribute,
    ideal_received_state,
    run_protocol,
    shared_state,
    transmit,
    twirl,
)

from full_space import full_space_channel, noise_factors

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

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError):
            small_config(pipeline="bogus")

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rounds_below_one_rejected(self, rounds):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            small_config(pipeline="purify", rounds=rounds)

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


class TestEmbeddedNoiseChannel:
    def test_distribution_only_touches_qubit_zero(self):
        spec = NoiseSpec(NoiseKind.AMPLITUDE_DAMPING, 0.3, NoiseStage.DISTRIBUTION_ONLY)
        ch = full_space_channel(noise_factors(spec, 3))
        direct = qcore.apply_channel(shared_state(3).density(),
                                     make_channel(spec.kind, spec.p), [0])
        via = qcore.apply_channel(shared_state(3).density(), ch, [0, 1, 2])
        assert np.max(np.abs(direct.matrix - via.matrix)) < 1e-12

    def test_both_stage_composes_per_qubit(self):
        spec = NoiseSpec(NoiseKind.DEPOLARIZING, 0.2, NoiseStage.DISTRIBUTION_AND_RETURN)
        ch = full_space_channel(noise_factors(spec, 2))
        single = make_channel(spec.kind, spec.p)
        direct = qcore.apply_channel(shared_state(2).density(), single, [0])
        direct = qcore.apply_channel(direct, single, [1])
        via = qcore.apply_channel(shared_state(2).density(), ch, [0, 1])
        assert np.max(np.abs(direct.matrix - via.matrix)) < 1e-12

    def test_completeness(self):
        spec = NoiseSpec(NoiseKind.PHASE_FLIP, 0.4, NoiseStage.DISTRIBUTION_AND_RETURN)
        ch = full_space_channel(noise_factors(spec, 3))
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(total - np.eye(8))) < 1e-10


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

    def test_correction_runs_once_per_grid_point(self, monkeypatch):
        calls = []
        original = purify.purify_iterated

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(purify, "purify_iterated", counted)
        cfg = small_config(pipeline="purify")
        run_sweep(cfg)
        assert len(calls) == len(p_grid(cfg))

    @pytest.mark.parametrize("pipeline", ["raw", "purify"])
    @pytest.mark.parametrize("stage", list(NoiseStage))
    def test_sweep_matches_single_codeword_runs(self, pipeline, stage):
        cfg = small_config(pipeline=pipeline, noise_stage=stage,
                           p_start=0.1, p_stop=0.3, p_step=0.2)
        corrector = CorrectionPipeline(purify_rounds=cfg.rounds) if pipeline == "purify" else None
        records = run_sweep(cfg)
        assert [r.p for r in records] == p_grid(cfg)
        for record in records:
            spec = NoiseSpec(cfg.noise_kind, record.p, stage)
            single = [run_protocol(cfg.n, Codeword(cfg.n, x), spec, corrector).post_fidelity
                      for x in range(2 ** cfg.n)]
            assert record.avg_fidelity == np.mean(single)

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

    def test_model_width_mismatch_rejected(self, tmp_path):
        model = qnn.identity_model(qnn.NetworkArchitecture(2, 1))
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
    def test_orbit_predicate(self):
        for kind in NoiseKind:
            for stage in NoiseStage:
                assert NoiseSpec(kind, 0.3, stage).is_orbit == ((kind, stage) in ORBIT_NOISE)

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
        avg_fidelity, rep = score_point(shared, spec)
        codes = [Codeword(n, x) for x in range(2 ** n)]
        outputs = [transmit(shared, code, spec) for code in codes]
        fidelities = [qcore.fidelity(ideal_received_state(n, code), rho)
                      for code, rho in zip(codes, outputs)]
        assert avg_fidelity == np.mean(fidelities)
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
    # 3-qubit point plus n - 3 noiseless bits; this is the only check at
    # n = 8..10, where the per-codeword oracle is too slow.
    @settings(max_examples=20, deadline=None)
    @example(n=10, kind=NoiseKind.AMPLITUDE_DAMPING, pipeline="raw", p=0.2)
    @example(n=4, kind=NoiseKind.DEPOLARIZING, pipeline="purify", p=0.0)
    @example(n=9, kind=NoiseKind.BIT_FLIP, pipeline="purify", p=1.0)
    @given(n=st.integers(4, 9), kind=st.sampled_from(NoiseKind),
           pipeline=st.sampled_from(["raw", "purify"]), p=st.floats(0.0, 1.0))
    def test_distribution_noise_reduces_to_three_qubits(self, n, kind, pipeline, p):
        (wide,) = run_sweep(small_config(noise_kind=kind, n=n, pipeline=pipeline,
                                         p_start=p, p_stop=p))
        (narrow,) = run_sweep(small_config(noise_kind=kind, n=3, pipeline=pipeline,
                                           p_start=p, p_stop=p))
        assert abs(wide.holevo - (n - 3) - narrow.holevo) < 1e-12
        assert abs(wide.avg_fidelity - narrow.avg_fidelity) < 1e-15
        assert abs(wide.coherent_info - narrow.coherent_info - (n - 3)) < 1e-12


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
        assert model.architecture.input_width == 2

    def test_train_reports_training(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        rc = cli.main(["train", "--noise", "amplitude-damping", "--p", "0.3",
                       "--n", "2", "--iters", "3", "--trajectories", "20",
                       "--out", str(model_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"saved model to {model_path}"
        printed = dict(line.split(": ") for line in lines[1:])
        assert set(printed) == {"final cost", "iterations", "converged"}
        assert 1 <= int(printed["iterations"]) <= 3
        assert printed["converged"] in ("True", "False")
        cfg = SweepConfig(noise_kind=NoiseKind.AMPLITUDE_DAMPING, p_start=0.0, p_stop=0.0,
                          p_step=1.0, n=2, trajectories=20, train_iters=3)
        _, report = harness.train_inline_model(cfg, 0.3)
        assert printed["final cost"] == f"{report.final_cost:.6f}"
        assert printed["iterations"] == str(report.iterations)
        assert printed["converged"] == str(report.converged)

    def test_purify_demo_reports_gain(self, capsys):
        rc = cli.main(["purify-demo", "--noise", "bit-flip", "--p", "0.2",
                       "--rounds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fidelity before" in out
        assert "success probability" in out

    def test_capacity_subcommand(self, capsys):
        rc = cli.main(["capacity", "--noise", "depolarizing", "--p", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        for field in ("holevo", "classical capacity", "entropy exchange",
                      "coherent information", "quantum capacity"):
            assert field in out

    def test_capacity_above_density_cap_fails_fast(self, capsys):
        rc = cli.main(["capacity", "--noise", "amplitude-damping", "--n", "11", "--p", "0.2"])
        assert rc == 1
        assert "GHZ basis supports 2..10 qubits" in capsys.readouterr().err

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

    def test_negative_trajectories_exit_nonzero(self, tmp_path, capsys):
        out = tmp_path / "model.txt"
        rc = cli.main(["train", "--noise", "amplitude-damping", "--p", "0.3",
                       "--trajectories", "-1", "--out", str(out)])
        assert rc == 1
        assert "error: trajectories must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_model_config_mismatch_via_cli(self, tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        qnn.save_model(qnn.identity_model(qnn.NetworkArchitecture(2, 1)), model_path)
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

    @pytest.mark.parametrize("options, message", [
        (["--pipeline", "raw", "--rounds", "5"], "purify and purify-qnn"),
        (["--pipeline", "qnn", "--rounds", "2"], "purify and purify-qnn"),
        (["--pipeline", "raw", "--train-at", "0.9"], "--train-at"),
        (["--pipeline", "purify", "--train-at", "0.2"], "--train-at"),
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
