import argparse
import dataclasses
import enum
import hashlib
import json
import math
import sys
import typing
import warnings

import numpy as np
import pytest

from simulgain.cli import ExperimentConfig, build_parser, cmd_report, main
from simulgain.errors import BatchError, ConfigError, MetricError, NumericError, ShapeError, Threshold, fits
from simulgain.losses import LossWeights
from simulgain.policy import forward_batch, load_params, save_params
from simulgain.streaming import StreamConfig, ThresholdPolicy, save_logs, sweep
from simulgain.synth import DatasetIndex, OracleModel, SynthConfig, load_dataset
from simulgain.training import TrainConfig


@pytest.fixture
def workspace(tmp_path):
    config = {
        "synth": {"rng_seed": 5, "tokens_per_utt_range": [3, 5], "ambiguity_prob": 0.2},
        "train": {"variant": "REINA", "steps": 40, "batch_size": 32, "rng_seed": 5},
        "stream": {"chunk_ms": 250.0},
        "count": 8,
        "alphas": [-30.0, 0.0, 30.0],
        "band": [0.5, 4.0],
        "paths": {
            "dataset": str(tmp_path / "data.jsonl"),
            "checkpoint": str(tmp_path / "policy.ckpt"),
            "out_dir": str(tmp_path / "out"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return tmp_path, path, config


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(cfg_path, config, **settings):
    """Update ``config`` and write it to ``cfg_path``: a dict updates its section, any other value replaces the field."""
    for key, value in settings.items():
        config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
    cfg_path.write_text(json.dumps(config))


class TestGen:
    def test_writes_loadable_dataset(self, workspace):
        tmp, cfg_path, config = workspace
        assert main(["gen", "--config", str(cfg_path)]) == 0
        dataset = load_dataset(config["paths"]["dataset"])
        assert len(dataset) == 8

    def test_same_seed_is_byte_identical(self, workspace):
        tmp, cfg_path, config = workspace
        main(["gen", "--config", str(cfg_path)])
        first = digest(tmp / "data.jsonl")
        main(["gen", "--config", str(cfg_path)])
        assert digest(tmp / "data.jsonl") == first

    def test_zero_count_is_config_error(self, workspace):
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, count=0)
        assert main(["gen", "--config", str(cfg_path)]) == 2

    def test_refused_count_leaves_the_dataset_alone(self, workspace):
        tmp, cfg_path, config = workspace
        zero = tmp / "zero.json"
        zero.write_text(json.dumps({**config, "count": 0}))
        assert main(["gen", "--config", str(zero)]) == 2
        assert not (tmp / "data.jsonl").exists()
        main(["gen", "--config", str(cfg_path)])
        first = digest(tmp / "data.jsonl")
        assert main(["gen", "--config", str(zero)]) == 2
        assert digest(tmp / "data.jsonl") == first

    @pytest.mark.parametrize("synth", [{"tokens_per_utt_range": [2**62, 2**62]}, {"frame_ms": 1e-310}],
                             ids=["tokens_per_utt_range", "frame_ms"])
    def test_refused_draw_leaves_the_dataset_alone(self, workspace, synth):
        # refused inside the draw, after the dataset's replacement has been opened
        tmp, cfg_path, config = workspace
        main(["gen", "--config", str(cfg_path)])
        before = (tmp / "data.jsonl").read_bytes()
        files = sorted(p.name for p in tmp.iterdir())
        write_config(cfg_path, config, synth=synth)
        assert main(["gen", "--config", str(cfg_path)]) == 2
        assert (tmp / "data.jsonl").read_bytes() == before
        assert sorted(p.name for p in tmp.iterdir()) == files

    @pytest.mark.parametrize("synth", [{"mean_token_gap_s": 1e-12, "gap_jitter_s": 0.0},
                                       {"mean_token_gap_s": 1e-300, "gap_jitter_s": 0.0}, {"frame_ms": 1e308}],
                             ids=["gap-1e-12", "gap-1e-300", "frame_ms-1e308"])
    def test_utterance_shorter_than_a_frame_lasts_one_frame(self, workspace, synth):
        # ceil(span / frame - 1e-9) is 0 for a span under a billionth of a frame; the utterance lasts one
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, synth=synth)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        frame_s = SynthConfig(**config["synth"]).frame_s
        assert {u.duration_s for u in load_dataset(config["paths"]["dataset"])} == {frame_s}

    def test_out_flag_is_refused(self, workspace, capsys):
        # gen writes only paths.dataset, so an output directory would be ignored
        tmp, cfg_path, _ = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(["gen", "--config", str(cfg_path), "--out", str(tmp / "gen_out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp / "gen_out").exists() and not (tmp / "data.jsonl").exists()

    def test_unknown_config_field_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synth": {"rng_sed": 1}}))
        assert main(["gen", "--config", str(bad)]) == 2


    @pytest.mark.parametrize("text, message", [pytest.param(text, message, id=text) for text, message in [
        ('[]', "config file {}: must hold a JSON object"),
        ('{"synth": 5}', "synth: must be a JSON object"),
        ('{"paths": 5}', "paths: must be a JSON object"),
        ('{"band": 3}', "band: must be a list"),
        ('{"band": [5, 1]}', "band: latency band needs 0 <= x < y, got [5.0, 1.0]"),
        ('{"band": [-1, 2]}', "band: latency band needs 0 <= x < y, got [-1.0, 2.0]"),
        ('{"synth": {"vocab_size": "50"}}', "vocab_size: must be an integer"),
        ('{"paths": {"dataset": 5}}', "dataset: must be a string"),
        ('{"train": {"variant": 5}}', "variant: must be one of REINA, REINA_TAN, REINA_SAN, REINA_ALL"),
        ('{"paths": {"output": "o"}}', "paths.output: unknown field"),
    ]])
    def test_config_value_of_the_wrong_type_is_config_error(self, tmp_path, text, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["gen", "--config", str(bad)]) == 2
        assert f"config error: {message.format(bad)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("sweep", '{"alphas": ["abc"]}', "alphas: must be a number and not NaN, got 'abc'"),
        ("gen", '{"band": [1.0]}', "band: must have 2 items"),
        ("gen", '{"band": [0.5, 1.0, 2.0]}', "band: must have 2 items"),
        ("gen", '{"synth": {"tokens_per_utt_range": [3]}}', "tokens_per_utt_range: must have 2 items"),
        ("gen", '{"alphas": 8}', "alphas: must be a list"),
    ])
    def test_config_string_that_is_no_number_is_config_error(self, tmp_path, command, text, message, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main([command, "--config", str(bad)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_config_section_error_keeps_its_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"synth": {"vocab_size": 1}}')
        assert main(["gen", "--config", str(bad)]) == 2
        assert "config error: vocab_size: must be >= 2" in capsys.readouterr().err

    def test_config_file_not_utf8_is_config_error(self, workspace, capsys):
        tmp, cfg_path, _ = workspace
        cfg_path.write_bytes(cfg_path.read_bytes() + b"\xff")
        assert main(["gen", "--config", str(cfg_path)]) == 2
        assert f"config error: config file {cfg_path}: 'utf-8' codec can't decode" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_matches_in_memory_training(self, workspace):
        tmp, cfg_path, config = workspace
        main(["gen", "--config", str(cfg_path)])
        assert main(["train", "--config", str(cfg_path)]) == 0
        params, extra = load_params(config["paths"]["checkpoint"])
        assert extra["variant"] == "REINA"

        from simulgain.policy import PolicyConfig, PolicyVariant
        from simulgain.training import train

        synth = SynthConfig(**config["synth"])
        oracle = OracleModel(synth)
        dataset = load_dataset(config["paths"]["dataset"])
        report = train(oracle, dataset,
                       PolicyConfig.for_variant(PolicyVariant.REINA, synth.feature_dim),
                       TrainConfig(**config["train"]), LossWeights())
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((5, synth.feature_dim))
        times = rng.uniform(0, 5, 5)
        np.testing.assert_array_equal(forward_batch(params, feats, times),
                                      forward_batch(report.params, feats, times))

    def test_one_step_training_emits_one_row(self, workspace):
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, train={"steps": 1})
        main(["gen", "--config", str(cfg_path)])
        assert main(["train", "--config", str(cfg_path)]) == 0
        lines = (tmp / "out" / "training.csv").read_text().splitlines()
        assert len(lines) == 2

    @pytest.mark.parametrize("earlier", [True, False], ids=["old_checkpoint", "no_checkpoint"])
    def test_refused_out_leaves_the_checkpoint_alone(self, workspace, capsys, earlier):
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, train={"steps": 2})
        main(["gen", "--config", str(cfg_path)])
        ckpt = tmp / "policy.ckpt"
        if earlier:
            main(["train", "--config", str(cfg_path)])
        before = ckpt.read_bytes() if earlier else None
        write_config(cfg_path, config, train={"rng_seed": 6})  # a run that would write other bytes
        blocker = tmp / "a_file"
        blocker.write_text("not a directory")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path), "--out", str(blocker)]) == 3
        assert capsys.readouterr().err.startswith("io error: ")
        assert (ckpt.read_bytes() if ckpt.exists() else None) == before

    def test_variant_recorded_in_header(self, workspace):
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, train={"steps": 2})
        main(["gen", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path)])
        reina = (tmp / "policy.ckpt").read_bytes().split(b"\n", 1)[0]
        write_config(cfg_path, config, train={"variant": "REINA_TAN"})
        main(["train", "--config", str(cfg_path)])
        tan = (tmp / "policy.ckpt").read_bytes().split(b"\n", 1)[0]
        assert reina != tan
        assert b"REINA_TAN" in tan

    def test_missing_dataset_is_io_error(self, workspace):
        tmp, cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path)]) == 3


class TestSweepAndReport:
    @pytest.fixture
    def pipeline(self, workspace):
        tmp, cfg_path, config = workspace
        main(["gen", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path)])
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 0
        return tmp, cfg_path, config

    def test_pareto_rows_per_alpha(self, pipeline):
        tmp, cfg_path, config = pipeline
        lines = (tmp / "sweep" / "pareto.csv").read_text().splitlines()
        assert len(lines) == 1 + len(config["alphas"])
        assert (tmp / "sweep" / "logs_00.jsonl").exists()
        assert (tmp / "sweep" / "logs_02.jsonl").exists()

    def test_extreme_alphas(self, pipeline):
        tmp, cfg_path, _ = pipeline
        from simulgain.metrics import read_pareto_csv

        points = read_pareto_csv(tmp / "sweep" / "pareto.csv")
        by_alpha = {p.alpha: p for p in points}
        assert by_alpha[-30.0].read_loop_pct == 100.0
        low_latency = by_alpha[30.0]
        assert low_latency.mean_laal_s == min(p.mean_laal_s for p in points)

    def test_sweep_reruns_byte_identically(self, pipeline):
        tmp, cfg_path, _ = pipeline
        first = digest(tmp / "sweep" / "pareto.csv")
        main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")])
        assert digest(tmp / "sweep" / "pareto.csv") == first

    @pytest.mark.parametrize("alpha", ["-inf", "0.0", "0.37", "inf"])
    def test_one_alpha_sweep_keeps_the_logs_of_the_library_sweep(self, pipeline, alpha):
        # streaming the dataset once at one threshold is a sweep of one alpha
        tmp, cfg_path, config = pipeline
        write_config(cfg_path, config, alphas=[float(alpha)])
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "one")]) == 0
        params, _ = load_params(config["paths"]["checkpoint"])
        oracle = OracleModel(SynthConfig(**config["synth"]))
        _, logs = sweep(oracle, params, load_dataset(config["paths"]["dataset"]), [float(alpha)],
                        StreamConfig(**config["stream"]), collect_logs=True)
        save_logs(logs[float(alpha)], tmp / "library.jsonl")
        assert (tmp / "one" / "logs_00.jsonl").read_bytes() == (tmp / "library.jsonl").read_bytes()

    def test_report_outputs(self, pipeline):
        tmp, cfg_path, _ = pipeline
        assert main(["report", "--config", str(cfg_path), "--sweeps", str(tmp / "sweep"),
                     "--out", str(tmp / "report")]) == 0
        nose_lines = (tmp / "report" / "nose.csv").read_text().splitlines()
        assert nose_lines[0] == "variant,sweep,band_x,band_y,nose"
        assert nose_lines[1].startswith("REINA,1,")
        bins_lines = (tmp / "report" / "latency_bins.csv").read_text().splitlines()
        assert bins_lines[0] == "variant,sweep,bin_center,mean_latency_s,ci_low,ci_high,count"
        assert all(line.startswith("REINA,1,") for line in bins_lines[1:])
        # ten bins of relative token position
        assert {float(line.split(",")[2]) for line in bins_lines[1:]} <= {(k + 0.5) / 10 for k in range(10)}

    def test_report_keeps_the_bins_of_every_sweep(self, pipeline):
        # two sweeps of one variant: each sweep's bins, in --sweeps order
        tmp, cfg_path, config = pipeline
        write_config(cfg_path, config, alphas=[0.5, -0.5])
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep2")]) == 0
        rows = {}
        for name, sweeps in (("a", ["sweep"]), ("b", ["sweep2"]), ("ab", ["sweep", "sweep2"])):
            assert main(["report", "--config", str(cfg_path), "--sweeps", *(str(tmp / s) for s in sweeps),
                         "--out", str(tmp / name)]) == 0
            rows[name] = (tmp / name / "latency_bins.csv").read_text().splitlines()
        # the sweep column is the sweep's 1-based position in --sweeps
        assert all(line.startswith("REINA,1,") for line in rows["a"][1:] + rows["b"][1:])
        second = [line.replace("REINA,1,", "REINA,2,", 1) for line in rows["b"][1:]]
        assert rows["ab"] == rows["a"] + second
        nose_lines = (tmp / "ab" / "nose.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in nose_lines[1:]] == [["REINA", "1"], ["REINA", "2"]]

    def test_repeated_utterance_id_is_numeric_failure(self, pipeline, capsys):
        tmp, cfg_path, _ = pipeline
        data = tmp / "data.jsonl"
        records = [json.loads(line) for line in data.read_text().splitlines()]
        records[1]["id"] = records[0]["id"]
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 0  # a sweep of this dataset
        assert main(["report", "--config", str(cfg_path), "--sweeps", str(tmp / "sweep"),
                     "--out", str(tmp / "report")]) == 4
        assert f"dataset repeats utterance id {records[0]['id']}" in capsys.readouterr().err

    def test_info_gain_grid_zero_at_full_audio(self, pipeline):
        tmp, cfg_path, config = pipeline
        main(["report", "--config", str(cfg_path), "--sweeps", str(tmp / "sweep"),
              "--out", str(tmp / "report")])
        dataset = load_dataset(config["paths"]["dataset"])
        duration = dataset[0].duration_s
        rows = (tmp / "report" / "info_gain_grid.csv").read_text().splitlines()[1:]
        at_end = [r for r in rows if float(r.split(",")[0]) == duration]
        assert len(at_end) == dataset[0].n_tokens
        assert all(float(r.split(",")[2]) == 0.0 for r in at_end)

    def test_report_is_idempotent(self, pipeline):
        tmp, cfg_path, _ = pipeline
        main(["report", "--config", str(cfg_path), "--sweeps", str(tmp / "sweep"),
              "--out", str(tmp / "report")])
        hashes = {p.name: digest(p) for p in (tmp / "report").iterdir()}
        main(["report", "--config", str(cfg_path), "--sweeps", str(tmp / "sweep"),
              "--out", str(tmp / "report")])
        assert {p.name: digest(p) for p in (tmp / "report").iterdir()} == hashes

    def test_band_outside_sweep_range_is_numeric_failure(self, pipeline, tmp_path):
        tmp, cfg_path, config = pipeline
        config["band"] = [90.0, 99.0]
        bad = tmp_path / "bad_band.json"
        bad.write_text(json.dumps(config))
        assert main(["report", "--config", str(bad), "--sweeps", str(tmp / "sweep"),
                     "--out", str(tmp / "r2")]) == 4


def test_flags_name_only_files_and_directories():
    # every setting lives in the config file; a flag only says where to read or write
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
               for name, sub in commands.items()}
    assert options == {"gen": {"--config"}, "train": {"--config", "--out"},
                       "sweep": {"--config", "--out"}, "report": {"--config", "--out", "--sweeps"}}


@pytest.mark.parametrize("command, flag, value", [
    *[(command, "--seed", "3") for command in ("gen", "train", "sweep", "report")],
    ("gen", "--count", "4"), ("train", "--variant", "REINA_TAN"), ("train", "--steps", "2"),
    ("train", "--objective", "mse"), ("sweep", "--alphas", "0.5"),
])
def test_removed_setting_flag_is_refused(workspace, capsys, command, flag, value):
    # each of these is set in the config file only (--seed as synth.rng_seed and train.rng_seed)
    tmp, cfg_path, _ = workspace
    argv = [command, "--config", str(cfg_path), flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + (["--sweeps", str(tmp / "sweep")] if command == "report" else []))
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp / "data.jsonl").exists() and not (tmp / "out").exists()


NAN = float("nan")


# The settings the config no longer has, as they were declared.  The optimizer recipe, the head's
# shape and the report's bin count are constants now, and a config that sets one, to any value, is
# refused by name: each case that set one when it was a setting now expects that refusal.
RETIRED_SETTINGS = (("train", "lr", float, 1e-3), ("train", "adam_betas", tuple[float, float], (0.9, 0.999)),
                    ("train", "adam_eps", float, 1e-8), ("train", "weight_decay", float, 1e-4),
                    ("train", "warmup_steps", int, 100), (None, "hidden_dims", tuple[int, ...], (64, 64)),
                    (None, "time_base", float, 100.0), (None, "report_bins", int, 10))


def _retired_refusal(section, name):
    return f"{section}.{name}: unknown field" if section else f"{name}: unknown config section"


RETIRED_REFUSALS = {name: _retired_refusal(section, name) for section, name, _, _ in RETIRED_SETTINGS}


@pytest.mark.parametrize("command, setting, field", [
    ("sweep", {"alphas": [NAN, 0.0]}, "alphas"),
    ("sweep", {"alphas": [math.inf, NAN]}, "alphas"),
    ("sweep", {"alphas": [0.0, NAN]}, "alphas"),
    ("sweep", {"alphas": [NAN]}, "alphas"),
    ("sweep", {"alphas": [-math.inf, NAN]}, "alphas"),
    ("sweep", {"stream": {"chunk_ms": NAN}}, "chunk_ms"),
    *[("train", {"loss": {name: NAN}}, name) for name in ("lambda_mono", "lambda_l2", "lambda_align", "tau")],
    ("train", {"loss": {"bn_epsilon": NAN}}, "loss.bn_epsilon"),  # no longer a field
    *[("train", {"train": {name: NAN}}, name)
      for name in ("lr", "adam_eps", "weight_decay", "label_noise_std", "batch_size", "steps", "warmup_steps")],
    ("train", {"train": {"samples_per_utterance": NAN}}, "train.samples_per_utterance"),  # no longer a field
    ("train", {"train": {"adam_betas": [0.9, NAN]}}, "adam_betas"),
    ("train", {"time_base": NAN}, "time_base"),
    ("train", {"band": [0.5, NAN]}, "band"),
])
def test_nan_setting_is_config_error(workspace, capsys, command, setting, field):
    tmp, cfg_path, config = workspace
    write_config(cfg_path, config, train={"steps": 2})
    main(["gen", "--config", str(cfg_path)])
    if command != "train":
        main(["train", "--config", str(cfg_path)])
    write_config(cfg_path, config, **setting)
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--out", str(tmp / "nan")]) == 2
    assert f"config error: {RETIRED_REFUSALS.get(field, f'{field}: ')}" in capsys.readouterr().err
    assert not (tmp / "nan").exists()


@pytest.mark.parametrize("command, setting, field", [
    ("train", {"synth": {"feature_dim": 16.5}}, "feature_dim"),
    ("gen", {"synth": {"vocab_size": 50.5}}, "vocab_size"),
    ("gen", {"count": 10.7}, "count"),
    ("gen", {"count": "x"}, "count"),
    ("gen", {"synth": {"tokens_per_utt_range": [3.9, 5]}}, "tokens_per_utt_range"),
    ("train", {"hidden_dims": [8.9]}, "hidden_dims"),
    ("train", {"train": {"steps": True}}, "steps"),
    ("train", {"train": {"rng_seed": True}}, "rng_seed"),
    ("gen", {"synth": {"rng_seed": 1.5}}, "rng_seed"),
    ("report", {"report_bins": 2.5}, "report_bins"),
    ("train", {"synth": {"tokens_per_utt_range": [3, 5.5]}}, "tokens_per_utt_range"),
])
def test_non_integer_setting_is_config_error(workspace, capsys, command, setting, field):
    # a non-integer is refused by name, never truncated
    tmp, cfg_path, config = workspace
    if command != "gen":
        main(["gen", "--config", str(cfg_path)])
    dataset = tmp / "data.jsonl"
    before = dataset.read_bytes() if dataset.exists() else None
    write_config(cfg_path, config, **setting)
    capsys.readouterr()
    argv = [command, "--config", str(cfg_path)] + ([] if command == "gen" else ["--out", str(tmp / "int")])
    assert main(argv + (["--sweeps", str(tmp / "sweep")] if command == "report" else [])) == 2
    refusal = RETIRED_REFUSALS.get(field, f"{field}: must be an integer")
    assert f"config error: {refusal}" in capsys.readouterr().err
    assert not (tmp / "int").exists()
    assert (dataset.read_bytes() if dataset.exists() else None) == before


def _settings():
    """(section or None, field, declared type, default) of every setting of a config file.

    Fields are found by their declared types, so a new field or section is
    covered without a new case.  A section is a setting too, with no
    default here; ``band`` is a pair.
    """
    types = typing.get_type_hints(ExperimentConfig)
    for f in dataclasses.fields(ExperimentConfig):
        kind = types[f.name]
        if dataclasses.is_dataclass(kind):
            yield None, f.name, kind, None
            section_types = typing.get_type_hints(kind)
            for g in dataclasses.fields(kind):
                yield f.name, g.name, section_types[g.name], g.default
        elif f.name == "band":
            yield None, "band", tuple[float, float], (0.5, 4.0)
        else:
            yield None, f.name, kind, f.default


def _case_settings():
    """``_settings()`` and the retired settings, each with the refusal of a retired one (None for a setting)."""
    for section, name, kind, default in _settings():
        yield section, name, kind, default, None
    for section, name, kind, default in RETIRED_SETTINGS:
        yield section, name, kind, default, _retired_refusal(section, name)


def _bad_number_cases():
    for section, name, kind, default, retired in _case_settings():
        item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else kind
        if item not in (int, float, Threshold):
            continue
        bad_values = {"str": "1", "bool": True, "null": None}
        if item is int:
            bad_values["int64"] = 2**63
        else:
            bad_values["nan"] = NAN
        if item is float:  # a Threshold may be +-inf
            bad_values["inf"] = math.inf
        for label, bad in bad_values.items():
            # a tuple field gets the bad value as its first item
            value = [bad, *default[1:]] if item is not kind else bad
            setting = {section: {name: value}} if section else {name: value}
            message = ("must fit in a 64-bit integer" if label == "int64" else "must be an integer" if item is int
                       else "must be finite, got inf" if label == "inf" else f"must be a number and not NaN, got {bad!r}")
            yield pytest.param(setting, retired or f"{name}: {message}",
                               id=f"{section + '.' if section else ''}{name}-{label}")


def test_bad_number_cases_cover_thresholds_and_infinity():
    ids = {case.id for case in _bad_number_cases()}
    assert {"alphas-nan", "synth.frame_ms-inf", "stream.chunk_ms-inf", "band-inf",
            "synth.vocab_size-int64", "train.batch_size-int64", "synth.tokens_per_utt_range-int64"} <= ids
    assert "alphas-inf" not in ids


def test_infinite_thresholds_are_accepted(workspace):
    tmp, cfg_path, config = workspace
    config["alphas"] = [math.inf, -math.inf]
    cfg_path.write_text(json.dumps(config))
    assert main(["gen", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("setting, message", _bad_number_cases())
def test_number_setting_that_is_no_number_is_config_error(workspace, capsys, setting, message):
    # numbers are JSON numbers: a string, a bool, null or NaN is refused by name, never coerced
    tmp, cfg_path, config = workspace
    write_config(cfg_path, config, **setting)
    assert main(["gen", "--config", str(cfg_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp / "data.jsonl").exists()


JSON_VALUES = {"string": "x", "number": 2, "bool": True, "null": None, "list": [], "object": {}}


def _refusal(kind, value):
    """The JSON type a setting of ``kind`` takes (None if no value of JSON_VALUES is valid), and the refusal."""
    if kind in (int, float, Threshold):
        return "number", "must be an integer" if kind is int else f"must be a number and not NaN, got {value!r}"
    if kind in (str, bool):
        return ("string", "must be a string") if kind is str else ("bool", "must be true or false")
    if isinstance(kind, enum.EnumMeta):  # "x" is no member either
        return None, f"must be one of {', '.join(member.value for member in kind)}"
    return ("list", "must be a list") if typing.get_origin(kind) is tuple else ("object", "must be a JSON object")


def _refused_type_cases():
    for section, name, kind, _, retired in _case_settings():
        for label, value in JSON_VALUES.items():
            accepted, message = _refusal(kind, value)
            if label != accepted and (name, label) != ("band", "null"):  # a null band is no band
                yield pytest.param(section, name, value, retired or f"{name}: {message}",
                                   id=f"{section + '.' if section else ''}{name}-{label}")


def test_refused_type_cases_cover_every_kind():
    ids = {case.id for case in _refused_type_cases()}
    assert {"paths-string", "paths.dataset-number", "train.variant-string", "train.variant-number",
            "train.objective-null", "count-list", "alphas-object", "synth.frame_ms-bool"} <= ids
    assert not {"paths.dataset-string", "band-null", "synth-object", "alphas-list",
                "synth.tokens_per_utt_range-list"} & ids


@pytest.mark.parametrize("section, name, value, message", _refused_type_cases())
def test_setting_of_a_refused_json_type_is_config_error(workspace, capsys, section, name, value, message):
    # every field, sections included, takes one JSON type; any other is refused by name, never coerced
    tmp, cfg_path, config = workspace
    if section:
        config[section] = {**config.get(section, {}), name: value}
    else:
        config[name] = value
    cfg_path.write_text(json.dumps(config))
    assert main(["gen", "--config", str(cfg_path)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp / "data.jsonl").exists()


@pytest.mark.parametrize("setting, field", [({"synth": {"frame_ms": 10**400}}, "frame_ms"),
                                            ({"alphas": [10**400]}, "alphas"),
                                            ({"band": [0.5, 10**400]}, "band")],
                         ids=["float", "threshold", "tuple-item"])
def test_integer_too_large_for_a_float_is_config_error(workspace, capsys, setting, field):
    tmp, cfg_path, config = workspace
    write_config(cfg_path, config, **setting)
    assert main(["gen", "--config", str(cfg_path)]) == 2
    assert f"config error: {field}: must fit in a float" in capsys.readouterr().err
    assert not (tmp / "data.jsonl").exists()


def tree_of(tmp):
    """Every path under ``tmp``, a file's with its digest."""
    return {path.relative_to(tmp): path.is_file() and digest(path) for path in tmp.rglob("*")}


NO_ROOM = "Unable to allocate 1.37 GiB for an array with shape (1637499, 7, 16) and data type float64"


def no_room_in(caller, allocate):
    """``allocate``, except that a call from the function ``caller`` raises numpy's MemoryError."""
    def call(*args, **kwargs):
        if sys._getframe(1).f_code is caller.__code__:
            raise MemoryError(NO_ROOM)
        return allocate(*args, **kwargs)
    return call


@pytest.mark.parametrize("command, settings, message, fault", [
    ("train", {"synth": {"vocab_size": 2**62}},
     f"vocab_size, feature_dim: the embeddings of {2**62} tokens in 16 dimensions", None),
    ("train", {"synth": {"feature_dim": 2**60}},
     f"vocab_size, feature_dim: the embeddings of 50 tokens in {2**60} dimensions", None),
    ("gen", {"synth": {"tokens_per_utt_range": [2**62, 2**62]}},
     f"tokens_per_utt_range: an utterance of {2**62} tokens", None),
    ("train", {"synth": {"frame_ms": 1e-300}}, "frame_ms: 1e-300 ms frames of the ", None),
    ("gen", {"synth": {"frame_ms": 1e-310}}, "frame_ms: 1e-310 ms frames of the ", None),
    ("train", {}, "frame_ms: 50.0 ms frames of the ", (np, "append", OracleModel.frame_grid)),
    ("train", {}, "frame_ms: 50.0 ms frames of 8 utterances do not fit", (np, "concatenate", DatasetIndex.__init__)),
    ("report", {}, "frame_ms: the information-gain grid of the ", (np, "meshgrid", cmd_report)),
    ("train", {"train": {"batch_size": 2**62, "steps": 2}}, f"batch_size: {2**62} rows do not fit in memory", None),
    ("sweep", {"stream": {"chunk_ms": 1e-300}}, "chunk_ms: 1e-300 ms chunks of the ", None),
    ("sweep", {}, "chunk_ms: 250.0 ms chunks of the ", (OracleModel, "features_many", ThresholdPolicy._score)),
], ids=["vocab_size", "feature_dim", "tokens_per_utt_range", "frame_ms", "gen-frame_ms", "frame_ms-grid",
        "frame_ms-index", "frame_ms-report", "batch_size", "chunk_ms", "chunk_ms-fill"])
def test_synth_setting_too_large_for_memory_is_config_error(workspace, capsys, monkeypatch, command, settings, message,
                                                           fault):
    # every setting that sizes an allocation, synth or not, is refused by the one rule of errors.fits.
    # Only sizes numpy refuses before it asks for memory: a smaller huge table could be granted by an
    # overcommitting allocator and then exhaust the machine.  An allocation numpy cannot place is a
    # MemoryError injected in-process at the call that makes it (``fault``): a 0.004 ms chunk, say,
    # only runs out under a memory cap.
    tmp, cfg_path, config = workspace
    main(["gen", "--config", str(cfg_path)])
    if command in ("sweep", "report"):
        main(["train", "--config", str(cfg_path)])
    if command == "report":
        main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")])
    write_config(cfg_path, config, **settings)
    if fault:
        target, name, caller = fault
        monkeypatch.setattr(target, name, no_room_in(caller, getattr(target, name)))
    before = tree_of(tmp)
    capsys.readouterr()
    paths = {"sweep": ["--out", str(tmp / "sweep")], "report": ["--sweeps", str(tmp / "sweep")]}.get(command, [])
    assert main([command, "--config", str(cfg_path), *paths]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "fit in memory" in err and "Traceback" not in err
    if command == "sweep":  # the refusal names the utterance
        assert " s utterance utt-00000 do not fit in memory (" in err
    if fault:  # and gives numpy's reason
        assert err.rstrip().endswith(f"({NO_ROOM})")
    assert tree_of(tmp) == before


@pytest.mark.parametrize("error", [ValueError("maximum supported dimension for an ndarray is 64"),
                                   MemoryError("Unable to allocate 8.00 EiB"), OverflowError("int too large"),
                                   ZeroDivisionError("float division by zero")], ids=lambda e: type(e).__name__)
def test_fits_refuses_a_size_by_its_setting(error):
    with pytest.raises(ConfigError) as info:
        with fits("chunk_ms", "1e-300 ms chunks do not fit"):
            raise error
    assert str(info.value) == f"chunk_ms: 1e-300 ms chunks do not fit in memory ({error})"
    assert info.value.__cause__ is None and info.value.__suppress_context__  # raised from None


@pytest.mark.parametrize("error", [ConfigError("variant: unknown"), ShapeError("lengths differ"), BatchError("empty"),
                                   MetricError("empty band"), NumericError("non-finite loss"), KeyError("id")],
                         ids=lambda e: type(e).__name__)
def test_fits_passes_other_errors_through(error):
    with pytest.raises(type(error)) as info:
        with fits("batch_size", "4 rows do not fit"):
            raise error
    assert info.value is error


def test_checkpoint_that_records_an_integer_float_is_accepted(workspace):
    # float settings are stored as floats, so new headers record 50.0 where older ones recorded 50
    tmp, cfg_path, config = workspace
    write_config(cfg_path, config, synth={"frame_ms": 50}, train={"steps": 2})
    main(["gen", "--config", str(cfg_path)])
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = tmp / "policy.ckpt"
    header, arrays = ckpt.read_bytes().split(b"\n", 1)
    record = json.loads(header)
    assert type(record["extra"]["synth"]["frame_ms"]) is float
    record["extra"]["synth"]["frame_ms"] = 50
    ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 0
    assert (tmp / "sweep" / "pareto.csv").exists()


@pytest.mark.parametrize("section, name, value", [("train", "t_grid", "uniform"),
                                                  ("train", "samples_per_utterance", 5),
                                                  ("loss", "bn_epsilon", 1e-5),
                                                  ("stream", "alpha", 0.0),
                                                  *[(section, name, default)
                                                    for section, name, _, default in RETIRED_SETTINGS]])
def test_removed_setting_is_unknown_field(workspace, capsys, section, name, value):
    # refused whatever its value; the retired settings are given their old defaults
    tmp, cfg_path, config = workspace
    main(["gen", "--config", str(cfg_path)])
    write_config(cfg_path, config, **({section: {name: value}} if section else {name: value}))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert f"config error: {_retired_refusal(section, name)}" in capsys.readouterr().err
    assert not (tmp / "policy.ckpt").exists()


class TestBadInputFiles:
    """A malformed input file exits 2, naming the file, instead of raising."""

    @pytest.fixture
    def trained(self, workspace, capsys):
        tmp, cfg_path, config = workspace
        write_config(cfg_path, config, train={"steps": 2})
        main(["gen", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path)])
        capsys.readouterr()
        return tmp, cfg_path, config

    def test_truncated_checkpoint(self, trained, capsys):
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-3])
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        assert f"checkpoint {ckpt}: malformed or truncated" in capsys.readouterr().err

    def test_checkpoint_extra_not_an_object(self, trained, capsys):
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        header, arrays = ckpt.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        record["extra"] = []
        ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        assert f"checkpoint {ckpt}: malformed or truncated" in capsys.readouterr().err

    def test_malformed_dataset_line(self, trained, capsys):
        tmp, cfg_path, config = trained
        data = tmp / "data.jsonl"
        lines = data.read_text().splitlines()
        lines[2] = lines[2][:-7]
        data.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"dataset {data}, line 3:" in err

    def test_dataset_not_utf8(self, trained, capsys):
        tmp, cfg_path, config = trained
        data = tmp / "data.jsonl"
        data.write_bytes(data.read_bytes() + b"\xff")
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"config error: dataset {data}: not UTF-8 text" in capsys.readouterr().err

    def test_checkpoint_for_another_feature_dim(self, trained, capsys, tmp_path):
        tmp, cfg_path, config = trained
        config["synth"]["feature_dim"] = 8
        other = tmp_path / "dim8.json"
        other.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(other), "--out", str(tmp / "sweep8")]) == 2
        err = capsys.readouterr().err
        assert str(tmp / "policy.ckpt") in err and "input_dim 16" in err and "feature_dim 8" in err


    def test_checkpoint_for_another_synth_config(self, trained, capsys, tmp_path):
        tmp, cfg_path, config = trained
        config["synth"]["rng_seed"] = 99
        other = tmp_path / "seed99.json"
        other.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(other), "--out", str(tmp / "sweep99")]) == 2
        err = capsys.readouterr().err
        assert str(tmp / "policy.ckpt") in err and "rng_seed 5 in the checkpoint, 99 in the config" in err

    def test_checkpoint_without_synth_config(self, trained, capsys):
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        header, arrays = ckpt.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        del record["extra"]["synth"]
        ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        assert f"checkpoint {ckpt}: records no synth config" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_checkpoint_with_non_finite_parameters(self, trained, capsys, value):
        # a NaN head scores NaN, which never exceeds a threshold: every alpha would write at once
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        params, extra = load_params(ckpt)
        params.weights[-1][...] = value
        save_params(params, ckpt, extra)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        err = capsys.readouterr().err
        assert f"config error: checkpoint {ckpt}: " in err and "NaN or infinite" in err
        assert not (tmp / "sweep").exists()

    @pytest.mark.parametrize("shapes", [[[1]], [[16, 64], [64, 64], [64, 1]], None],
                             ids=["one", "weights-only", "none"])
    def test_checkpoint_whose_shapes_are_not_its_configs(self, trained, capsys, shapes):
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        header, arrays = ckpt.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        if shapes is None:  # a header that records no shapes
            del record["shapes"]
        else:
            record["shapes"] = shapes
        ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        err = capsys.readouterr().err
        assert f"config error: checkpoint {ckpt}: malformed or truncated" in err and "shapes" in err
        assert not (tmp / "sweep").exists()

    @pytest.mark.parametrize("variant", ["REINA_TAN", "REINA_ALL"])
    def test_checkpoint_whose_variant_is_not_its_head(self, trained, capsys, variant):
        # the fixture trains a clockless REINA head; a clocked label would mislabel every report row
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        header, arrays = ckpt.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        record["extra"]["variant"] = variant
        ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        assert (f"config error: checkpoint {ckpt}: variant {variant} requires use_time_embedding=True"
                in capsys.readouterr().err)
        assert not (tmp / "sweep").exists()

    @pytest.fixture
    def swept(self, trained, capsys):
        tmp, cfg_path, config = trained
        sweep_dir = tmp / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(sweep_dir)]) == 0
        capsys.readouterr()
        return cfg_path, sweep_dir

    def report(self, cfg_path, sweep_dir):
        return main(["report", "--config", str(cfg_path), "--sweeps", str(sweep_dir),
                     "--out", str(sweep_dir.parent / "report")])

    def test_truncated_sweep_logs(self, swept, capsys):
        cfg_path, sweep_dir = swept
        for logs in sweep_dir.glob("logs_*.jsonl"):
            logs.write_bytes(logs.read_bytes()[:50])
        assert self.report(cfg_path, sweep_dir) == 2
        err = capsys.readouterr().err
        assert f"emission logs {sweep_dir / 'logs_'}" in err and ".jsonl, line 1: JSONDecodeError" in err

    def test_short_pareto_row(self, swept, capsys):
        cfg_path, sweep_dir = swept
        pareto = sweep_dir / "pareto.csv"
        lines = pareto.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:2])
        pareto.write_text("\n".join(lines) + "\n")
        assert self.report(cfg_path, sweep_dir) == 2
        assert f"pareto csv {pareto}, line 3: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("pattern, kind", [("logs_*.jsonl", "emission logs"), ("pareto.csv", "pareto csv")])
    def test_sweep_file_not_utf8(self, swept, capsys, pattern, kind):
        cfg_path, sweep_dir = swept
        for path in sweep_dir.glob(pattern):  # report reads one of the logs, the one nearest the band
            path.write_bytes(path.read_bytes() + b"\xff")
        assert self.report(cfg_path, sweep_dir) == 2
        err = capsys.readouterr().err
        assert f"config error: {kind} {sweep_dir / pattern.split('*')[0]}" in err and ": not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["train", "sweep", "report"])
    @pytest.mark.parametrize("token", [50, 60])
    def test_token_outside_the_vocabulary(self, swept, capsys, command, token):
        cfg_path, sweep_dir = swept
        data = sweep_dir.parent / "data.jsonl"
        records = [json.loads(line) for line in data.read_text().splitlines()]
        records[1]["tokens"][-1] = token  # the synth config's vocab_size is the default 50
        data.write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = {"train": [], "sweep": ["--out", str(sweep_dir.parent / "sweep2")],
                "report": ["--sweeps", str(sweep_dir), "--out", str(sweep_dir.parent / "report")]}[command]
        assert main([command, "--config", str(cfg_path), *argv]) == 2
        err = capsys.readouterr().err
        assert (f"config error: dataset {data}: utterance {records[1]['id']}: token id {token} "
                "is not below synth.vocab_size 50") in err

    @pytest.mark.parametrize("command", ["train", "sweep", "report"])
    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank_lines"])
    def test_dataset_without_utterances(self, swept, capsys, command, text):
        # refused once, where the dataset is loaded, before any mean over no utterances can warn
        cfg_path, sweep_dir = swept
        data = sweep_dir.parent / "data.jsonl"
        data.write_text(text)
        argv = {"train": [], "sweep": ["--out", str(sweep_dir.parent / "sweep2")],
                "report": ["--sweeps", str(sweep_dir), "--out", str(sweep_dir.parent / "report")]}[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(cfg_path), *argv]) == 2
        err = capsys.readouterr().err
        assert f"config error: dataset {data}: holds no utterances" in err
        assert "RuntimeWarning" not in err and not caught, [str(w.message) for w in caught]

    def test_malformed_sweep_meta(self, swept, capsys):
        cfg_path, sweep_dir = swept
        (sweep_dir / "meta.json").write_text("{")
        assert self.report(cfg_path, sweep_dir) == 2
        assert f"sweep meta {sweep_dir / 'meta.json'}: malformed" in capsys.readouterr().err
        assert not (sweep_dir.parent / "report").exists()

    def test_sweep_of_another_dataset(self, swept, capsys):
        # the same utterance ids with other tokens: the report's bins and offline BLEU would be the other dataset's
        cfg_path, sweep_dir = swept
        data = sweep_dir.parent / "data.jsonl"
        records = [json.loads(line) for line in data.read_text().splitlines()]
        records[0]["tokens"][0] = (records[0]["tokens"][0] + 1) % 50
        data.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records))
        assert self.report(cfg_path, sweep_dir) == 2
        err = capsys.readouterr().err
        assert f"config error: sweep meta {sweep_dir / 'meta.json'}: made with other inputs" in err
        assert "dataset_sha256 '" in err and err.rstrip().endswith("; re-run sweep")
        assert not (sweep_dir.parent / "report").exists()

    def test_sweep_of_another_synth_config(self, swept, capsys, tmp_path):
        cfg_path, sweep_dir = swept
        config = json.loads(cfg_path.read_text())
        other = tmp_path / "other_synth.json"
        write_config(other, config, synth={"p_max": 0.3, "p_min": 0.2})
        assert self.report(other, sweep_dir) == 2
        err = capsys.readouterr().err
        assert f"config error: sweep meta {sweep_dir / 'meta.json'}: made with other inputs" in err
        assert "p_max 0.9 in the sweep meta, 0.3 in the config; p_min 0.005 in the sweep meta, 0.2 in the config" in err
        assert not (sweep_dir.parent / "report").exists()

    @pytest.mark.parametrize("keys, message", [
        (["synth", "dataset_sha256"], "records no synth config; re-run sweep"),
        (["dataset_sha256"], "made with other inputs than the config's: dataset_sha256 None in the sweep meta, '"),
    ], ids=["neither", "dataset_sha256"])
    def test_sweep_meta_without_its_inputs_record(self, swept, capsys, keys, message):
        # a sweep written before meta.json recorded its inputs
        cfg_path, sweep_dir = swept
        meta_path = sweep_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        for key in keys:
            del meta[key]
        meta_path.write_text(json.dumps(meta))
        assert self.report(cfg_path, sweep_dir) == 2
        err = capsys.readouterr().err
        assert f"config error: sweep meta {meta_path}: {message}" in err and "re-run sweep" in err
        assert not (sweep_dir.parent / "report").exists()

    def test_missing_sweep_is_io_error(self, swept, capsys):
        cfg_path, sweep_dir = swept
        assert self.report(cfg_path, sweep_dir.parent / "no_sweep") == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and str(sweep_dir.parent / "no_sweep" / "meta.json") in err
        assert not (sweep_dir.parent / "report").exists()

    # reports write the variant unquoted into CSV rows, so only a PolicyVariant name is taken
    UNKNOWN_VARIANTS = pytest.mark.parametrize("variant", ["REINA,evil\nrow", "reina", 5, None],
                                               ids=["csv-row", "lowercase", "number", "none"])
    VARIANT_REFUSAL = "variant: must be one of REINA, REINA_TAN, REINA_SAN, REINA_ALL"

    @UNKNOWN_VARIANTS
    def test_checkpoint_of_an_unknown_variant(self, trained, capsys, variant):
        tmp, cfg_path, config = trained
        ckpt = tmp / "policy.ckpt"
        header, arrays = ckpt.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        if variant is None:  # a header that records no variant
            del record["extra"]["variant"]
        else:
            record["extra"]["variant"] = variant
        ckpt.write_bytes(json.dumps(record).encode() + b"\n" + arrays)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp / "sweep")]) == 2
        assert f"config error: checkpoint {ckpt}: {self.VARIANT_REFUSAL}" in capsys.readouterr().err
        assert not (tmp / "sweep").exists()

    @UNKNOWN_VARIANTS
    def test_sweep_meta_of_an_unknown_variant(self, swept, capsys, variant):
        cfg_path, sweep_dir = swept
        meta_path = sweep_dir / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "variant": variant}))
        assert self.report(cfg_path, sweep_dir) == 2
        assert f"config error: sweep meta {meta_path}: {self.VARIANT_REFUSAL}" in capsys.readouterr().err
        assert not (sweep_dir.parent / "report").exists()


def test_end_to_end_pipeline_determinism(tmp_path):
    # same seeds and inputs -> byte-identical artifacts for every stage
    config = {
        "synth": {"rng_seed": 9, "tokens_per_utt_range": [3, 4]},
        "train": {"variant": "REINA_TAN", "steps": 25, "batch_size": 16, "rng_seed": 9},
        "count": 6,
        "alphas": [-1.0, 0.0, 1.0],
        "band": [0.5, 3.0],
        "paths": {"dataset": str(tmp_path / "d.jsonl"), "checkpoint": str(tmp_path / "p.ckpt"),
                  "out_dir": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))

    def run_all(tag):
        main(["gen", "--config", str(cfg_path)])
        main(["train", "--config", str(cfg_path)])
        main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / f"sweep{tag}")])
        main(["report", "--config", str(cfg_path), "--sweeps", str(tmp_path / f"sweep{tag}"),
              "--out", str(tmp_path / f"report{tag}")])
        out = {}
        for name in ("d.jsonl", "p.ckpt"):
            out[name] = digest(tmp_path / name)
        for p in sorted((tmp_path / f"sweep{tag}").iterdir()):
            out[f"sweep/{p.name}"] = digest(p)
        for p in sorted((tmp_path / f"report{tag}").iterdir()):
            out[f"report/{p.name}"] = digest(p)
        return out

    assert run_all("A") == run_all("B")
