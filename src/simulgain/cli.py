"""Command-line front end: dataset generation, training, threshold sweeps, reports.

Every setting lives in one JSON config file (every section optional,
defaults apply).  Flags name only files and directories: ``--config`` on
every command, ``--out`` on ``train``, ``sweep`` and ``report``, and
``--sweeps`` on ``report``.  Outputs are plot-ready CSV/JSONL and are
byte-identical across reruns with the same inputs and seeds.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MetricError, NumericError, Threshold, check_settings, require, setting
from .losses import LossWeights
from .metrics import (
    LatencyBand,
    bleu,
    latency_vs_position,
    nose,
    read_pareto_csv,
    write_csv,
    write_latency_bins_csv,
    write_nose_csv,
    write_pareto_csv,
)
from .policy import PolicyConfig, PolicyVariant, load_params, save_params
from .streaming import StreamConfig, load_logs, save_logs, sweep
from .synth import OracleModel, SynthConfig, draw_utterances, load_dataset, save_dataset
from .synth import generate_dataset  # noqa: F401  (re-exported; perfbench traces it under this name)
from .training import TrainConfig, train, write_training_csv

_LATENCY_BINS = 10  # position bins of latency_bins.csv


@dataclass(frozen=True)
class Paths:
    """Where a command reads and writes; relative paths resolve against the working directory."""

    dataset: str = "dataset.jsonl"
    checkpoint: str = "policy.ckpt"
    out_dir: str = "out"

    def __post_init__(self):
        check_settings(self)


@dataclass
class ExperimentConfig:
    """Every setting of a command; the config file's keys are these field names.

    Values arrive as JSON reads them, a section as a dict of its fields;
    ``__post_init__`` checks and converts them by their declared types.
    """

    synth: SynthConfig = field(default_factory=SynthConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    stream: StreamConfig = field(default_factory=StreamConfig)
    paths: Paths = field(default_factory=Paths)
    count: int = 100
    alphas: tuple[Threshold, ...] = ()
    band: LatencyBand | None = None

    def __post_init__(self):
        check_settings(self)
        if self.band is not None:
            try:
                self.band = LatencyBand(*setting(self.band, tuple[float, float], "band"))
            except MetricError as exc:
                raise ConfigError(f"band: {exc}") from None


def load_config(path: str | None, out_dir: str | None = None) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 text, or not JSON
            raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: must hold a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in data:
        require(key in known, key, "unknown config section")
    cfg = ExperimentConfig(**data)
    if out_dir is not None:
        cfg.paths = dataclasses.replace(cfg.paths, out_dir=out_dir)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _synth_record(synth: SynthConfig) -> dict:
    """The synth config as a checkpoint header stores it (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(synth)))


def _load_dataset(cfg: ExperimentConfig):
    """The dataset, refused when empty, with every token id checked against the oracle's vocabulary."""
    dataset = load_dataset(cfg.paths.dataset)
    require(bool(dataset), f"dataset {cfg.paths.dataset}", "holds no utterances")
    vocab = cfg.synth.vocab_size
    for utt in dataset:
        top = int(utt.target_tokens.max())
        if top >= vocab:
            raise ConfigError(f"dataset {cfg.paths.dataset}: utterance {utt.id}: token id {top} "
                              f"is not below synth.vocab_size {vocab}")
    return dataset


def _variant(value, source: str) -> str:
    """``value`` if it names a PolicyVariant, else ConfigError naming ``source``; reports write it unquoted."""
    try:
        return setting(value, PolicyVariant, "variant").value
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _stream_inputs(cfg: ExperimentConfig):
    """Dataset, oracle, policy and the checkpoint's variant.

    The checkpoint must have been trained against the oracle ``cfg.synth``
    builds: the same feature width and the same recorded synth config.
    """
    dataset, checkpoint = _load_dataset(cfg), cfg.paths.checkpoint
    params, extra = load_params(checkpoint)
    variant = _variant(extra.get("variant"), f"checkpoint {checkpoint}")
    if params.config.input_dim != cfg.synth.feature_dim:
        raise ConfigError(f"checkpoint {checkpoint}: input_dim {params.config.input_dim} does not match "
                          f"synth.feature_dim {cfg.synth.feature_dim}")
    if not isinstance(extra.get("synth"), dict):
        raise ConfigError(f"checkpoint {checkpoint}: records no synth config; retrain it")
    trained, ours = extra["synth"], _synth_record(cfg.synth)
    differing = [f"{key} {trained.get(key)!r} in the checkpoint, {ours.get(key)!r} in the config"
                 for key in sorted(set(trained) | set(ours)) if trained.get(key) != ours.get(key)]
    if differing:
        raise ConfigError(f"checkpoint {checkpoint}: trained on another synth config: {'; '.join(differing)}")
    return dataset, OracleModel(cfg.synth), params, variant


def cmd_gen(args) -> int:
    cfg = load_config(args.config)
    save_dataset(draw_utterances(cfg.synth, cfg.count), cfg.paths.dataset)
    print(f"wrote {cfg.count} utterances (seed {cfg.synth.rng_seed}) -> {cfg.paths.dataset}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.out)
    dataset = _load_dataset(cfg)
    variant = cfg.train.variant
    pconf = PolicyConfig.for_variant(variant, cfg.synth.feature_dim)
    report = train(OracleModel(cfg.synth), dataset, pconf, cfg.train, cfg.loss)
    out = _out_dir(cfg)  # before the checkpoint, so a refused --out leaves the old one in place
    extra = {"variant": variant.value, "objective": cfg.train.objective, "synth": _synth_record(cfg.synth)}
    save_params(report.params, cfg.paths.checkpoint, extra=extra)
    write_training_csv(report, out / "training.csv")
    last = report.records[-1]
    print(f"trained {variant.value} for {cfg.train.steps} steps: "
          f"loss {last.loss_total:.6f} -> {cfg.paths.checkpoint}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.out)
    alphas = cfg.alphas
    require(len(alphas) > 0, "alphas", "must be set in the config")
    dataset, oracle, params, variant = _stream_inputs(cfg)
    points, logs_by_alpha = sweep(oracle, params, dataset, alphas, cfg.stream, collect_logs=True)
    out = _out_dir(cfg)
    write_pareto_csv(points, out / "pareto.csv")
    for i, alpha in enumerate(alphas):
        save_logs(logs_by_alpha[alpha], out / f"logs_{i:02d}.jsonl")
    meta = {"variant": variant, "alphas": list(alphas),
            "dataset": cfg.paths.dataset, "checkpoint": cfg.paths.checkpoint}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n",
                                   encoding="utf-8")
    for p in points:
        print(f"alpha={p.alpha}: LAAL {p.mean_laal_s:.3f} s, BLEU {p.quality:.2f}, "
              f"read loops {p.read_loop_pct:.1f}%")
    print(f"wrote {out / 'pareto.csv'}")
    return 0


def cmd_report(args) -> int:
    cfg = load_config(args.config, args.out)
    require(cfg.band is not None, "band", "required for report (set \"band\": [x, y] in the config)")
    dataset = _load_dataset(cfg)
    oracle = OracleModel(cfg.synth)
    offline = bleu([oracle.greedy_tokens(utt, utt.duration_s, np.arange(utt.n_tokens)) for utt in dataset],
                   [list(u.target_tokens) for u in dataset])  # the full-audio quality NoSE divides by

    nose_rows, bins_rows = [], []
    mid = 0.5 * (cfg.band.x + cfg.band.y)
    # Every sweep is read and scored before the output directory is made, so a refused report leaves none.
    for index, sweep_dir in enumerate(args.sweeps, start=1):  # a row names its sweep by position
        sweep_path = Path(sweep_dir)
        meta_path = sweep_path / "meta.json"
        try:
            variant = json.loads(meta_path.read_text(encoding="utf-8"))["variant"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"sweep meta {meta_path}: malformed ({exc!r})") from None
        variant = _variant(variant, f"sweep meta {meta_path}")
        points = read_pareto_csv(sweep_path / "pareto.csv")
        nose_rows.append((variant, index, cfg.band, nose(points, offline, cfg.band)))
        pick = int(np.argmin([abs(p.mean_laal_s - mid) for p in points]))
        logs = load_logs(sweep_path / f"logs_{pick:02d}.jsonl")
        bins_rows.append((variant, index, latency_vs_position(logs, dataset, _LATENCY_BINS)))

    utt = dataset[0]
    n, t = np.meshgrid(np.arange(utt.n_tokens), oracle.frame_grid(utt), indexing="ij")
    gains = oracle.info_gain_many(utt, t, n)
    out = _out_dir(cfg)
    write_nose_csv(nose_rows, out / "nose.csv")
    write_latency_bins_csv(bins_rows, out / "latency_bins.csv")
    write_csv(out / "info_gain_grid.csv", ("t_s", "token_index", "info_gain"),
              zip(t.ravel(), n.ravel(), gains.ravel()))

    print(f"offline quality (full-audio BLEU): {offline:.2f}")
    for variant, _, band, value in nose_rows:
        print(f"NoSE[{band.x}, {band.y}] {variant}: {value:.4f}")
    print(f"wrote {out / 'nose.csv'}, {out / 'latency_bins.csv'}, {out / 'info_gain_grid.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simulgain",
                                     description="Information-gain read/write policy lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, text, out=True):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON config file")
        if out:  # gen writes only paths.dataset
            p.add_argument("--out", default=None, help="output directory, in place of paths.out_dir")
        p.set_defaults(func=func)
        return p

    add_command("gen", cmd_gen, "generate a synthetic dataset", out=False)
    add_command("train", cmd_train, "train a policy variant")
    add_command("sweep", cmd_sweep, "threshold sweep producing pareto.csv")
    p_report = add_command("report", cmd_report, "NoSE / latency-bin / info-gain reports")
    p_report.add_argument("--sweeps", nargs="+", required=True, help="sweep output directories")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (MetricError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
