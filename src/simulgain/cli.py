"""Command-line front end: dataset generation, training, threshold sweeps, reports.

All commands read one JSON config file (every section optional, defaults
apply) plus a few overriding flags whose names mirror the config fields.
Outputs are plot-ready CSV/JSONL and are byte-identical across reruns with
the same inputs and seeds.

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


_POLICY_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PolicyConfig)}


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
    hidden_dims: tuple[int, ...] = _POLICY_DEFAULTS["hidden_dims"]
    time_base: float = _POLICY_DEFAULTS["time_base"]
    count: int = 100
    alphas: tuple[Threshold, ...] = ()
    band: LatencyBand | None = None
    report_bins: int = 10

    def __post_init__(self):
        check_settings(self)
        if self.band is not None:
            try:
                self.band = LatencyBand(*setting(self.band, tuple[float, float], "band"))
            except MetricError as exc:
                raise ConfigError(f"band: {exc}") from None
        require(self.report_bins >= 1, "report_bins", "must be >= 1")


def load_config(path: str | None, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
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
    if seed is not None:
        cfg.synth = dataclasses.replace(cfg.synth, rng_seed=seed)
        cfg.train = dataclasses.replace(cfg.train, rng_seed=seed)
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
    """The dataset, with every token id checked against the oracle's vocabulary."""
    dataset = load_dataset(cfg.paths.dataset)
    vocab = cfg.synth.vocab_size
    for utt in dataset:
        top = int(utt.target_tokens.max())
        if top >= vocab:
            raise ConfigError(f"dataset {cfg.paths.dataset}: utterance {utt.id}: token id {top} "
                              f"is not below synth.vocab_size {vocab}")
    return dataset


def _stream_inputs(cfg: ExperimentConfig):
    """Dataset, oracle, policy and checkpoint extras.

    The checkpoint must have been trained against the oracle ``cfg.synth``
    builds: the same feature width and the same recorded synth config.
    """
    dataset, checkpoint = _load_dataset(cfg), cfg.paths.checkpoint
    params, extra = load_params(checkpoint)
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
    return dataset, OracleModel(cfg.synth), params, extra


def cmd_gen(args) -> int:
    cfg = load_config(args.config, args.seed)
    count = args.count if args.count is not None else cfg.count
    save_dataset(draw_utterances(cfg.synth, count), cfg.paths.dataset)
    print(f"wrote {count} utterances (seed {cfg.synth.rng_seed}) -> {cfg.paths.dataset}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    for name in ("variant", "steps", "objective"):
        if getattr(args, name) is not None:
            cfg.train = dataclasses.replace(cfg.train, **{name: getattr(args, name)})
    dataset = _load_dataset(cfg)
    variant = cfg.train.variant
    pconf = PolicyConfig.for_variant(variant, cfg.synth.feature_dim, hidden_dims=cfg.hidden_dims,
                                     time_base=cfg.time_base)
    report = train(OracleModel(cfg.synth), dataset, pconf, cfg.train, cfg.loss)
    extra = {"variant": variant.value, "objective": cfg.train.objective, "synth": _synth_record(cfg.synth)}
    save_params(report.params, cfg.paths.checkpoint, extra=extra)
    out = _out_dir(cfg)
    write_training_csv(report, out / "training.csv")
    last = report.records[-1]
    print(f"trained {variant.value} for {cfg.train.steps} steps: "
          f"loss {last.loss_total:.6f} -> {cfg.paths.checkpoint}")
    return 0


def _parse_alpha(position: int, item: str) -> float:
    try:
        return float(item)
    except ValueError:
        raise ConfigError(f"--alphas: item {position}, {item!r}, is not a number") from None


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    alphas = cfg.alphas
    if args.alphas is not None:
        alphas = tuple(_parse_alpha(i, item) for i, item in enumerate(args.alphas.split(","), start=1))
    require(len(alphas) > 0, "alphas", "must be provided in the config or via --alphas")
    dataset, oracle, params, extra = _stream_inputs(cfg)
    points, logs_by_alpha = sweep(oracle, params, dataset, alphas, cfg.stream, collect_logs=True)
    out = _out_dir(cfg)
    write_pareto_csv(points, out / "pareto.csv")
    for i, alpha in enumerate(alphas):
        save_logs(logs_by_alpha[alpha], out / f"logs_{i:02d}.jsonl")
    meta = {"variant": extra.get("variant", "UNKNOWN"), "alphas": list(alphas),
            "dataset": cfg.paths.dataset, "checkpoint": cfg.paths.checkpoint}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n",
                                   encoding="utf-8")
    for p in points:
        print(f"alpha={p.alpha}: LAAL {p.mean_laal_s:.3f} s, BLEU {p.quality:.2f}, "
              f"read loops {p.read_loop_pct:.1f}%")
    print(f"wrote {out / 'pareto.csv'}")
    return 0


def _offline_quality(oracle: OracleModel, dataset) -> float:
    hyps = [oracle.greedy_tokens(utt, utt.duration_s, np.arange(utt.n_tokens)) for utt in dataset]
    return bleu(hyps, [list(u.target_tokens) for u in dataset])


def cmd_report(args) -> int:
    cfg = load_config(args.config, args.seed, args.out)
    require(cfg.band is not None, "band", "required for report (set \"band\": [x, y] in the config)")
    dataset = _load_dataset(cfg)
    oracle = OracleModel(cfg.synth)
    offline = _offline_quality(oracle, dataset)
    out = _out_dir(cfg)

    nose_rows, bins_rows = [], []
    mid = 0.5 * (cfg.band.x + cfg.band.y)
    for sweep_dir in args.sweeps:
        sweep_path = Path(sweep_dir)
        meta_path = sweep_path / "meta.json"
        try:
            variant = json.loads(meta_path.read_text(encoding="utf-8"))["variant"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"sweep meta {meta_path}: malformed ({exc!r})") from None
        points = read_pareto_csv(sweep_path / "pareto.csv")
        nose_rows.append((variant, cfg.band, nose(points, offline, cfg.band)))
        pick = int(np.argmin([abs(p.mean_laal_s - mid) for p in points]))
        logs = load_logs(sweep_path / f"logs_{pick:02d}.jsonl")
        bins_rows.append((variant, latency_vs_position(logs, dataset, cfg.report_bins)))

    write_nose_csv(nose_rows, out / "nose.csv")
    write_latency_bins_csv(bins_rows, out / "latency_bins.csv")

    utt = dataset[0]
    n, t = np.meshgrid(np.arange(utt.n_tokens), oracle.frame_grid(utt), indexing="ij")
    gains = oracle.info_gain_many(utt, t, n)
    write_csv(out / "info_gain_grid.csv", ("t_s", "token_index", "info_gain"),
              zip(t.ravel(), n.ravel(), gains.ravel()))

    print(f"offline quality (full-audio BLEU): {offline:.2f}")
    for variant, band, value in nose_rows:
        print(f"NoSE[{band.x}, {band.y}] {variant}: {value:.4f}")
    print(f"wrote {out / 'nose.csv'}, {out / 'latency_bins.csv'}, {out / 'info_gain_grid.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simulgain",
                                     description="Information-gain read/write policy lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override synth/train rng_seed")
        if out:  # gen writes only paths.dataset
            p.add_argument("--out", default=None, help="override output directory")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    add_common(p_gen, out=False)
    p_gen.add_argument("--count", type=int, default=None, help="number of utterances")
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a policy variant")
    add_common(p_train)
    p_train.add_argument("--variant", choices=[v.value for v in PolicyVariant], default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--objective", choices=["cov", "mse"], default=None)
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="threshold sweep producing pareto.csv")
    add_common(p_sweep)
    p_sweep.add_argument("--alphas", default=None, help="comma-separated thresholds")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="NoSE / latency-bin / info-gain reports")
    add_common(p_report)
    p_report.add_argument("--sweeps", nargs="+", required=True, help="sweep output directories")
    p_report.set_defaults(func=cmd_report)
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
