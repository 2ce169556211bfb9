"""The three workloads: set-up, the timed operation, and the checks on its outputs.

Every input is a function of the workload seed.  An operation is repeated on
the same inputs until the run's time is up, so its outputs, and their
digests, must agree from one operation to the next.  The benchmark calls
the package through module attributes (``training.train``, not a name bound
at import), so the probes and spans in ``layers`` see those calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

import simulgain.cli as cli
from simulgain import losses, metrics, policy, streaming, synth, training

# The pathology configuration of the acceptance gate: ambiguous tokens plus a
# heavy-tailed likelihood range, where the clockless head read-loops.
PATHOLOGY_SYNTH = dict(vocab_size=50, ambiguity_prob=0.3, p_min=1e-6)
PATHOLOGY_WEIGHTS = dict(lambda_mono=0.1, lambda_l2=0.5, lambda_align=16.0, tau=0.5)
OFFLINE_QUALITY = 100.0  # full-audio greedy decoding is exact on this oracle
CHUNK = streaming.StreamConfig()
LAAL_TARGETS = tuple(np.linspace(1.0, 7.0, 10))  # multiples of the boundary-schedule LAAL
BISECT_STEPS = 14
GAIN_THRESHOLDS = tuple(float(g) for g in np.geomspace(0.01, 10.0, 10))
WAIT_KS = tuple(float(k) for k in range(10))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def schedule_laal(dataset) -> float:
    """Mean LAAL of emitting every token exactly at its boundary."""
    return float(np.mean([metrics.laal(streaming.EmissionLog(
        utt_id=u.id, tokens=list(u.target_tokens), delays_s=list(u.boundaries_s),
        duration_s=u.duration_s), u.n_tokens) for u in dataset]))


def latency_band(sched: float) -> metrics.LatencyBand:
    """The NoSE band of the acceptance gate, in multiples of the schedule LAAL."""
    return metrics.LatencyBand(1.2 * sched, 5.5 * sched)


def stratified(cfg, skip: int, per_length: int) -> list:
    """The first ``per_length`` utterances of each token count after position ``skip``.

    Every run then streams the same number of tokens in the same mix of
    utterance lengths, so the work an operation does barely depends on the
    seed; only the boundaries, tokens and ambiguous positions change.
    """
    lo, hi = cfg.tokens_per_utt_range
    lengths = hi - lo + 1
    pool = synth.generate_dataset(cfg, skip + 12 * per_length * lengths)[skip:]
    picked, seen = [], Counter()
    for utt in pool:
        if seen[utt.n_tokens] < per_length:
            seen[utt.n_tokens] += 1
            picked.append(utt)
    if len(picked) < per_length * lengths:
        raise RuntimeError(f"seed {cfg.rng_seed}: fewer than {per_length} utterances of some length")
    return picked


def pareto_digest(points, path: Path) -> str:
    metrics.write_pareto_csv(points, path)
    return sha256(path.read_bytes())


class Workload:
    """One workload: ``setup`` once, then ``run`` (timed) and ``check`` per operation."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, recorder):
        self.seed = seed
        self.work_dir = work_dir
        self.span = recorder.span
        self.vocab_size = PATHOLOGY_SYNTH["vocab_size"]
        self.bytes_written = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict, logs) -> tuple[dict, dict, list[str]]:
        """(quality values, output digests, failed checks) of one operation.

        ``logs`` are the emission logs the operation's ``simulate`` calls
        returned, in call order.
        """
        raise NotImplementedError


def _finite_losses(report) -> list[str]:
    bad = [r.step for r in report.records
           if not all(math.isfinite(v) for v in (r.loss_total, r.loss_cov, r.loss_mono, r.loss_l2,
                                                  r.loss_align, r.grad_norm))]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


class Train(Workload):
    """REINA_ALL at batch 256 on 160 utterances, then held-out scoring and a short sweep."""

    name = "train"
    steps = 1500
    held_per_length = 4
    sweep_quantiles = (0.25, 0.5, 0.75)

    def setup(self):
        cfg = synth.SynthConfig(rng_seed=self.seed, **PATHOLOGY_SYNTH)
        self.oracle = synth.OracleModel(cfg)
        self.train_ds = synth.generate_dataset(cfg, 160)
        self.held = stratified(cfg, 160, self.held_per_length)
        variant = policy.PolicyVariant.REINA_ALL
        self.pconf = policy.PolicyConfig.for_variant(variant, cfg.feature_dim)
        self.tconf = training.TrainConfig(variant=variant, batch_size=256, steps=self.steps,
                                          rng_seed=self.seed)
        self.weights = losses.LossWeights(**PATHOLOGY_WEIGHTS)
        self.band = latency_band(schedule_laal(self.held))

    def run(self):
        report = training.train(self.oracle, self.train_ds, self.pconf, self.tconf, self.weights)
        scores, gains = training.score_info_gain_grid(self.oracle, report.params, self.held)
        rho = metrics.spearman(scores, gains)
        # Always-write and always-read bracket the quantile thresholds, so the
        # frontier covers the NoSE band.
        alphas = [float(scores.max()) + 1.0,
                  *(float(a) for a in np.quantile(scores, self.sweep_quantiles)[::-1]),
                  float(scores.min()) - 1.0]
        points = streaming.sweep(self.oracle, report.params, self.held, alphas, CHUNK)
        nose = metrics.nose(points, OFFLINE_QUALITY, self.band)
        return dict(report=report, rho=rho, nose=nose, points=points)

    def check(self, out, logs):
        csv = self.work_dir / "training.csv"
        training.write_training_csv(out["report"], csv)
        digests = {"training.csv": sha256(csv.read_bytes()),
                   "pareto.csv": pareto_digest(out["points"], self.work_dir / "pareto.csv")}
        return {"spearman_rho": out["rho"], "nose": out["nose"]}, digests, _finite_losses(out["report"])


class AlphaSearch(Workload):
    """Bisect a clockless REINA head to ten LAAL targets, then sweep it and two reference policies.

    The head is the same in every run: it is trained on the utterances of
    ``model_seed``, and only the streamed utterances come from the workload
    seed, so the spread between seeds is the inputs', not the checkpoint's.
    """

    name = "alpha_search"
    model_seed = 1000
    eval_per_length = 4
    checkpoint_steps = 1000

    def setup(self):
        cfg = synth.SynthConfig(rng_seed=self.model_seed, **PATHOLOGY_SYNTH)
        self.oracle = synth.OracleModel(cfg)
        train_ds = synth.generate_dataset(cfg, 160)
        # Skipping the first 160 keeps the streamed utterances apart from the
        # training ones when the seeds coincide.
        self.eval_ds = stratified(dataclasses.replace(cfg, rng_seed=self.seed), 160, self.eval_per_length)
        variant = policy.PolicyVariant.REINA
        report = training.train(self.oracle, train_ds, policy.PolicyConfig.for_variant(variant, cfg.feature_dim),
                                training.TrainConfig(variant=variant, steps=self.checkpoint_steps,
                                                     rng_seed=self.model_seed),
                                losses.LossWeights(**PATHOLOGY_WEIGHTS))
        self.params = report.params
        self.setup_problems = _finite_losses(report)
        sched = schedule_laal(self.eval_ds)
        self.targets = [t * sched for t in LAAL_TARGETS]
        self.band = latency_band(sched)

    def _mean_laal(self, alpha: float) -> float:
        pol = streaming.ThresholdPolicy(self.oracle, self.params, alpha)
        return float(np.mean([metrics.laal(streaming.simulate(self.oracle, u, pol, CHUNK), u.n_tokens)
                              for u in self.eval_ds]))

    def run(self):
        oracle, ds = self.oracle, self.eval_ds
        scores, gains = training.score_info_gain_grid(oracle, self.params, ds)
        rho = metrics.spearman(scores, gains)
        alphas = []
        for target in self.targets:
            lo, hi = float(scores.min()) - 1.0, float(scores.max()) + 1.0
            for _ in range(BISECT_STEPS):
                mid = 0.5 * (lo + hi)
                if self._mean_laal(mid) > target:
                    lo = mid
                else:
                    hi = mid
            alphas.append(0.5 * (lo + hi))
        points, logs = streaming.sweep(oracle, self.params, ds, alphas, CHUNK, collect_logs=True)
        nose = metrics.nose(points, OFFLINE_QUALITY, self.band)
        mid = 0.5 * (self.band.x + self.band.y)
        pick = int(np.argmin([abs(p.mean_laal_s - mid) for p in points]))
        bins = metrics.latency_vs_position(logs[float(alphas[pick])], ds, 10)
        gain_points = streaming.sweep(oracle, None, ds, GAIN_THRESHOLDS, CHUNK,
                                      policy_factory=lambda g: streaming.GainThresholdPolicy(oracle, g))
        waitk_points = streaming.sweep(oracle, None, ds, WAIT_KS, CHUNK,
                                       policy_factory=lambda k: streaming.WaitKPolicy(int(k)))
        return dict(rho=rho, nose=nose, alphas=alphas, points=points, bins=bins,
                    gain_points=gain_points, waitk_points=waitk_points)

    def check(self, out, logs):
        problems = list(self.setup_problems)
        if not out["bins"]:
            problems.append("latency_vs_position returned no bins")
        digests = {"alphas": sha256(repr(out["alphas"]).encode())}
        for key in ("points", "gain_points", "waitk_points"):
            digests[f"{key}.csv"] = pareto_digest(out[key], self.work_dir / f"{key}.csv")
        return {"spearman_rho": out["rho"], "nose": out["nose"]}, digests, problems


class CliPipeline(Workload):
    """``gen -> train -> sweep -> report`` through ``cli.main`` in a directory of its own."""

    name = "cli_pipeline"
    count = 100
    held_per_length = 4
    steps = 800
    # Always-write and always-read around a fine grid over the scores a
    # trained head gives, so the frontier covers the NoSE band.
    alphas = (1e3, 1.0, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0, -1e3)

    def setup(self):
        cfg = synth.SynthConfig(rng_seed=self.seed, **PATHOLOGY_SYNTH)
        self.oracle = synth.OracleModel(cfg)
        # The CLI generates the first ``count`` utterances of this stream.
        utts = synth.generate_dataset(cfg, self.count)
        self.held = stratified(cfg, self.count, self.held_per_length)
        self.pipe_dir = self.work_dir / "pipeline"
        self.pipe_dir.mkdir()
        band = latency_band(schedule_laal(utts))
        config = {
            "synth": {"rng_seed": self.seed, **PATHOLOGY_SYNTH},
            "train": {"variant": "REINA_TAN", "steps": self.steps, "batch_size": 256,
                      "rng_seed": self.seed},
            "loss": PATHOLOGY_WEIGHTS,
            "count": self.count,
            "alphas": list(self.alphas),
            "band": [band.x, band.y],
            "paths": {"dataset": "dataset.jsonl", "checkpoint": "policy.ckpt", "out_dir": "train_out"},
        }
        (self.pipe_dir / "config.json").write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        # The CLI resolves every path against the working directory, so the
        # artifacts, and their digests, do not depend on where the run lives.
        os.chdir(self.pipe_dir)
        self._rho_by_checkpoint: dict[str, float] = {}

    def run(self):
        commands = (("gen", ["gen", "--config", "config.json"]),
                    ("train", ["train", "--config", "config.json"]),
                    ("sweep", ["sweep", "--config", "config.json", "--out", "sweep"]),
                    ("report", ["report", "--config", "config.json", "--sweeps", "sweep", "--out", "report"]))
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in commands:
                with self.span(f"cli.{name}"):
                    codes[name] = cli.main(argv)
        return dict(codes=codes)

    def check(self, out, logs):
        problems = [f"cli {name} exited {code}" for name, code in out["codes"].items() if code != 0]
        files = sorted(p for p in self.pipe_dir.rglob("*") if p.is_file() and p.name != "config.json")
        digests = {p.relative_to(self.pipe_dir).as_posix(): sha256(p.read_bytes()) for p in files}
        self.bytes_written = sum(p.stat().st_size for p in files)
        quality = {}
        try:
            nose_rows = (self.pipe_dir / "report" / "nose.csv").read_text(encoding="utf-8").splitlines()
            quality["nose"] = float(nose_rows[1].split(",")[-1])
            ckpt = digests["policy.ckpt"]
            if ckpt not in self._rho_by_checkpoint:
                params, _ = policy.load_params(self.pipe_dir / "policy.ckpt")
                scores, gains = training.score_info_gain_grid(self.oracle, params, self.held)
                self._rho_by_checkpoint[ckpt] = metrics.spearman(scores, gains)
            quality["spearman_rho"] = self._rho_by_checkpoint[ckpt]
            saved = [log for i in range(len(self.alphas))
                     for log in streaming.load_logs(self.pipe_dir / "sweep" / f"logs_{i:02d}.jsonl")]
        except (OSError, IndexError, KeyError, ValueError) as exc:
            problems.append(f"pipeline outputs unreadable: {exc!r}")
        else:
            def key(log):
                return log.utt_id, list(log.tokens), list(log.delays_s), log.n_forced
            if [key(log) for log in saved] != [key(log) for log in logs]:
                problems.append("emission logs on disk differ from the simulated ones")
        shutil.rmtree(self.pipe_dir / "sweep", ignore_errors=True)
        shutil.rmtree(self.pipe_dir / "report", ignore_errors=True)
        shutil.rmtree(self.pipe_dir / "train_out", ignore_errors=True)
        for name in ("dataset.jsonl", "policy.ckpt"):
            (self.pipe_dir / name).unlink(missing_ok=True)
        return quality, digests, problems


WORKLOADS = {cls.name: cls for cls in (Train, AlphaSearch, CliPipeline)}
