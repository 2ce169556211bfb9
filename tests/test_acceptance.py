"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is seeded and
single-threaded; reruns reproduce identical numbers.  The pathology bundle
(criteria 4, 5, 9) trains twelve small policy heads and takes a few minutes.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import simulgain as sg
from simulgain.cli import main as cli_main
from simulgain.metrics import LatencyBand, bleu, laal, nose
from simulgain.policy import PolicyConfig, PolicyVariant, init_params
from simulgain.streaming import GainThresholdPolicy, ThresholdPolicy, simulate

CHUNK = sg.StreamConfig()

# Pathology experiment: ambiguous tokens plus a heavy-tailed likelihood range.
PATHOLOGY_SYNTH = dict(vocab_size=50, ambiguity_prob=0.3, p_min=1e-6)
PATHOLOGY_WEIGHTS = sg.LossWeights(lambda_mono=0.1, lambda_l2=0.5, lambda_align=16.0, tau=0.5)
SEEDS = (0, 1, 2)
QUALITY_MATCH = 94.0
QUALITY_HIGH = 85.0


def verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- shared machinery for the pathology experiments ---------------------------

def schedule_laal(dataset) -> float:
    """LAAL of a policy that emits every token exactly at its boundary."""
    vals = []
    for u in dataset:
        log = sg.EmissionLog(utt_id=u.id, tokens=list(u.target_tokens),
                             delays_s=list(u.boundaries_s), duration_s=u.duration_s)
        vals.append(laal(log, u.n_tokens))
    return float(np.mean(vals))


def mean_laal_at(oracle, policy, dataset) -> float:
    logs = [simulate(oracle, u, policy, CHUNK) for u in dataset]
    return float(np.mean([laal(log, u.n_tokens) for log, u in zip(logs, dataset)]))


def latency_targeted_alphas(oracle, params, dataset, targets) -> list[float]:
    """Bisect thresholds so operating points span the requested mean latencies.

    Every step decides through one policy's score table (``with_alpha``), so
    each decision row is scored once per head, not once per step.
    """
    scores, _ = sg.score_info_gain_grid(oracle, params, dataset)
    policy = ThresholdPolicy(oracle, params, 0.0)
    alphas = []
    for target in targets:
        lo, hi = float(scores.min()) - 1.0, float(scores.max()) + 1.0
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            if mean_laal_at(oracle, policy.with_alpha(mid), dataset) > target:
                lo = mid
            else:
                hi = mid
        alphas.append(0.5 * (lo + hi))
    return alphas


@pytest.fixture(scope="module")
def pathology():
    """Per-seed sweeps of REINA / REINA_TAN / REINA_SAN plus the MSE ablation."""
    heads = (("REINA", PolicyVariant.REINA, "cov"),
             ("REINA_TAN", PolicyVariant.REINA_TAN, "cov"),
             ("REINA_SAN", PolicyVariant.REINA_SAN, "cov"),
             ("MSE", PolicyVariant.REINA, "mse"))
    bundle = {}
    for seed in SEEDS:
        cfg = sg.SynthConfig(rng_seed=1000 + seed, **PATHOLOGY_SYNTH)
        utterances = sg.generate_dataset(cfg, 220)
        train_ds, eval_ds = utterances[:160], utterances[160:]
        oracle = sg.OracleModel(cfg)
        sched = schedule_laal(eval_ds)
        targets = np.linspace(1.0, 7.0, 10) * sched
        band = LatencyBand(1.2 * sched, 5.5 * sched)
        offline = 100.0  # full-audio greedy decode is exact on this oracle
        points = {}
        nose_vals = {}
        for name, variant, objective in heads:
            pconf = PolicyConfig.for_variant(variant, cfg.feature_dim)
            tconf = sg.TrainConfig(variant=variant, steps=5000, rng_seed=seed,
                                   objective=objective)
            report = sg.train(oracle, train_ds, pconf, tconf, PATHOLOGY_WEIGHTS)
            alphas = latency_targeted_alphas(oracle, report.params, eval_ds, targets)
            points[name] = sg.sweep(oracle, report.params, eval_ds, alphas, CHUNK)
            nose_vals[name] = nose(points[name], offline, band)
        bundle[seed] = dict(points=points, nose=nose_vals, band=band, sched=sched,
                            eval_ds=eval_ds, oracle=oracle)
    return bundle


# -- criterion 1: gradient correctness ----------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.time()
    worst = {}
    for variant in PolicyVariant:
        pconf = PolicyConfig.for_variant(variant, input_dim=16)
        worst[variant.value] = sg.grad_check(pconf, sg.LossWeights(), variant,
                                             seed=11, n_coords=120)
    elapsed = time.time() - start
    ok = all(err <= 1e-4 for err in worst.values()) and elapsed < 60.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" ({elapsed:.1f}s)"
    assert verdict("1", ok, f"max relative gradient errors {detail}")


# -- criterion 2: formula fixtures --------------------------------------------

def test_criterion_2_formula_fixtures():
    checks = []
    emb = sg.time_embedding(0.0, 8)
    checks.append(np.array_equal(emb, [0, 1, 0, 1, 0, 1, 0, 1]))
    checks.append(abs(sg.align_target(2.0, 2.0, 0.5) - 0.5) < 1e-12)
    bn = sg.batch_normalize([1.0, 2.0, 3.0])
    checks.append(np.allclose(bn, [-1.22474, 0.0, 1.22474], atol=1e-4))
    checks.append(abs(sg.cov_loss([1.0, -1.0], [2.0, 0.0]) - 1.0) < 1e-4)
    checks.append(abs(sg.bce_align_loss([0.0], [0.5]) - math.log(2.0)) < 1e-9)
    log = sg.EmissionLog(utt_id="f", tokens=[1, 2], delays_s=[1.0, 2.0], duration_s=2.0)
    checks.append(abs(laal(log, 2) - 1.0) < 1e-12)
    checks.append(abs(bleu([[1, 2, 3, 4]], [[1, 2, 3, 4, 5]]) - 77.88) < 0.01)
    points = [sg.ParetoPoint(0.0, 1.0, 20.0, 0.0), sg.ParetoPoint(1.0, 3.0, 40.0, 0.0)]
    checks.append(nose(points, 40.0, LatencyBand(1.0, 3.0)) == 0.75)
    ok = all(checks)
    assert verdict("2", ok, f"{sum(checks)}/8 formula fixtures match hand values")


# -- criterion 3: oracle correlation ------------------------------------------

def test_criterion_3_oracle_correlation():
    start = time.time()
    cfg = sg.SynthConfig(vocab_size=50, rng_seed=101, ambiguity_prob=0.0)
    utterances = sg.generate_dataset(cfg, 250)
    train_ds, held_ds = utterances[:200], utterances[200:]
    oracle = sg.OracleModel(cfg)
    pconf = PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim)
    tconf = sg.TrainConfig(variant=PolicyVariant.REINA, steps=5000, rng_seed=1)
    report = sg.train(oracle, train_ds, pconf, tconf, sg.LossWeights())
    scores, gains = sg.score_info_gain_grid(oracle, report.params, held_ds)
    rho = sg.spearman(scores, gains)
    elapsed = time.time() - start
    ok = rho >= 0.8 and elapsed < 600.0
    assert verdict("3", ok, f"held-out Spearman rho = {rho:.4f} (>= 0.8) in {elapsed:.0f}s")


# -- criterion 4: read-loop pathology -----------------------------------------

def test_criterion_4_read_loop_pathology(pathology):
    # (a) at matched quality, the clockless baseline needs read loops; the
    #     time-aware variant does not, on every seed
    part_a = []
    for seed in SEEDS:
        points = pathology[seed]["points"]
        reina = min(points["REINA"], key=lambda p: abs(p.quality - QUALITY_MATCH))
        tan = min(points["REINA_TAN"], key=lambda p: abs(p.quality - QUALITY_MATCH))
        part_a.append(reina.read_loop_pct > tan.read_loop_pct)
    # (b) on the primary dataset, the alignment-supervised variant reaches
    #     high-latency, high-quality operating points with exactly zero read
    #     loops, where the baseline cannot
    points = pathology[SEEDS[0]]["points"]
    sched = pathology[SEEDS[0]]["sched"]
    san_high = [p for p in points["REINA_SAN"]
                if p.quality >= QUALITY_HIGH and p.mean_laal_s >= 3.0 * sched]
    san_zero = [p for p in san_high if p.read_loop_pct == 0.0]
    reina_high = [p for p in points["REINA"] if p.quality >= QUALITY_HIGH]
    reina_min_loops = min(p.read_loop_pct for p in reina_high)
    part_b = bool(san_zero) and reina_min_loops > 0.0
    ok = all(part_a) and part_b
    detail = (f"matched-quality loops REINA>TAN on {sum(part_a)}/{len(SEEDS)} seeds; "
              f"SAN zero-loop high-latency points {[(round(p.mean_laal_s, 2), round(p.quality, 1)) for p in san_zero]} "
              f"vs REINA min loops {reina_min_loops:.1f}%")
    assert verdict("4", ok, detail)


# -- criterion 5: Pareto ordering ---------------------------------------------

def test_criterion_5_pareto_ordering(pathology):
    tan_wins = sum(pathology[s]["nose"]["REINA_TAN"] >= pathology[s]["nose"]["REINA"]
                   for s in SEEDS)
    san_wins = sum(pathology[s]["nose"]["REINA_SAN"] >= pathology[s]["nose"]["REINA"]
                   for s in SEEDS)
    majority = len(SEEDS) // 2 + 1
    ok = tan_wins >= majority and san_wins >= majority
    values = "; ".join(
        f"seed {s}: REINA {pathology[s]['nose']['REINA']:.4f}, "
        f"TAN {pathology[s]['nose']['REINA_TAN']:.4f}, "
        f"SAN {pathology[s]['nose']['REINA_SAN']:.4f}" for s in SEEDS)
    detail = (f"NoSE(TAN)>=NoSE(REINA) on {tan_wins}/{len(SEEDS)} seeds, "
              f"NoSE(SAN)>=NoSE(REINA) on {san_wins}/{len(SEEDS)} seeds ({values})")
    if san_wins < majority <= tan_wins:
        detail += " - SAN ordering is not reproducible here; see decisions ledger"
    assert verdict("5", ok, detail)


# -- criterion 6: policy extremes ---------------------------------------------

def test_criterion_6_policy_extremes():
    cfg = sg.SynthConfig(rng_seed=77, ambiguity_prob=0.3)
    dataset = sg.generate_dataset(cfg, 20)
    oracle = sg.OracleModel(cfg)
    params = init_params(PolicyConfig.for_variant(PolicyVariant.REINA, cfg.feature_dim), 5)

    always_read = [simulate(oracle, u, ThresholdPolicy(oracle, params, -math.inf), CHUNK)
                   for u in dataset]
    reads_ok = all(laal(log, u.n_tokens) == u.duration_s
                   for log, u in zip(always_read, dataset))
    loops_ok = sg.read_loop_pct(always_read) == 100.0

    always_write = [simulate(oracle, u, ThresholdPolicy(oracle, params, math.inf), CHUNK)
                    for u in dataset]
    floor_ok = True
    for log, u in zip(always_write, dataset):
        floor = sg.EmissionLog(utt_id=u.id, tokens=list(u.target_tokens),
                               delays_s=[min(CHUNK.chunk_s, u.duration_s)] * u.n_tokens,
                               duration_s=u.duration_s)
        floor_ok &= log.delays_s == floor.delays_s
        floor_ok &= laal(log, u.n_tokens) == laal(floor, u.n_tokens)
    # nothing on the chunk grid can emit earlier, so this is the LAAL minimum
    for maker in (lambda: sg.WaitKPolicy(2), lambda: GainThresholdPolicy(oracle, 0.5)):
        for log, u in zip(always_write, dataset):
            other = simulate(oracle, u, maker(), CHUNK)
            floor_ok &= laal(other, u.n_tokens) >= laal(log, u.n_tokens)
    ok = reads_ok and loops_ok and floor_ok
    assert verdict("6", ok, "always-read gives LAAL = T with 100% loops; "
                            "always-write attains the chunk-grid LAAL floor")


# -- criterion 7: calibrated-policy equivalence --------------------------------

def test_criterion_7_calibrated_policy_equivalence():
    cfg = sg.SynthConfig(rng_seed=31)
    dataset = sg.generate_dataset(cfg, 20)
    oracle = sg.OracleModel(cfg)
    threshold = 0.05
    policy = GainThresholdPolicy(oracle, threshold)
    worst = 0.0
    for u in dataset:
        log = simulate(oracle, u, policy, CHUNK)
        for n, delay in enumerate(log.delays_s):
            boundary = oracle.write_boundary(u, n, threshold)
            assert boundary - 1e-9 <= delay <= boundary + CHUNK.chunk_s + 1e-9
            worst = max(worst, delay - boundary)
    assert verdict("7", True, f"all emissions within one chunk of the exact "
                              f"write boundary (worst gap {worst:.3f}s over 20 utterances)")


# -- criterion 8: pipeline determinism ----------------------------------------

def test_criterion_8_pipeline_determinism(tmp_path):
    config = {
        "synth": {"rng_seed": 13, "tokens_per_utt_range": [3, 5], "ambiguity_prob": 0.2},
        "train": {"variant": "REINA_TAN", "steps": 50, "batch_size": 32, "rng_seed": 13},
        "count": 10,
        "alphas": [-20.0, 0.0, 20.0],
        "band": [0.5, 3.5],
        "paths": {"dataset": str(tmp_path / "d.jsonl"), "checkpoint": str(tmp_path / "p.ckpt"),
                  "out_dir": str(tmp_path / "out")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run(tag):
        assert cli_main(["gen", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / f"s{tag}")]) == 0
        assert cli_main(["report", "--config", str(cfg_path), "--sweeps", str(tmp_path / f"s{tag}"),
                         "--out", str(tmp_path / f"r{tag}")]) == 0
        hashes = {}
        for name in ("d.jsonl", "p.ckpt"):
            hashes[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for sub in (f"s{tag}", f"r{tag}", "out"):
            for p in sorted((tmp_path / sub).iterdir()):
                hashes[f"{sub.rstrip(tag)}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
        return hashes

    first, second = run("A"), run("B")
    ok = first == second
    assert verdict("8", ok, f"{len(first)} pipeline artifacts byte-identical across reruns")


# -- criterion 9: MSE ablation -------------------------------------------------

def test_criterion_9_mse_ablation(pathology):
    wins = sum(pathology[s]["nose"]["MSE"] <= pathology[s]["nose"]["REINA"] for s in SEEDS)
    majority = len(SEEDS) // 2 + 1
    ok = wins >= majority
    values = "; ".join(f"seed {s}: cov {pathology[s]['nose']['REINA']:.4f}, "
                       f"mse {pathology[s]['nose']['MSE']:.4f}" for s in SEEDS)
    detail = f"NoSE(MSE)<=NoSE(cov) on {wins}/{len(SEEDS)} seeds ({values})"
    if not ok:
        detail += " - not reproducible against a noiseless analytic oracle; see decisions ledger"
    assert verdict("9", ok, detail)
