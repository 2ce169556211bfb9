"""The workload process: set up one workload, then repeat its operation for a time budget.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
It writes JSON lines to stdout: ``{"ready": ...}`` once set-up is done, then
``{"host": ...}`` with ``--setup-only`` or else ``{"result": ...}`` after the
timed operations.  It times ``hostspeed.kernel`` after set-up and after each
operation.
Anything the package prints goes to stderr so it cannot mix with them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import envinfo
import hostspeed
import layers
import spans

ROOT = Path(__file__).resolve().parents[1]
HOST_EVERY_S = 0.1  # how often an untraced run times the host kernel
OUT_DIR = ROOT / "perfbench" / "out"


def emit(channel, key: str, payload: dict) -> None:
    channel.write(json.dumps({key: payload}) + "\n")
    channel.flush()


def import_package():
    """Import simulgain from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import simulgain
    import simulgain.cli  # noqa: F401  (not imported by the package itself)

    if not Path(simulgain.__file__).resolve().is_relative_to(src):
        raise ImportError(f"simulgain imported from {simulgain.__file__}, not from {src}")
    return simulgain


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    channel = sys.stdout
    sys.stdout = sys.stderr
    sg = import_package()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        return run_workload(args, sg, work_dir, channel)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work_dir, ignore_errors=True)


def run_workload(args, sg, work_dir: Path, channel) -> int:
    import workloads  # imports simulgain, so only once ``src`` is on the path

    # Untraced, the probes time the host kernel as the run goes; traced, the
    # kernel calls would land inside the spans.
    probes = layers.Probes(sg, host_every_s=None if args.trace else HOST_EVERY_S)
    recorder = spans.SpanRecorder()
    tracing = None
    if args.trace:
        tracing = layers.install_spans(sg, recorder)
        recorder.enabled = True
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, recorder)
    probes.mark(kernel=True)
    with recorder.span(layers.SETUP_SPAN):
        workload.setup()
    setup = probes.take()
    emit(channel, "ready", {"train_steps": setup.train_steps(setup.scaled("wall"))})
    # The host kernel's times during set-up and right after it, for scaling set-up time.
    host_s = [seconds for _, seconds in setup.kernel] + [hostspeed.burst()]
    if args.setup_only:
        emit(channel, "host", {"host_s": host_s})
        return 0

    ops = []
    repeats = []  # piece times of each untraced operation
    shape = None
    digests_seen = None
    traced_ops = {}
    begin = perf_counter()
    while True:
        i = len(ops)
        traced = bool(args.trace) and i % 2 == 1
        if args.trace:
            recorder.enabled = traced
            if traced:
                tracing = layers.install_spans(sg, recorder)
            else:
                tracing.undo()
        recorder.run_id = i + 1
        failures = []
        out = None
        probes.take()
        probes.mark(kernel=True)
        try:
            with recorder.span(layers.ROOT_SPAN):
                out = workload.run()
        except Exception:
            failures.append(traceback.format_exc())
        probes.mark(kernel=True)
        timeline = probes.take()
        wall, cpu = sum(timeline.pieces("wall")), sum(timeline.pieces("cpu"))
        sims = timeline.sims
        logs = [log for _, log, _ in sims]
        quality, digests = {}, {}
        if out is not None:
            try:
                quality, digests, problems = workload.check(out, logs)
                failures += problems
            except Exception:
                failures.append(traceback.format_exc())
        for _, log, n_tokens in sims:
            failures += layers.log_problems(log, n_tokens, workload.vocab_size)[:3]
        if digests_seen is None:
            digests_seen = digests
        elif digests != digests_seen:
            failures.append("output digests differ from the first operation's")
        if traced:
            traced_ops[i + 1] = (logs, workload.bytes_written)
        elif not failures:
            decisions = layers.stream_counts(logs, workloads.CHUNK.chunk_s)["decisions"]
            shape = shape or (timeline.shape(), decisions)
            if (timeline.shape(), decisions) != shape:
                failures.append("the operation made other calls or decisions than the first one")
            else:
                scaled_cpu = timeline.scaled("cpu")
                repeats.append({"wall": timeline.scaled("wall"), "cpu": scaled_cpu,
                                "simulate": timeline.simulate_cpu(scaled_cpu),
                                "train": timeline.train_steps(timeline.scaled("wall")),
                                "decisions": decisions})
        ops.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, "quality": quality,
                    "failures": failures})
        for f in failures:
            print(f"[{args.workload} op {i}] {f}", file=sys.stderr)
        typical = statistics.median(o["wall_s"] for o in ops if not o["traced"])
        if len(ops) >= (2 if args.trace else 1) and perf_counter() - begin + typical > args.seconds:
            break
    if tracing is not None and recorder.enabled:
        tracing.undo()

    result = {
        "ops": ops,
        "digests": digests_seen,
        "floor": floored(repeats),
        "host_s": host_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": envinfo.environment(ROOT),
    }
    if args.trace:
        result["per_layer"], result["trace_residual_s"] = trace_summary(
            recorder, ops, traced_ops, workloads.CHUNK.chunk_s)
        span_file = OUT_DIR / f"spans-{args.workload}.tsv.gz"
        spans.write_spans(span_file, recorder.spans())
        result["span_file"] = str(span_file.relative_to(ROOT))
    emit(channel, "result", result)
    return 0


def floored(repeats: list[dict]) -> dict:
    """Operation metrics from the fastest repeat of each piece, scaled to the reference host."""
    if not repeats:
        return {}
    simulate = layers.floor([r["simulate"] for r in repeats])
    return {"repeats": len(repeats),
            "wall_s": sum(layers.floor([r["wall"] for r in repeats])),
            "cpu_s": sum(layers.floor([r["cpu"] for r in repeats])),
            "train_steps_per_s": layers.train_rate([r["train"] for r in repeats]),
            "simulate": {"samples": len(simulate),
                         "p50_ms": layers.percentile(simulate, 0.5) * 1e3,
                         "p99_ms": layers.percentile(simulate, 0.99) * 1e3,
                         "decisions": repeats[0]["decisions"], "time_s": sum(simulate)}}


def trace_summary(recorder, ops, traced_ops, chunk_s):
    """Per-layer metrics of the traced operation with the median wall time."""
    traced = sorted(traced_ops, key=lambda run: ops[run - 1]["wall_s"])
    op_run = traced[len(traced) // 2]
    logs, bytes_written = traced_ops[op_run]
    untraced_wall = statistics.median(o["wall_s"] for o in ops if not o["traced"])
    return layers.per_layer(recorder.spans(), recorder.info, op_run, logs, chunk_s, untraced_wall, bytes_written)


if __name__ == "__main__":
    sys.exit(main())
