"""simulgain benchmark: one workload, one seed, a fixed time budget.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

Starts the workload in fresh worker processes with BLAS pinned to one
thread and a fixed hash seed.  Untraced, it sets up ``SETUPS`` times to time
set-up and lets the last worker run the timed operations, whose timings are
scaled to the reference host and floored over the repeats (see README.md);
traced, one worker alternates untraced and traced operations.  It prints each metric with its unit, a
``{"record": ...}`` line with the environment and output digests, and, as the
last line, the result object.  It exits 1 when an output check fails and 2
when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process and the JSON lines it writes."""

    def __init__(self, argv: list[str], threads: int):
        env = dict(os.environ, PYTHONHASHSEED="0", **{var: str(threads) for var in THREAD_VARS})
        self.started = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                                     env=env, stdout=subprocess.PIPE, text=True)
        self.lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def message(self, key: str, deadline: float) -> dict:
        try:
            line = self.lines.get(timeout=max(0.0, deadline - perf_counter()))
        except queue.Empty:
            raise WorkerError(f"no {key!r} message before the deadline") from None
        if line is None:
            raise WorkerError(f"worker exited with code {self.proc.wait()} before {key!r}")
        payload = json.loads(line)
        if key not in payload:
            raise WorkerError(f"expected {key!r}, got {sorted(payload)}")
        return payload[key]

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(0.1, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("worker did not exit before the deadline") from None
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(workload: str, seed: int, seconds: float, trace: int,
            threads: int = 1) -> tuple[dict, list[float], list[dict]]:
    """(worker result, set-up seconds, ready messages) of one benchmark run."""
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setup_s, readies = [], []
    for k in range(1 if trace else SETUPS):
        last = k == (0 if trace else SETUPS - 1)
        worker = Worker(base if last else [*base, "--setup-only"], threads)
        try:
            readies.append(worker.message("ready", deadline))
            setup_s.append(perf_counter() - worker.started)
            if last:
                result = worker.message("result", deadline)
                readies[-1]["host_s"] = result["host_s"]
            else:
                readies[-1].update(worker.message("host", deadline))
            worker.finish(deadline)
        finally:
            worker.kill()
    return result, setup_s, readies


def setup_speed(ready: dict) -> float:
    """Host speed over one worker's set-up, from the host kernel timed during and right after it."""
    return hostspeed.NOMINAL_S / statistics.median(ready["host_s"])


def end_to_end(result: dict, setup_s: list[float], readies: list[dict]) -> dict[str, float]:
    """The end-to-end metrics; timings are floored over the run's repeats (``layers.floor``).

    A workload that trains only during set-up (``alpha_search``) floors its
    training steps over the set-up workers, which all train the same head.
    """
    values = {"setup_s": statistics.median(s * setup_speed(r) for s, r in zip(setup_s, readies)),
              "peak_rss_mb": result["peak_rss_mb"]}
    floor = result["floor"]
    if not floor:  # no untraced operation passed its checks
        return values
    sim = floor["simulate"]
    values.update({
        "wall_s": floor["wall_s"],
        "cpu_s": floor["cpu_s"],
        "train_steps_per_s": floor["train_steps_per_s"] or layers.train_rate([r["train_steps"] for r in readies]),
        "decisions_per_s": sim["decisions"] / sim["time_s"] if sim["time_s"] else 0.0,
        "simulate_ms_p50": sim["p50_ms"],
        "simulate_ms_p99": sim["p99_ms"],
    })
    values.update(next(op["quality"] for op in result["ops"] if not op["traced"] and not op["failures"]))
    return values


def quality_problems(workload: str, values: dict, bench: dict) -> list[str]:
    """Quality below the recorded reference by more than the metric's bound."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for name, ref in reference.items():
        floor = ref * (1.0 - bounds[name])
        if not values.get(name, float("-inf")) >= floor:
            problems.append(f"{name} = {values.get(name)} is below {floor:.6f} "
                            f"(reference {ref} less its bound)")
    return problems


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "simulgain" / "__init__.py").is_file():
        print(f"simulgain source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        result, setup_s, readies = measure(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    failures = [f for op in ops for f in op["failures"]]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values = result["per_layer"]
        if result["trace_residual_s"] > 1e-6:
            failures.append(f"self times miss the traced wall time by {result['trace_residual_s']} s")
    else:
        values = end_to_end(result, setup_s, readies)
        failures += quality_problems(args.workload, values, bench)
        failures += [f"{m['name']} is {values.get(m['name'])}, expected > 0" for m in listed
                     if not values.get(m["name"], 0) > 0]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
               if m["name"] in values}
    for name, metric in metrics.items():
        print(f"{args.workload:>12}  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    if not args.trace:
        print(f"{'':>12}  timings scaled to the reference host and floored over "
              f"{result['floor'].get('repeats', 0)} repeats; "
              f"simulate_ms percentiles over {result['floor'].get('simulate', {}).get('samples', 0)} calls")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": result["env"], "digests": result["digests"], "setup_s": setup_s,
              "op_wall_s": [op["wall_s"] for op in ops], "op_traced": [op["traced"] for op in ops],
              "floor": result["floor"], "setup_host_speed": [setup_speed(r) for r in readies],
              "simulate_samples": result["floor"].get("simulate", {}).get("samples", 0), "span_file": result.get("span_file"),
              "failures": failures}
    print(json.dumps({"record": record}))
    correct = not failures and len(metrics) == len(listed)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(1 for op in ops if op["failures"]) or (0 if correct else 1),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
