"""One-off comparison of BLAS thread counts on the ``train`` workload; recorded, not gated.

    python3 perfbench/blas_compare.py --seeds 0 1 2 --seconds 25

Runs the untraced ``train`` workload with BLAS pinned to 1 and to 2 threads,
alternating which goes first, and writes ``train_steps_per_s`` and the
training-CSV digest of each run to ``perfbench/results/blas_threads.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)

    rows = []
    env = None
    for k, seed in enumerate(args.seeds):
        for threads in ((1, 2) if k % 2 == 0 else (2, 1)):
            result, setup_s, readies = run.measure("train", seed, args.seconds, 0, threads=threads)
            values = run.end_to_end(result, setup_s, readies)
            env = env or {key: v for key, v in result["env"].items() if key != "thread_env"}
            rows.append({"seed": seed, "threads": threads, "blas_threads_in_effect": result["env"]["blas_threads"],
                         "train_steps_per_s": values["train_steps_per_s"], "wall_s": values["wall_s"],
                         "cpu_s": values["cpu_s"], "training_csv_sha256": result["digests"]["training.csv"],
                         "failures": [f for op in result["ops"] for f in op["failures"]]})
            print(json.dumps(rows[-1]))
    digests_match = all(len({r["training_csv_sha256"] for r in rows if r["seed"] == s}) == 1 for s in args.seeds)
    summary = {t: statistics.median(r["train_steps_per_s"] for r in rows if r["threads"] == t) for t in (1, 2)}
    record = {"workload": "train", "seconds": args.seconds, "env": env,
              "median_train_steps_per_s_by_threads": summary, "training_csv_digests_match": digests_match,
              "runs": rows}
    out = run.HERE / "results" / "blas_threads.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"median train_steps_per_s: {summary}; training CSV digests match: {digests_match} -> {out}")
    return 0 if digests_match else 1


if __name__ == "__main__":
    raise SystemExit(main())
