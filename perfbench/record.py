#!/usr/bin/env python3
"""Records the benchmark's baselines: medians and quartiles over seeds.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baselines.json

For each workload, runs the untraced benchmark once per seed and summarizes
every end-to-end metric as median, first and third quartile, and the
quartile distance as a share of the median (statistics.quantiles, n=4).
Then runs the traced benchmark on seeds 1 and 2 and keeps their per-layer
metrics and row digests, so a later change can be checked on a seed it was
not tuned on. Exits non-zero if any run fails its correctness checks.
"""

import argparse
import datetime
import json
import statistics
import sys

import run

TRACED_SEEDS = (1, 2)


def parse_seeds(text):
    """ "1-10" -> [1, ..., 10]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    code, out = run.run_driver(workload, seed, seconds, trace, capture=True)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if code != 0 or not result or not result["correct"]:
        sys.stdout.write(out)
        run.fail(f"{workload} seed {seed} trace {trace} failed (exit {code})")
    provenance = next((json.loads(l.split(" ", 1)[1]) for l in lines
                       if l.startswith("provenance ")), {})
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")), "")
    return result, provenance, digest


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default="", help="write the summary JSON here")
    a = p.parse_args()

    spec = run.load_benchmark_json()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(a.seeds)
    if len(seeds) < 2:
        run.fail("need at least two seeds for quartiles")

    run.build()
    record = {"date": datetime.date.today().isoformat(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        values = {}
        for seed in seeds:
            result, prov, _ = one_run(name, seed, seconds, 0)
            record["provenance"] = {k: prov.get(k) for k in
                                    ("nproc", "compiler", "build_type", "commit")}
            for k, m in result["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        entry = {"jobs": prov.get("jobs"),
                 "end_to_end": {k: summarize(v) for k, v in values.items()},
                 "traced": {}}
        for seed in TRACED_SEEDS:
            result, _, digest = one_run(name, seed, seconds, 1)
            entry["traced"][str(seed)] = {
                "digest": digest,
                "per_layer": {k: m["value"] for k, m in result["metrics"].items()}}
        record["workloads"][name] = entry
        for k, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[k] / 3 else "  (above bound/3)"
            print(f"{name:18s} {k:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                  f"spread {s['spread']:.4f}  bound {bounds[k]}{flag}", flush=True)

    if a.out:
        with open(a.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
