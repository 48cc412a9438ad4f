#!/usr/bin/env python3
"""CI perf-regression smoke for the sweep driver.

Compares the wall time of a fresh quick-mode sweep against the most recent
``quick_wall_ms`` baseline recorded in BENCH_sweep.json, and fails when the
fresh run is slower by more than a generous factor. The fresh measurement
comes from either

* the ``--json`` export of ``sm_flow sweep --quick`` (its ``wall_ms``
  whole-sweep field), or
* a ``--store`` JSONL log: per-record ``wall_ms`` is the *task* wall shared
  by every split of one (benchmark, seed, defense) triple, so the script
  dedupes by that key (last record wins, mirroring the store's merge rule)
  and sums the task walls. That sum is serial compute, not elapsed wall —
  still exactly the right scale for an order-of-magnitude tripwire. The factor is deliberately loose
(default 10x): CI machines differ wildly from the hosts the baselines were
measured on, and this check only exists to catch order-of-magnitude
regressions — an accidentally quadratic loop, a debug build, a scheduler
that stopped parallelizing — not single-digit percent drift. Track real
performance by re-measuring BENCH_sweep.json entries on a pinned host.

Usage:
    check_sweep_perf.py FRESH_JSON_OR_STORE_JSONL BASELINE_JSON [--factor=F]

Baseline selection: the latest BENCH_sweep.json entry carrying a
``quick_wall_ms`` field, preferring entries whose ``host_hardware_threads``
matches this machine (same tier); if no entry has the field at all — old
checkouts predate it — the check passes with a notice, so the script can
ride in CI before the first baseline lands.

The baseline may also be BENCH_micro.json. In that mode the fresh file is
a google-benchmark JSON export (``--benchmark_out=... \
--benchmark_out_format=json``) and every fresh rig that has a recorded
``results_ms`` baseline (latest entry per rig name wins) is compared
individually against factor x its baseline, using real (wall) time.
Rigs without a baseline are skipped with a notice — new rigs ride through
CI before their first BENCH_micro.json entry lands.

Exit status: 0 pass, 1 regression, 2 usage/parse error.
"""

import json
import os
import sys

DEFAULT_FACTOR = 10.0


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"check_sweep_perf: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def store_wall_ms(path):
    """Summed per-task wall from a store JSONL log, or None if `path` is
    not one. Splits of one task share the task's wall, so records are
    deduped by (benchmark, seed, defense) with last-wins — the same merge
    rule load_store applies — before summing. Torn tail lines (a crashed
    run) are skipped, like the store loader does."""
    walls = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn final line of a crashed run
                if not isinstance(rec, dict) or "config_hash" not in rec:
                    return None  # some other JSON file, not a store log
                if rec.get("status") == "failed":
                    # Quarantine marker (supervisor gave up on the cell):
                    # no metrics, wall_ms 0 — summing it is harmless but
                    # letting it *overwrite* the task key would zero out a
                    # real task wall recorded by a sibling split's record.
                    continue
                key = (rec.get("benchmark"), rec.get("seed"),
                       rec.get("defense"))
                walls[key] = rec.get("wall_ms", 0.0)
    except OSError:
        return None
    total = sum(w for w in walls.values() if isinstance(w, (int, float)))
    return total if total > 0 else None


def fresh_wall_ms(path):
    """Wall time of the fresh run: sweep --json export or store JSONL."""
    wall = store_wall_ms(path)
    if wall is not None:
        return wall
    fresh = load(path)
    wall = fresh.get("wall_ms") if isinstance(fresh, dict) else None
    return wall if isinstance(wall, (int, float)) and wall > 0 else None


_TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def micro_baseline(entries):
    """Latest recorded ms per rig name from BENCH_micro.json entries.

    Every section of an entry whose value is a dict carrying a
    ``results_ms`` dict contributes its rigs; later entries override
    earlier ones, so each rig resolves to its most recent baseline (and
    the PR that recorded it). Returns {} when the baseline file carries no
    micro sections at all — the caller falls back to sweep mode."""
    rigs = {}
    if not isinstance(entries, list):
        return rigs
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        for section in entry.values():
            if not isinstance(section, dict):
                continue
            results = section.get("results_ms")
            if not isinstance(results, dict):
                continue
            for name, ms in results.items():
                if isinstance(ms, (int, float)) and ms > 0:
                    rigs[name] = (float(ms), entry.get("pr", "?"))
    return rigs


def fresh_micro(path):
    """{rig name: real-time ms} from a google-benchmark JSON export, or
    None if `path` is not one. Median aggregates (from
    --benchmark_repetitions) take precedence over raw iteration rows so a
    repeated run compares its medians, matching how BENCH_micro.json
    entries were recorded."""
    try:
        with open(path) as fh:
            fresh = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(fresh, dict) or "benchmarks" not in fresh:
        return None
    rigs, medians = {}, {}
    for row in fresh["benchmarks"]:
        if not isinstance(row, dict):
            continue
        scale = _TIME_UNIT_TO_MS.get(row.get("time_unit"), 1e-6)
        time_ms = row.get("real_time")
        if not isinstance(time_ms, (int, float)):
            continue
        time_ms *= scale
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                medians[row.get("run_name")] = time_ms
        else:
            rigs.setdefault(row.get("name"), time_ms)
    rigs.update(medians)
    rigs.pop(None, None)
    return rigs


def check_micro(fresh_rigs, baseline_rigs, factor):
    """Per-rig factor check; returns the exit status."""
    if not baseline_rigs:
        print("check_sweep_perf: no results_ms baselines recorded yet — "
              "passing (record one in BENCH_micro.json)")
        return 0
    compared = regressions = 0
    for name in sorted(fresh_rigs):
        if name not in baseline_rigs:
            print(f"check_sweep_perf: {name}: no baseline yet — skipping")
            continue
        base_ms, pr = baseline_rigs[name]
        limit_ms = base_ms * factor
        fresh_ms = fresh_rigs[name]
        compared += 1
        verdict = "ok"
        if fresh_ms > limit_ms:
            regressions += 1
            verdict = "REGRESSION"
        print(f"check_sweep_perf: {name}: fresh {fresh_ms:.3f} ms vs "
              f"baseline {base_ms:.3f} ms (PR {pr}), limit {limit_ms:.3f} "
              f"ms — {verdict}")
    if regressions:
        print(f"check_sweep_perf: {regressions} of {compared} rigs over "
              f"{factor:g}x their recorded baseline", file=sys.stderr)
        return 1
    if not compared:
        print("check_sweep_perf: no fresh rig matched a recorded baseline "
              "— passing (check the --benchmark_filter against "
              "BENCH_micro.json)")
    return 0


def pick_baseline(entries, host_threads):
    """Latest entry with quick_wall_ms, same-tier entries preferred."""
    if not isinstance(entries, list):
        print("check_sweep_perf: baseline JSON is not a list", file=sys.stderr)
        sys.exit(2)
    with_quick = [
        e for e in entries if isinstance(e, dict) and "quick_wall_ms" in e
    ]
    same_tier = [
        e for e in with_quick
        if e.get("host_hardware_threads") == host_threads
    ]
    pool = same_tier or with_quick
    return pool[-1] if pool else None


def main(argv):
    factor = DEFAULT_FACTOR
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--factor="):
            try:
                factor = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"check_sweep_perf: bad {arg} (want --factor=NUMBER)",
                      file=sys.stderr)
                return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    fresh_rigs = fresh_micro(paths[0])
    if fresh_rigs is not None:
        return check_micro(fresh_rigs, micro_baseline(load(paths[1])),
                           factor)

    wall_ms = fresh_wall_ms(paths[0])
    if wall_ms is None:
        print(f"check_sweep_perf: no usable wall_ms in {paths[0]}",
              file=sys.stderr)
        return 2

    host_threads = os.cpu_count() or 1
    baseline = pick_baseline(load(paths[1]), host_threads)
    if baseline is None:
        print("check_sweep_perf: no quick_wall_ms baseline recorded yet — "
              "passing (record one in BENCH_sweep.json)")
        return 0

    try:
        base_ms = float(baseline["quick_wall_ms"])
    except (TypeError, ValueError):
        print("check_sweep_perf: baseline quick_wall_ms "
              f"{baseline.get('quick_wall_ms')!r} is not a number "
              "(fix the BENCH_sweep.json entry)", file=sys.stderr)
        return 2
    limit_ms = base_ms * factor
    tier = baseline.get("host_hardware_threads")
    tier_note = ("same tier" if tier == host_threads else
                 f"baseline tier {tier}, this host {host_threads}")
    print(f"check_sweep_perf: fresh {wall_ms:.0f} ms vs baseline "
          f"{base_ms:.0f} ms (PR {baseline.get('pr', '?')}, {tier_note}), "
          f"limit {limit_ms:.0f} ms (factor {factor:g})")
    if wall_ms > limit_ms:
        print(f"check_sweep_perf: REGRESSION — quick sweep took "
              f"{wall_ms:.0f} ms, over {factor:g}x the recorded "
              f"{base_ms:.0f} ms baseline", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
