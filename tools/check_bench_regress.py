#!/usr/bin/env python3
"""Bench regression gate: compare fresh bench JSON against committed baselines.

Usage:
  tools/check_bench_regress.py [--baseline-dir bench/baselines]
                               [--results-dir bench_results] [--self-test]

For every baseline file bench/baselines/<name>.json with a matching
bench_results/<name>.json from the current run:

  HARD FAIL (exit 1) on broken correctness:
    - a "(1=yes)" invariant check row measuring anything but 1.0;
    - any "fingerprint" check row whose measured value differs from the
      baseline (the decision fingerprint is seed-pure and shard/thread
      invariant, so any drift is a real behaviour change — if the change
      is intentional, regenerate the baseline in the same commit);
    - missing result files, unparseable JSON, or missing required fields;
    - a machine-relative ratio in `extra` (see RATIO_FLOORS) below its
      floor, or missing. These are speedups of one code path over another
      measured in the same process, so host speed cancels out.

  WARN ONLY (::warning:: annotation, exit 0) on performance drift:
    - pairs_per_s dropping more than 20% below the baseline (shared CI
      runners make absolute throughput noisy, so this never hard-fails);
    - non-fingerprint seed-pure check rows drifting from the baseline
      (these runs may use different knobs, e.g. shard count, than the
      baseline recording — the invariant and fingerprint rows are the
      contract).

--self-test proves the gate can fail: it perturbs a copy of each baseline
fingerprint, and drops each ratio floor's extra just below its floor, and
asserts the comparison reports a hard failure for every perturbation.
"""

import argparse
import copy
import json
import os
import sys

REQUIRED_FIELDS = ("bench", "seed", "threads", "wall_s", "pairs",
                   "pairs_per_s", "checks")
THROUGHPUT_DROP_WARN = 0.20

# Hard floors on machine-relative ratios: {baseline name: {extra: floor}}.
# measure_speedup is end-to-end measure_batch() over scalar measure() on
# bench_micro's fixed sweep (median of per-timestamp ratios). On a shared
# 4-vCPU VM, 33 runs (RelWithDebInfo, Release, and three at a time) gave
# 2.46-3.06 with counter-based per-pair noise, against 1.63-1.88 with the
# per-pair mt19937_64 it replaced. The floor sits under every run and
# above the old range, so a returning per-pair draw floor fails the gate.
RATIO_FLOORS = {
    "smoke_bench_micro": {"measure_speedup": 2.1},
}


def load(path):
    with open(path) as f:
        return json.load(f)


def check_rows(doc):
    return {c["metric"]: c["measured"] for c in doc.get("checks", [])}


def compare(name, baseline, current):
    """Return (errors, warnings) comparing one current run to its baseline."""
    errors, warnings = [], []
    for field in REQUIRED_FIELDS:
        if field not in current:
            errors.append(f"{name}: result JSON missing field {field!r}")
    if errors:
        return errors, warnings

    if current.get("seed") != baseline.get("seed"):
        warnings.append(
            f"{name}: seed {current.get('seed')} != baseline "
            f"{baseline.get('seed')}; seed-pure comparisons skipped")
        base_rows = {}
    else:
        base_rows = check_rows(baseline)
    cur_rows = check_rows(current)

    for metric, measured in cur_rows.items():
        if "(1=yes)" in metric and measured != 1.0:
            errors.append(f"{name}: invariant broken: {metric!r} = {measured}")

    for metric, base_val in base_rows.items():
        if metric not in cur_rows:
            errors.append(f"{name}: check row disappeared: {metric!r}")
            continue
        cur_val = cur_rows[metric]
        if "fingerprint" in metric:
            if cur_val != base_val:
                errors.append(
                    f"{name}: fingerprint drift: {metric!r} "
                    f"{base_val} -> {cur_val} (decision behaviour changed; "
                    "regenerate bench/baselines/ if intentional)")
        elif "(1=yes)" not in metric and cur_val != base_val:
            warnings.append(
                f"{name}: seed-pure row drifted: {metric!r} "
                f"{base_val} -> {cur_val}")

    extra = current.get("extra", {})
    for key, floor in RATIO_FLOORS.get(name, {}).items():
        if key not in extra:
            errors.append(f"{name}: extra.{key} missing (hard ratio floor "
                          f"{floor})")
        elif not extra[key] >= floor:
            errors.append(f"{name}: extra.{key} = {extra[key]:.3f} below "
                          f"its hard floor {floor}")

    base_tput = baseline.get("pairs_per_s", 0.0)
    cur_tput = current.get("pairs_per_s", 0.0)
    if base_tput > 0 and cur_tput < (1.0 - THROUGHPUT_DROP_WARN) * base_tput:
        warnings.append(
            f"{name}: throughput dropped {100 * (1 - cur_tput / base_tput):.0f}% "
            f"({base_tput:.0f} -> {cur_tput:.0f} pairs/s; want within "
            f"{100 * THROUGHPUT_DROP_WARN:.0f}%)")
    return errors, warnings


def run_gate(baseline_dir, results_dir):
    baselines = sorted(f for f in os.listdir(baseline_dir)
                       if f.endswith(".json"))
    if not baselines:
        return [f"no baselines found in {baseline_dir}"], [], 0
    errors, warnings, compared = [], [], 0
    for fname in baselines:
        name = fname[:-len(".json")]
        base_path = os.path.join(baseline_dir, fname)
        cur_path = os.path.join(results_dir, fname)
        try:
            baseline = load(base_path)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{name}: unreadable baseline: {e}")
            continue
        if not os.path.exists(cur_path):
            errors.append(
                f"{name}: no result at {cur_path} (bench not run, or it "
                "wrote under a different smoke/full name)")
            continue
        try:
            current = load(cur_path)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{name}: unparseable result JSON: {e}")
            continue
        e, w = compare(name, baseline, current)
        errors += e
        warnings += w
        compared += 1
    return errors, warnings, compared


def self_test(baseline_dir):
    """The gate must catch a perturbed fingerprint in every baseline."""
    baselines = sorted(f for f in os.listdir(baseline_dir)
                       if f.endswith(".json"))
    if not baselines:
        print(f"self-test FAILED: no baselines in {baseline_dir}")
        return 1
    failures = 0
    for fname in baselines:
        baseline = load(os.path.join(baseline_dir, fname))
        perturbed = copy.deepcopy(baseline)
        rows = [c for c in perturbed.get("checks", [])
                if "fingerprint" in c["metric"]]
        if not rows:
            print(f"self-test FAILED: {fname} has no fingerprint check row")
            failures += 1
            continue
        for c in rows:
            c["measured"] = c["measured"] + 1.0
        errors, _ = compare(fname, baseline, perturbed)
        if any("fingerprint drift" in e for e in errors):
            print(f"self-test OK: perturbed fingerprint in {fname} "
                  "was caught")
        else:
            print(f"self-test FAILED: perturbed fingerprint in {fname} "
                  "slipped through")
            failures += 1
    for name, floors in RATIO_FLOORS.items():
        path = os.path.join(baseline_dir, name + ".json")
        if not os.path.exists(path):
            print(f"self-test FAILED: ratio floor on missing baseline {name}")
            failures += 1
            continue
        baseline = load(path)
        for key, floor in floors.items():
            slow = copy.deepcopy(baseline)
            slow.setdefault("extra", {})[key] = floor * 0.99
            errors, _ = compare(name, baseline, slow)
            if any(f"extra.{key}" in e for e in errors):
                print(f"self-test OK: {name} extra.{key} below its floor "
                      "was caught")
            else:
                print(f"self-test FAILED: {name} extra.{key} below its "
                      "floor slipped through")
                failures += 1
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--results-dir", default="bench_results")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate fails on a perturbed fingerprint "
                    "and on a ratio below its floor")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test(args.baseline_dir))

    errors, warnings, compared = run_gate(args.baseline_dir, args.results_dir)
    for w in warnings:
        print(f"::warning::{w}")
    for e in errors:
        print(f"ERROR: {e}")
    if errors:
        print(f"bench regression gate: FAILED ({len(errors)} error(s), "
              f"{compared} bench(es) compared)")
        sys.exit(1)
    print(f"bench regression gate: OK ({compared} bench(es) compared, "
          f"{len(warnings)} warning(s))")


if __name__ == "__main__":
    main()
