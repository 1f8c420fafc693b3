#!/usr/bin/env bash
# Run the whole benchmark: every workload of ../BENCHMARK.json, untraced
# (end-to-end metrics) and traced (per-layer metrics), through the very
# command BENCHMARK.json declares.
#
#   benchmark/run.sh [--smoke] [--repeat N] [--seed N] [--seconds S]
#
# Fails if a run is incorrect, if the emitted metrics are not exactly the
# ones BENCHMARK.json declares (none missing, none extra, same units), or,
# with --repeat N, if an end-to-end metric of a later repeat differs from
# the first repeat's by more than its bound. Writes
# benchmark/target/report.json. --smoke (small world, 3 s windows, 8
# traced tables) is for checking that the benchmark works; its numbers are
# never a baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

(cd benchmark && cargo build --release --offline)

exec python3 - "$@" <<'PY'
import argparse, json, os, subprocess, sys

ap = argparse.ArgumentParser(prog="benchmark/run.sh")
ap.add_argument("--smoke", action="store_true")
ap.add_argument("--repeat", type=int, default=1)
ap.add_argument("--seed", type=int, default=7)
ap.add_argument("--seconds", type=int)
args = ap.parse_args()

spec = json.load(open("BENCHMARK.json"))
seconds = args.seconds or (3 if args.smoke else spec["run_seconds"])
declared = {
    0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
    1: {m["name"]: m["unit"] for m in spec["per_layer"]},
}

def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(args.seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"FAIL: {' '.join(cmd)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL: {workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"FAIL: {workload} trace={trace}: incorrect run: {lines[-1]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared[trace]:
        missing = sorted(set(declared[trace]) - set(got))
        extra = sorted(set(got) - set(declared[trace]))
        units = sorted(n for n in got if n in declared[trace] and got[n] != declared[trace][n])
        sys.exit(f"FAIL: {workload} trace={trace}: metrics differ from BENCHMARK.json: "
                 f"missing {missing}, extra {extra}, unit mismatch {units}")
    return {name: m["value"] for name, m in result["metrics"].items()}

repeats = []
for rep in range(args.repeat):
    results = {}
    for w in spec["workloads"]:
        results[w["name"]] = {"end_to_end": run(w["name"], 0), "per_layer": run(w["name"], 1)}
    repeats.append(results)

print(f"\nmode: {'smoke' if args.smoke else 'full'}  seed: {args.seed}  "
      f"window: {seconds} s  repeats: {args.repeat}")
drifted = []
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        values = [r[w["name"]]["end_to_end"][m["name"]] for r in repeats]
        row = f"{w['name']:<12} {m['name']:<14} " + "  ".join(f"{v:12.4f}" for v in values)
        for v in values[1:]:
            if abs(v - values[0]) > m["bound"] * abs(values[0]):
                drifted.append(f"{w['name']} {m['name']}: {values[0]} vs {v} (bound {m['bound']})")
                row += "  DRIFT"
        print(f"{row}  {m['unit']}")
for w in spec["workloads"]:
    print(f"\n{w['name']} — per layer (first repeat)")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<34} {repeats[0][w['name']]['per_layer'][m['name']]:16.4f} {m['unit']}")

os.makedirs("benchmark/target", exist_ok=True)
with open("benchmark/target/report.json", "w") as out:
    json.dump({"mode": "smoke" if args.smoke else "full", "seed": args.seed,
               "seconds": seconds, "repeats": repeats}, out, indent=1)
print("\nwrote benchmark/target/report.json")
if drifted:
    sys.exit("FAIL: repeats disagree beyond the bound:\n  " + "\n  ".join(drifted))
PY
