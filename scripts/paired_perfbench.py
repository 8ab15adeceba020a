#!/usr/bin/env python3
"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/paired_perfbench.py --workload tag --seeds 2001-2010 --label knn_groups
    python3 scripts/paired_perfbench.py --workload all --parent HEAD~2 --seeds 1,2,3 --label x

The parent's committed files are exported with ``git archive`` into a
temporary directory, which leaves no worktree state in the repository; the
working tree runs as it stands, uncommitted changes included.  For each seed
and workload, ``perfbench/run.py --trace 0`` runs once on each side, and the
side that runs first alternates between pairs.  For each end-to-end metric
of ``BENCHMARK.json`` the script prints both medians, the parent's
interquartile range and the number of pairs the change won (ties count for
neither side), and it writes ``BENCH_<label>.json`` at the repository root.

That file holds ratios, not times.  Only process-local timing is possible
here: ``perf_counter`` and ``getrusage`` inside each benchmark process on a
shared host, with no system-wide tracing or hardware counters.  Absolute
times drift between sessions; the ratio of two runs made minutes apart
drifts far less.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("adapt", "base-train", "tag")
TIMING = ("Process-local only: perf_counter and getrusage inside each benchmark process "
          "on a shared host; no system-wide tracing or hardware counters.")


def parse_seeds(text: str) -> list[int]:
    """``1,2,5`` or ``2001-2010`` (inclusive), or a mix: ``1,3-5``."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds += range(int(lo), int(hi) + 1) if dash else [int(lo)]
    return seeds


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs (``parent[i]`` beside ``change[i]``), as ratios.

    ``gain`` applies the claim rule: the change wins at least nine tenths of
    the pairs and its median beats the parent's by more than the parent's
    interquartile range.  ``within_bound`` says the change's median is worse
    than the parent's by no more than ``bound``, a fraction of the parent's.
    """
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else (p_med, p_med, p_med))
    return {
        "better": better,
        "bound": bound,
        "median_ratio": c_med / p_med,
        "pair_ratios": [c / p for p, c in zip(parent, change)],
        "parent_iqr_ratio": (q3 - q1) / p_med,
        "wins": wins,
        "losses": losses,
        "gain": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q3 - q1,
        "within_bound": sign * (c_med - p_med) <= bound * p_med,
    }


def export_parent(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` under ``dest``; return its commit id."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {sha} failed")
    return sha


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its last stdout line (the JSON summary),
    with the full record's output digests under ``digests``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    record = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    result["digests"] = json.loads(record.read_text())["digests"]
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed and workload: 1,2,5 or 2001-2010")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="paired-perfbench-") as tmp:
        sha = export_parent(args.parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for i, seed in enumerate(args.seeds):
            for w in workloads:
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[w][side].append(bench(sides[side], w, seed, seconds))
                    m = runs[w][side][-1]["metrics"]
                    print(f"pair {i + 1} seed {seed} {w:<10} {side:<6} "
                          + "  ".join(f"{k} {v['value']:.4f}" for k, v in m.items()),
                          flush=True)

    doc = {
        "label": args.label,
        "parent": sha,
        "change": "working tree",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "timing": TIMING,
        "seeds": args.seeds,
        "workloads": {},
    }
    for w, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        entry = {
            "pairs": len(parent),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
            "outputs_equal": sum(p["digests"] == c["digests"] for p, c in zip(parent, change)),
            "metrics": {},
        }
        print(f"\n{w}: {len(parent)} pairs, failed parent {entry['failed']['parent']} "
              f"change {entry['failed']['change']}, outputs equal in {entry['outputs_equal']}")
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent]
            c_vals = [r["metrics"][name]["value"] for r in change]
            s = summarize(p_vals, c_vals, m["better"], m["bound"])
            entry["metrics"][name] = s
            p_med = statistics.median(p_vals)
            print(f"  {name:<12} parent {p_med:.4f} (IQR {s['parent_iqr_ratio'] * p_med:.4f}) "
                  f"change {statistics.median(c_vals):.4f} {m['unit']}  "
                  f"ratio {s['median_ratio']:.4f}  wins {s['wins']}/{len(p_vals)}  "
                  f"gain {s['gain']}  within bound {s['within_bound']}")
        doc["workloads"][w] = entry
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
