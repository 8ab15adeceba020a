#!/usr/bin/env python3
"""Paired CLI ``train-pnma`` processes: a parent commit against the working tree.

    python3 scripts/paired_cli.py --seeds 4001-4010 --label phase2_cli
    python3 scripts/paired_cli.py --parent HEAD~2 --seeds 1,2 --label x

perfbench's gated medians time repeated calls inside one process, but every
CLI command is its process's first call, on a fresh heap, so its page faults
never show there.  This script measures that case on the desk chain.  The
working tree generates the corpus (corpus seed 1234, 2,000/300/300
sentences) and the vocabulary once; for each seed it trains the base model
with ``scripts/desk.cfg`` and builds its memory, and then each side runs one
``train-pnma`` process, with validation, on those inputs.  The side that runs
first alternates between seeds.  Each child runs at one BLAS thread, and its
wall time, ``ru_stime``, ``ru_minflt`` and ``ru_maxrss`` come from
``os.wait4``.  The two sides' checkpoints and logs are compared byte for
byte.

The parent's committed files are exported as ``paired_perfbench.py`` does,
and the claim rule is its ``summarize``, with a bound of 0: ``within_bound``
says the change's median is no worse than the parent's.  The script prints
both medians per metric and writes ``BENCH_<label>.json`` at the repository
root: ratios for the times, and both medians beside the ratios for the
fault count and the resident set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from paired_perfbench import ROOT, TIMING, export_parent, parse_seeds, summarize

CORPUS_SEED = 1234
DESK_CONFIG = ROOT / "scripts" / "desk.cfg"
# (name, unit, a time: reported as ratios only)
METRICS = (("wall_s", "s", True), ("stime_s", "s", True), ("minflt", "faults", False),
           ("maxrss_mb", "MB", False))
COMMAND = ("OPENBLAS_NUM_THREADS=1 python3 -m pnma.cli train-pnma --seed S --checkpoint "
           "base.ckpt --memory memory.bin --train train.conll --valid valid.conll "
           "--vocab vocab.txt --out pnma.ckpt")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="one pair per seed: 1,2,5 or 4001-4010")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against")
    return ap.parse_args(argv)


def cli(checkout: Path, *argv: str) -> dict:
    """One ``pnma`` command on ``checkout``'s sources, at one BLAS thread:
    the child's wall time and resource usage (``METRICS``)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(checkout / "src")}
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pnma.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: pnma {' '.join(argv)} exited with code "
                         f"{proc.returncode}:\n{err.decode(errors='replace')}")
    return {"wall_s": wall, "stime_s": usage.ru_stime, "minflt": usage.ru_minflt,
            "maxrss_mb": usage.ru_maxrss / 1024}


def report(label: str, sha: str, seeds: list[int], runs: dict, outputs_equal: int) -> dict:
    """The ``BENCH_<label>.json`` document of paired runs ``runs[side][i]``."""
    doc = {
        "label": label,
        "parent": sha,
        "change": "working tree",
        "command": COMMAND,
        "timing": TIMING,
        "seeds": seeds,
        "pairs": len(runs["parent"]),
        "outputs_equal": outputs_equal,
        "metrics": {},
    }
    for name, _, is_time in METRICS:
        p_vals = [r[name] for r in runs["parent"]]
        c_vals = [r[name] for r in runs["change"]]
        s = summarize(p_vals, c_vals, "lower", 0.0)
        if not is_time:
            s["parent_median"] = statistics.median(p_vals)
            s["change_median"] = statistics.median(c_vals)
        doc["metrics"][name] = s
    return doc


def main() -> int:
    args = parse_args()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    outputs_equal = 0
    with tempfile.TemporaryDirectory(prefix="paired-cli-") as tmp:
        tmp = Path(tmp)
        (tmp / "parent").mkdir()
        sha = export_parent(args.parent, tmp / "parent")
        sides = {"parent": tmp / "parent", "change": ROOT}
        data, vocab = tmp / "data", str(tmp / "vocab.txt")
        train, valid = f"{data}/train.conll", f"{data}/valid.conll"
        cli(ROOT, "gen-synthetic", "--out-dir", str(data), "--train-size", "2000",
            "--valid-size", "300", "--test-size", "300", "--exception-rate", "0.05",
            "--seed", str(CORPUS_SEED))
        cli(ROOT, "prepare", "--train", train, "--out", vocab)
        for i, seed in enumerate(args.seeds):
            base, memory = str(tmp / f"base.seed{seed}.ckpt"), str(tmp / f"memory.seed{seed}.bin")
            cli(ROOT, "train-base", "--config", str(DESK_CONFIG), "--seed", str(seed),
                "--train", train, "--valid", valid, "--vocab", vocab, "--out", base)
            cli(ROOT, "build-memory", "--checkpoint", base, "--train", train, "--vocab", vocab,
                "--out", memory, "--seed", str(seed))
            outputs = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                out = tmp / f"pnma.{side}.ckpt"
                runs[side].append(cli(sides[side], "train-pnma", "--seed", str(seed),
                                      "--checkpoint", base, "--memory", memory, "--train", train,
                                      "--valid", valid, "--vocab", vocab, "--out", str(out)))
                outputs[side] = out.read_bytes() + Path(f"{out}.log").read_bytes()
                print(f"pair {i + 1} seed {seed} {side:<6} "
                      + "  ".join(f"{k} {v:.4f}" for k, v in runs[side][-1].items()), flush=True)
            outputs_equal += outputs["parent"] == outputs["change"]

    doc = report(args.label, sha, args.seeds, runs, outputs_equal)
    print(f"\ntrain-pnma: {doc['pairs']} pairs, outputs equal in {outputs_equal}")
    for name, unit, _ in METRICS:
        s = doc["metrics"][name]
        p_vals = [r[name] for r in runs["parent"]]
        p_med = statistics.median(p_vals)
        print(f"  {name:<10} parent {p_med:.4f} (IQR {s['parent_iqr_ratio'] * p_med:.4f}) "
              f"change {statistics.median(r[name] for r in runs['change']):.4f} {unit}  "
              f"ratio {s['median_ratio']:.4f}  wins {s['wins']}/{len(p_vals)}  "
              f"gain {s['gain']}  not worse {s['within_bound']}")
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
