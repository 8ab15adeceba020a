#!/usr/bin/env python3
"""Mutation probe: does the tier-1 suite fail on small, plausible bugs?

    python3 scripts/mutation_probe.py                   # every mutant -> BENCH_mutation.json
    python3 scripts/mutation_probe.py --rev "$(git stash create)"   # the working tree
    python3 scripts/mutation_probe.py --rev HEAD~1 --out /tmp/probe.json

Each mutant is a (file, old text, new text, reason) entry of ``MUTANTS``: one
edit, of a text that occurs exactly once in its file.  For each mutant the
committed files of ``--rev`` are exported with ``git archive``
(``paired_perfbench.export_parent``) into a fresh temporary directory, the
edit is applied there, and tier-1 runs with ``-x``.  A mutant is killed when
the run fails, and the first failing test is recorded; it survives when every
test passes.  The repository itself is never edited.  ``git stash create``
names the working tree's tracked files as a commit without touching the tree
or any branch (stage new files first); the output file records the tree ids
of ``src`` and ``tests`` that were probed.

A mutant takes from a few seconds to a whole tier-1 run (about a minute on
2 CPUs), so the probe is not part of tier-1.  A tier-1 test checks only that
each old text still occurs exactly once in the current source, so the list
cannot rot silently.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from paired_perfbench import ROOT, export_parent  # noqa: E402

# tier-1 with -x, but for the check of this file's own texts, which every
# mutant fails by construction
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_scripts.py::test_mutation_probe_texts_occur_once"]
# seconds one tier-1 run may take, far above its length on 2 CPUs
TIMEOUT = 1200.0

# (file, old text, new text, reason)
MUTANTS = [
    # the training loop and the optimizer
    ("src/pnma/training.py", "            g += tmp\n", "            g -= tmp\n",
     "the weight-decay sign flipped"),
    ("src/pnma/training.py", "lr_t = lr * c2_root / (1.0 - ADAM_BETA1 ** state.t)",
     "lr_t = lr * c2_root", "Adam's first-moment bias correction dropped"),
    ("src/pnma/training.py", "if best_epoch == 0 or report.f1 > best_f1:",
     "if best_epoch == 0 or report.f1 >= best_f1:",
     "the best-epoch tie broken toward the later epoch"),
    ("src/pnma/training.py", "    elif best_epoch < epochs:\n",
     "    elif best_epoch < epochs - 1:\n",
     "the best epoch not restored when it is the second-to-last"),
    ("src/pnma/config.py", "if epoch > p)", "if epoch >= p)",
     "the learning-rate halving one epoch early"),
    ("src/pnma/encoder.py", "return keep.astype(dtype) / dtype.type(1.0 - rate)",
     "return keep.astype(dtype) * dtype.type(1.0 + rate)",
     "dropout scaled by 1 + r, not 1 / (1 - r)"),
    # the encoder kernels
    ("src/pnma/encoder.py", "dpre = d_out * (out > 0)", "dpre = d_out * (out >= 0)",
     "the connection's ReLU mask passes the gradient of dead units"),
    ("src/pnma/encoder.py", "dc_next = dct * f", "dc_next = dct",
     "the LSTM backward carries the cell gradient past the forget gate"),
    ("src/pnma/encoder.py", "        del lc  #", "        pass  #",
     "inference keeps a layer's LSTM cache alive while the next layer runs"),
    ("src/pnma/encoder.py", "        del cc\n", "        pass\n",
     "inference keeps a connection's cache alive while the next layer runs"),
    ("src/pnma/encoder.py", "if size > 1 and size * int(lengths[i]) > CHUNK_TOKENS:",
     "if size > 1 and size * int(lengths[i]) >= CHUNK_TOKENS:",
     "a chunk of exactly CHUNK_TOKENS padded tokens is cut"),
    # the neighborhood kernels
    ("src/pnma/neighborhood.py", "    np.abs(sep, out=sep)\n", "    np.positive(sep, out=sep)\n",
     "the neighborhood scores m - h, not |m - h|"),
    ("src/pnma/neighborhood.py", "neg = -np.asarray(distances, dtype=sep.dtype)",
     "neg = np.asarray(distances, dtype=sep.dtype)",
     "distance mode weighs far neighbors more"),
    ("src/pnma/neighborhood.py", "    d_logits = eta * (d_eta - inner)\n",
     "    d_logits = eta * d_eta\n", "the softmax backward drops its inner term"),
    ("src/pnma/neighborhood.py",
     'd_rank.sum(axis=0, keepdims=True) if params.mode == "shared"',
     'd_rank.mean(axis=0, keepdims=True) if params.mode == "shared"',
     "shared-mode d_n as a mean, not a sum"),
    ("src/pnma/neighborhood.py", "if self.workspace.writes != self.writes:",
     "if self.workspace.writes < self.writes:",
     "a stale neighborhood cache passes its check"),
    ("src/pnma/neighborhood.py", "    out = workspace.array(\"gather\",",
     "    out = NeighborhoodWorkspace().array(\"gather\",",
     "the gather writes into a workspace of its own"),
    ("src/pnma/inference.py", "n_rows - starts[-1] == 1:", "n_rows - starts[-1] == 0:",
     "a one-row remainder block kept"),
    # the CRF and its numerics
    ("src/pnma/crf.py", "        back[done, t] = np.arange(y)\n", "        back[done, t] = 0\n",
     "a finished Viterbi row points back to tag 0, not to itself"),
    ("src/pnma/crf.py", "if not spread <= _scaled_spread_limit(y):",
     "if spread > _scaled_spread_limit(y):",
     "a non-finite score spread takes the scaled recursion"),
    ("src/pnma/crf.py", "log_beta[:, n - 1] = stop", "log_beta[:, n - 1] = 0.0",
     "the log-space backward drops the stop scores"),
    ("src/pnma/numeric.py",
     "out = np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True)) + m",
     "out = np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True)) + np.max(z)",
     "logsumexp adds back the global maximum, not each slice's"),
    # K-NN and the memory
    ("src/pnma/memory.py", "            for key in keys:\n",
     "            for key in list(keys)[:1]:\n", "multi-key exclusions dropped"),
    ("src/pnma/memory.py", "count = max(1, int(round(fraction * len(labels))))",
     "count = max(1, int(fraction * len(labels)))",
     "build_memory's entry count rounded down, not to nearest"),
    # the readers, the reports and the CLI
    ("src/pnma/dataio.py", "if reader.off != len(body):", "if reader.off > len(body):",
     "a framed file with unread bytes is accepted"),
    ("src/pnma/analysis.py", "v = float(self.k + 1) if rank == ABSENT",
     "v = float(self.k) if rank == ABSENT",
     "median_rank counts an absent neighbor as K, not K + 1"),
    ("src/pnma/analysis.py", "f = 2 * p * r / (p + r) if (p + r) else 0.0",
     "f = (p + r) / 2 if (p + r) else 0.0", "F1 as the arithmetic mean of P and R"),
    ("src/pnma/cli.py", "_DATA_ERRORS = (PnmaError, OSError)", "_DATA_ERRORS = (PnmaError,)",
     "an unreadable file ends in a traceback, not exit 2"),
]


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def first_failure(output: str) -> str | None:
    """The first test pytest's short summary names as failed or in error."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.M)
    return match.group(1) if match else None


def run_mutant(rev: str, path: str, old: str, new: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        export_parent(rev, Path(tmp))
        target = Path(tmp) / path
        source = target.read_text(encoding="utf-8")
        if source.count(old) != 1:
            raise SystemExit(f"{path}: the old text occurs {source.count(old)} times: {old!r}")
        target.write_text(source.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(TIER1, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    killed = proc.returncode != 0
    return {"status": "killed" if killed else "survived",
            "first_failure": first_failure(proc.stdout) if killed else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rev", default="HEAD", help="the commit whose files are mutated")
    ap.add_argument("--out", default=str(ROOT / "BENCH_mutation.json"))
    args = ap.parse_args()

    sha = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
    rows = []
    for path, old, new, reason in MUTANTS:
        result = run_mutant(sha, path, old, new)
        rows.append({"file": path, "reason": reason, **result})
        print(f"{result['status']:<8} {path:<26} {reason}"
              + (f"\n         first failure: {result['first_failure']}"
                 if result["first_failure"] else ""), flush=True)
    survived = [r for r in rows if r["status"] == "survived"]
    # the trees of the code and of the suite probed, which a commit's
    # ``git rev-parse <commit>:src`` and ``<commit>:tests`` reproduce
    doc = {
        "src_tree": git("rev-parse", f"{sha}:src"),
        "tests_tree": git("rev-parse", f"{sha}:tests"),
        "command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
        "mutants": len(rows),
        "killed": len(rows) - len(survived),
        "survived": len(survived),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{doc['killed']} of {len(rows)} killed -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
