import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# a toy-size run configuration
TOY_CONFIG = (
    "epochs = 1\nphase2_epochs = 1\nk_neighbors = 4\nd_hidden = 8\nd_word = 8\n"
    "d_pred = 16\nn_layers = 2\nmemory_fraction = 0.15\n"
)
ROW_FIELDS = ["seed", "base_f1", "adapted_f1", "corrected", "regressed",
              "median_first_correct_rank", "rank1_share_incorrect", "base_sha256",
              "memory_sha256", "adapted_sha256", "base_preds_sha256", "adapted_preds_sha256"]


def test_synthetic_benchmark_script_runs(tmp_path):
    # the smallest run that reaches every result field the harness reports
    (tmp_path / "toy.cfg").write_text(TOY_CONFIG, encoding="utf-8")
    outs = []
    for name in ("a.json", "b.json"):
        argv = ["--config", str(tmp_path / "toy.cfg"), "--out", str(tmp_path / name),
                "--train-size", "40", "--valid-size", "10", "--test-size", "10",
                "--seeds", "1"]
        proc = subprocess.run([sys.executable, str(SCRIPTS / "run_synthetic_benchmark.py"),
                               *argv], capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "retrieval_ms/token" in proc.stdout
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]

    doc = json.loads(outs[0])
    assert list(doc) == ["corpus", "config", "rows"]
    assert doc["corpus"]["train_size"] == 40
    assert doc["config"]["k_neighbors"] == 4
    [row] = doc["rows"]
    assert list(row) == ROW_FIELDS
    assert row["seed"] == 1
    for key in ("base_f1", "adapted_f1", "rank1_share_incorrect"):
        assert 0.0 <= row[key] <= 1.0 and row[key] == round(row[key], 6)
    assert row["corrected"] >= 0 and row["regressed"] >= 0
    rank = row["median_first_correct_rank"]  # null: no mispredicted validation token
    assert rank is None or (math.isfinite(rank) and 1 <= rank <= 5)
    for key in ROW_FIELDS[7:]:
        assert len(row[key]) == 64 and set(row[key]) <= set("0123456789abcdef"), key
    assert len({row[key] for key in ROW_FIELDS[7:]}) == 5


def load_script(name):
    import importlib.util

    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_paired_perfbench_seeds_and_claim_rule():
    paired = load_script("paired_perfbench")
    assert paired.parse_seeds("1,3-5,9") == [1, 3, 4, 5, 9]
    # lower is better: the change wins 9 of 10 pairs, one is a tie, and its
    # median drop (6.0) exceeds the parent's IQR (1.75)
    parent = [70.0, 71.0, 69.0, 72.0, 70.0, 68.0, 71.0, 70.0, 73.0, 64.0]
    change = [64.0, 65.0, 63.0, 66.0, 64.0, 62.0, 65.0, 64.0, 67.0, 64.0]
    s = paired.summarize(parent, change, "lower", 0.1)
    assert (s["wins"], s["losses"], s["gain"], s["within_bound"]) == (9, 0, True, True)
    assert s["median_ratio"] == 64.0 / 70.0
    assert s["parent_iqr_ratio"] == 1.75 / 70.0
    assert s["pair_ratios"][-1] == 1.0
    # the same numbers where higher is better: every pair lost, beyond a 5% bound
    s = paired.summarize(parent, change, "higher", 0.05)
    assert (s["wins"], s["losses"], s["gain"], s["within_bound"]) == (0, 9, False, False)
    assert paired.summarize(parent, change, "higher", 0.1)["within_bound"]


def test_paired_cli_seeds_child_usage_and_report_fields():
    paired = load_script("paired_cli")
    args = paired.parse_args(["--seeds", "4001-4003,9", "--label", "x"])
    assert (args.seeds, args.label, args.parent) == ([4001, 4002, 4003, 9], "x", "HEAD")
    # a real child's usage; a child that fails (here a usage error) stops the script
    usage = paired.cli(SCRIPTS.parent, "gen-synthetic", "--help")
    assert list(usage) == ["wall_s", "stime_s", "minflt", "maxrss_mb"]
    assert usage["wall_s"] > 0 and usage["minflt"] > 0 and usage["maxrss_mb"] > 1
    with pytest.raises(SystemExit, match="exited with code 1"):
        paired.cli(SCRIPTS.parent, "no-such-command")

    runs = {side: [dict(wall_s=w, stime_s=w / 4, minflt=f, maxrss_mb=r)
                   for w, f, r in rows]
            for side, rows in (("parent", [(2.6, 478e3, 60.3), (2.7, 479e3, 60.3)]),
                               ("change", [(2.3, 25e3, 55.5), (2.4, 25e3, 55.5)]))}
    doc = paired.report("x", "abc", [1, 2], runs, 2)
    assert list(doc) == ["label", "parent", "change", "command", "timing", "seeds", "pairs",
                         "outputs_equal", "metrics"]
    assert (doc["pairs"], doc["outputs_equal"]) == (2, 2)
    assert list(doc["metrics"]) == ["wall_s", "stime_s", "minflt", "maxrss_mb"]
    for name, s in doc["metrics"].items():
        assert s["wins"] == 2 and s["gain"] and s["within_bound"] and s["bound"] == 0.0
        # times only as ratios; counts and sizes with both medians
        assert ("parent_median" in s) == (name in ("minflt", "maxrss_mb"))
    assert doc["metrics"]["minflt"]["change_median"] == 25e3
    assert doc["metrics"]["maxrss_mb"]["parent_median"] == 60.3


def test_mutation_probe_texts_occur_once():
    # each mutant edits one text, which must still occur exactly once in the
    # current source; the probe itself runs outside tier-1
    probe = load_script("mutation_probe")
    assert len(probe.MUTANTS) >= 15
    for path, old, new, reason in probe.MUTANTS:
        source = (SCRIPTS.parent / path).read_text(encoding="utf-8")
        assert source.count(old) == 1, (path, old)
        assert new != old and reason
    assert probe.first_failure("x\nFAILED tests/a.py::T::t[1] - boom\nFAILED b\n") == \
        "tests/a.py::T::t[1]"
    assert probe.first_failure("ERROR tests/b.py - SyntaxError\n") == "tests/b.py"
    assert probe.first_failure("5 passed\n") is None
