import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_synthetic_benchmark_script_runs():
    # the smallest run that reaches every result field the script prints
    argv = ["--train-size", "40", "--valid-size", "10", "--test-size", "10", "--seeds", "1",
            "--epochs", "1", "--phase2-epochs", "1", "--k", "4", "--d-hidden", "8",
            "--d-word", "8"]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_synthetic_benchmark.py"), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "retrieval_ms/token" in proc.stdout
