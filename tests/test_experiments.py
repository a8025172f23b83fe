import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sample_times_runs_two_items():
    # Iris row 0 and the seed-7703 message, the one message of --messages 0
    done = subprocess.run(
        [sys.executable, "experiments/sample_times.py", "--rows", "1", "--messages", "0", "--t-max", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    assert re.fullmatch(r"iris master seed 0: 1 rows, 1 attempts, largest MSE \S+, [\d.]+ s", lines[0])
    assert re.fullmatch(r"messages at t_max 0\.5: 1 messages, 1 attempts, 0 wrong words of 8, "
                        r"archives [\d,]+ B, [\d.]+ s", lines[1])
