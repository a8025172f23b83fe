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
    assert len(lines) == 4, done.stdout
    assert re.fullmatch(r"iris master seed 0: 1 rows, 1 attempts, largest MSE \S+, [\d.]+ s", lines[0])
    assert re.fullmatch(r"messages at t_max 0\.5: 1 messages, 1 attempts, 0 wrong words of 8, "
                        r"archives [\d,]+ B, [\d.]+ s", lines[2])
    # each set's kernel work, a count that does not depend on the host's load
    for line in lines[1], lines[3]:
        match = re.fullmatch(r"  work: ([\d,]+) forward passes and ([\d,]+) gradients; ([\d,]+) forward "
                             r"and ([\d,]+) backward layer-rows, ([\d,]+) as forward \+ 2 x backward", line)
        assert match, line
        passes, gradients, forward, backward, work = (int(g.replace(",", "")) for g in match.groups())
        assert 0 < gradients <= passes and 0 < backward <= forward and work == forward + 2 * backward


def test_sample_times_runs_one_noisy_set():
    # the seed-7703 message, its archived states each moved by noise of norm 0.01
    done = subprocess.run(
        [sys.executable, "experiments/sample_times.py", "--rows", "0", "--messages", "0", "--t-max", "0.5",
         "--noise", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"messages at t_max 0\.5, noise 0\.01: 1 messages, [1-9]\d* attempts, \d+ wrong words "
                        r"of 8, archives [\d,]+ B, [\d.]+ s", lines[0]), done.stdout
    assert lines[1].startswith("  work: ")
