import os
import subprocess
import sys
from pathlib import Path

import qgrnn

SRC = Path(__file__).parent.parent / "src"
# Runs reconstruct, hide and reveal in one interpreter whose imports refuse scipy,
# the one third-party package besides numpy that the tests install.
NUMPY_ONLY_RUN = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not a runtime dependency")


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was importable")

from qgrnn import cli

out, words = sys.argv[1:]
budget = ["--epochs", "3", "--restarts", "1"]
for argv in (
    ["reconstruct", "--samples", "18", *budget, "--out", out + "/reconstruct"],
    ["hide", "--message", "golf charlie", "--dict", words, "--out", out + "/hide"],
    ["reveal", "--archive", out + "/hide/archive.json", "--dict", words, *budget,
     "--out", out + "/reveal"],
):
    assert cli.main(argv) == 0, argv
"""


def test_every_exported_name_resolves():
    for name in qgrnn.__all__:
        assert getattr(qgrnn, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from qgrnn import *", namespace)
    assert set(qgrnn.__all__) <= set(namespace)


def test_commands_run_with_numpy_alone(tmp_path):
    # pyproject.toml declares numpy as the only runtime dependency
    words = tmp_path / "words.txt"
    words.write_text("alpha\nbravo\ncharlie\ngolf\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-W", "error", "-c", NUMPY_ONLY_RUN, str(tmp_path),
                           str(words)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "reveal" / "reveal.json").exists()
