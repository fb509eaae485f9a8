"""Fixtures shared by more than one test module."""

import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the bit-identity tests of training, and of blocked scoring
HASWELL_SELECTIONS = ["test_training.py::test_training_bit_identical_to_per_step_loss",
                      "test_mlp.py", "test_baselines.py", "-k", "bit_identical or head_sees"]


@pytest.fixture(scope="session")
def haswell_passes():
    """Passed tests per file, and the output, of one child pytest that reruns
    ``HASWELL_SELECTIONS`` under OpenBLAS's Haswell kernels.  Under them a
    row's product bits depend on the shape of its matrix; the child selects
    them in its own environment, and one child serves both selections."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider",
                           *HASWELL_SELECTIONS], cwd=here, env=env, capture_output=True, text=True)
    passed = collections.Counter(line.split()[1].partition("::")[0]
                                 for line in proc.stdout.splitlines() if line.startswith("PASSED "))
    return passed, proc.stdout + proc.stderr
