"""The bit-pinned tests on numpy's and OpenBLAS's other paths of this machine.

Core claims:
  * `test_table_digests.py`, `test_golden.py`, `test_pair_counts.py` and the
    three tests that reproduce a shipped calibrated constant pass in a child
    process whose numpy has its AVX-512 dispatch switched off through
    `NPY_DISABLE_CPU_FEATURES`, so their pins hold on the baseline path too.
    Where numpy does not report X86_V4 as on, there is no such path to
    switch to and the check is skipped.
  * They also pass in a child process whose bundled OpenBLAS runs its
    Sandybridge kernels (no AVX-512, no FMA) through `OPENBLAS_CORETYPE`.
    Where the core name cannot be read through
    `scipy_openblas_get_corename64_`, or does not switch, the check is
    skipped.
  * Each variable is set in the child's environment only.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x, whose feature names differ too
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parent.parent
PINNED_FILES = (
    "tests/test_table_digests.py",
    "tests/test_golden.py",
    "tests/test_pair_counts.py",
    "tests/test_citest.py::test_calibrate_deterministic_and_matches_shipped_constant",
    "tests/test_estimation.py::test_add_one_calibration_reproduces_shipped_constant",
    "tests/test_estimation.py::test_fixed_structure_calibration_reproduces_shipped_constant",
)
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
CORE = "Sandybridge"
# Prints the core that numpy's bundled OpenBLAS runs on.
CORE_NAME = """
import ctypes, glob, os, numpy
(path,) = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                 "libscipy_openblas64_-*.so"))
name = ctypes.CDLL(path).scipy_openblas_get_corename64_
name.restype = ctypes.c_char_p
print(name().decode())
"""


def child_env(**variables) -> dict:
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def openblas_core(env) -> str | None:
    """The OpenBLAS core name a child process with env reports, or None where it cannot be read."""
    proc = subprocess.run([sys.executable, "-c", CORE_NAME], env=env, capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else None


def assert_pinned_files_pass(env) -> None:
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED_FILES],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason=f"numpy {np.__version__} reports no X86_V4 to switch off")
def test_pinned_files_pass_without_avx512():
    assert_pinned_files_pass(child_env(NPY_DISABLE_CPU_FEATURES=DISABLED))


def test_pinned_files_pass_on_openblas_sandybridge():
    env = child_env(OPENBLAS_CORETYPE=CORE)
    before, after = openblas_core(child_env()), openblas_core(env)
    if before is None or after != CORE or before == CORE:
        pytest.skip(f"numpy's OpenBLAS core reads {before!r}, and {after!r} with OPENBLAS_CORETYPE={CORE}")
    assert_pinned_files_pass(env)
