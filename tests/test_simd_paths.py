"""The bit-pinned test files on numpy's other SIMD path of this machine.

Core claims:
  * `test_table_digests.py`, `test_golden.py` and `test_pair_counts.py` pass
    in a child process whose numpy has its AVX-512 dispatch switched off
    through `NPY_DISABLE_CPU_FEATURES`, so their pins hold on the baseline
    path too.  The variable is set in the child's environment only.
  * Where numpy does not report X86_V4 as on, there is no such path to
    switch to and the check is skipped.
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
PINNED_FILES = ("tests/test_table_digests.py", "tests/test_golden.py", "tests/test_pair_counts.py")
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason=f"numpy {np.__version__} reports no X86_V4 to switch off")
def test_pinned_files_pass_without_avx512():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED_FILES],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
