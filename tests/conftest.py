import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def loop_contract(a, b, axes):
    """Nested-loop reference contraction (independent of numpy.tensordot)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ca = [p for p, _ in axes]
    cb = [q for _, q in axes]
    fa = [i for i in range(a.ndim) if i not in ca]
    fb = [i for i in range(b.ndim) if i not in cb]
    out_shape = [a.shape[i] for i in fa] + [b.shape[j] for j in fb]
    out = np.zeros(out_shape if out_shape else ())
    contracted = [a.shape[i] for i in ca]
    for free_a in np.ndindex(*[a.shape[i] for i in fa]):
        for free_b in np.ndindex(*[b.shape[j] for j in fb]):
            total = 0.0
            for summed in np.ndindex(*contracted):
                ia = [0] * a.ndim
                ib = [0] * b.ndim
                for pos, i in zip(free_a, fa):
                    ia[i] = pos
                for pos, j in zip(free_b, fb):
                    ib[j] = pos
                for pos, (i, j) in zip(summed, zip(ca, cb)):
                    ia[i] = pos
                    ib[j] = pos
                total += a[tuple(ia)] * b[tuple(ib)]
            out[free_a + free_b] = total
    return out


def dense_entry_oracle(cores, index):
    """Entry of a TT tensor by explicit slice-matrix multiplication."""
    mat = np.ones((1, 1))
    for core, i in zip(cores, index):
        mat = mat @ core[:, i, :]
    return float(mat[0, 0])


def run_python_optimized(code):
    """Run ``code`` in a fresh ``python -O`` process (asserts stripped).

    The child imports ttriem from the same place as this test session.
    """
    import ttriem

    src = str(Path(ttriem.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
