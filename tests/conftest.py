import os
import pathlib
import subprocess
import sys

# One BLAS thread unless the caller sets a count: the suite's SDPs are too
# small to gain from threads, and OpenBLAS must read this before it loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def haar_unitary(d, rng):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def haar_isometry(dout, din, rng):
    A = rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_channel(din, dout, env, rng):
    """Random channel from a Haar Stinespring isometry."""
    from qbound.qcore import KrausChannel
    V = haar_isometry(dout * env, din, rng)
    K = [V.reshape(dout, env, din)[:, e, :] for e in range(env)]
    return KrausChannel(K)


def fresh_python(*args, **env):
    """Run a fresh interpreter on qbound's sources with OPENBLAS_NUM_THREADS
    unset unless given in env; return its stdout."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *args],
                          env=dict(base, PYTHONPATH=str(src), **env),
                          capture_output=True, check=True).stdout
