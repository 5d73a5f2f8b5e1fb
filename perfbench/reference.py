"""Frozen reference job: measures how fast the machine runs right now.

Usage: python3 perfbench/reference.py

It imports numpy and factors one fixed 16x16 complex matrix a hundred
times with a Cholesky written in Python loops over numpy scalars: the
same kind of work (interpreter start, numpy import, scalar complex
arithmetic on small arrays) as a sweep process. It does not import
mimodet, so no change to the program moves its time; ``run.py`` times
it before every sweep and scales the timed metrics by it. Changing this
file changes every timed metric: keep it as it is.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

REPEATS = 100


def cholesky(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        s = a[j, j].real
        for k in range(j):
            z = lower[j, k]
            s -= z.real * z.real + z.imag * z.imag
        d = s ** 0.5
        lower[j, j] = d
        for i in range(j + 1, n):
            acc = a[i, j]
            for k in range(j):
                acc -= lower[i, k] * lower[j, k].conjugate()
            lower[i, j] = acc / d
    return lower


def main() -> None:
    rng = np.random.default_rng(12345)
    h = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    g = h.conj().T @ h + 0.1 * np.eye(16)
    lower = cholesky(g)
    for _ in range(REPEATS - 1):
        lower = cholesky(g)
    if not np.allclose(lower @ lower.conj().T, g):
        raise SystemExit("reference Cholesky is wrong")


if __name__ == "__main__":
    main()
