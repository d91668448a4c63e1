# CSR sparse matrix-vector product written with HPL (paper Figure 5(b)).
import sys

import numpy as np

from repro.hpl import (LOCAL, Array, Float, Int, Local, barrier, endfor_,
                       endif_, eval, float_, for_, gidx, if_, int_, lidx)

M = 8


def spmv_hpl_kernel(A, vec, cols, rowptr, out):
    j = Int()
    mySum = Float(0)
    for_(j, rowptr[gidx] + lidx, rowptr[gidx + 1], M)
    mySum += A[j] * vec[cols[j]]
    endfor_()
    sdata = Array(float_, M, mem=Local)
    sdata[lidx] = mySum
    barrier(LOCAL)
    if_(lidx < 4)
    sdata[lidx] += sdata[lidx + 4]
    endif_()
    barrier(LOCAL)
    if_(lidx < 2)
    sdata[lidx] += sdata[lidx + 2]
    endif_()
    barrier(LOCAL)
    if_(lidx == 0)
    out[gidx] = sdata[0] + sdata[1]
    endif_()


def build_csr(n, per_row, seed=13):
    rng = np.random.default_rng(seed)
    rowptr = np.arange(0, (n + 1) * per_row, per_row, dtype=np.int32)
    cols = np.empty(n * per_row, dtype=np.int32)
    for r in range(n):
        cols[r * per_row:(r + 1) * per_row] = np.sort(
            rng.choice(n, size=per_row, replace=False))
    values = rng.random(n * per_row).astype(np.float32)
    return values, cols, rowptr


def main(n=512):
    values, cols, rowptr = build_csr(n, per_row=max(1, n // 100))
    rng = np.random.default_rng(14)
    x = rng.random(n).astype(np.float32)

    A = Array(float_, len(values), data=values)
    vec = Array(float_, n, data=x)
    cols_a = Array(int_, len(cols), data=cols)
    rowptr_a = Array(int_, n + 1, data=rowptr)
    out = Array(float_, n)
    eval(spmv_hpl_kernel).global_(n * M).local_(M)(A, vec, cols_a, rowptr_a, out)

    expected = np.zeros(n, dtype=np.float64)
    for r in range(n):
        lo, hi = rowptr[r], rowptr[r + 1]
        expected[r] = np.dot(values[lo:hi].astype(np.float64),
                             x[cols[lo:hi]].astype(np.float64))
    if not np.allclose(out.read(), expected, rtol=1e-4, atol=1e-5):
        print("VERIFICATION FAILED", file=sys.stderr)
        return 1
    print(f"spmv n={n}: verified, "
          f"|y|={float(np.abs(out.read()).sum()):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 512))
