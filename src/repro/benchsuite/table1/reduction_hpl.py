# Multi-stage parallel sum reduction written with HPL.
import sys

import numpy as np

from repro.hpl import (LOCAL, Array, Float, Int, Local, barrier, endif_,
                       endwhile_, eval, float_, gidx, idx, if_, int_,
                       lidx, lszx, szx, while_)

GROUP_SIZE = 256
NUM_GROUPS = 64


def reduction_hpl_kernel(g_idata, g_odata, n):
    sdata = Array(float_, GROUP_SIZE, mem=Local)
    i = Int(); i.assign(idx)
    total = Float(0)
    while_(i < n)
    total += g_idata[i]
    i += szx
    endwhile_()
    sdata[lidx] = total
    barrier(LOCAL)
    s = Int(); s.assign(lszx / 2)
    while_(s > 0)
    if_(lidx < s)
    sdata[lidx] += sdata[lidx + s]
    endif_()
    barrier(LOCAL)
    s.assign(s / 2)
    endwhile_()
    if_(lidx == 0)
    g_odata[gidx] = sdata[0]
    endif_()


def main(n=1 << 18):
    rng = np.random.default_rng(23)
    data = rng.random(n).astype(np.float32)

    g_idata = Array(float_, n, data=data)
    partials = Array(float_, NUM_GROUPS)
    result = Array(float_, 1)
    eval(reduction_hpl_kernel).global_(GROUP_SIZE * NUM_GROUPS) \
        .local_(GROUP_SIZE)(g_idata, partials, Int(n))
    eval(reduction_hpl_kernel).global_(GROUP_SIZE).local_(GROUP_SIZE)(
        partials, result, Int(NUM_GROUPS))

    expected = float(data.astype(np.float64).sum())
    if abs(result(0) - expected) > 1e-3 * abs(expected):
        print("VERIFICATION FAILED", file=sys.stderr)
        return 1
    print(f"reduction n={n}: sum={result(0):.4f} (verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 1 << 18))
