# Blocked matrix transpose written with HPL.
import sys

import numpy as np

from repro.hpl import (LOCAL, Array, Int, Local, barrier, eval, float_,
                       gidx, gidy, idx, idy, lidx, lidy)

BLOCK = 16


def transpose_hpl_kernel(output, input_, width, height):
    tile = Array(float_, BLOCK * BLOCK, mem=Local)
    tile[lidy * BLOCK + lidx] = input_[idy * width + idx]
    barrier(LOCAL)
    ox = Int(); ox.assign(gidy * BLOCK + lidx)
    oy = Int(); oy.assign(gidx * BLOCK + lidy)
    output[oy * height + ox] = tile[lidx * BLOCK + lidy]


def main(n=256):
    rng = np.random.default_rng(11)
    host = rng.random((n, n)).astype(np.float32)
    src = Array(float_, n * n, data=host.reshape(-1).copy())
    dst = Array(float_, n * n)
    eval(transpose_hpl_kernel).global_(n, n).local_(BLOCK, BLOCK)(
        dst, src, Int(n), Int(n))
    if not np.array_equal(dst.read().reshape(n, n), host.T):
        print("VERIFICATION FAILED", file=sys.stderr)
        return 1
    print(f"transpose {n}x{n}: verified")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 256))
