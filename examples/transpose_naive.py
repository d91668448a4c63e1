"""Figure 10 of the paper: the naive matrix transpose, HPL style.

Run with ``python examples/transpose_naive.py``.

The paper contrasts EPGPU (where the kernel is an OpenCL C string with
``__global`` qualifiers and hand-linearised indices) with HPL, where the
kernel is host-language code over multidimensional arrays.  This example
is the HPL side of that comparison — including a look at the OpenCL C
that HPL generates, which is essentially what the EPGPU user must write
by hand — plus the blocked variant used in the evaluation, to show the
performance difference the naive version leaves on the table.
"""

import numpy as np

from repro.benchsuite.table1.transpose_hpl import BLOCK, transpose_hpl_kernel
from repro.hpl import Array, Int, eval, float_, idx, idy


def naive_transpose(dest, src):
    """Paper Figure 10(b): one element per work-item, 2-D arrays."""
    dest[idx][idy] = src[idy][idx]


def main(h=512, w=512):
    rng = np.random.default_rng(1)
    data = rng.random((h, w)).astype(np.float32)

    src = Array(float_, h, w)
    dst = Array(float_, w, h)
    src.data[:] = data

    result = eval(naive_transpose)(dst, src)
    assert np.array_equal(dst.read(), data.T)

    print("naive transpose (paper Fig. 10b) — generated OpenCL C:")
    for line in result.source.strip().split("\n"):
        print("  |", line)
    print(f"  simulated kernel time: {result.kernel_seconds * 1e3:.3f} ms")
    naive_tx = result.kernel_event.counters.global_transactions

    # the blocked version from the evaluation, for contrast
    src1 = Array(float_, h * w, data=data.reshape(-1).copy())
    dst1 = Array(float_, w * h)
    blocked = eval(transpose_hpl_kernel).global_(w, h) \
        .local_(BLOCK, BLOCK)(dst1, src1, Int(w), Int(h))
    assert np.array_equal(dst1.read().reshape(w, h), data.T)

    blocked_tx = blocked.kernel_event.counters.global_transactions
    print(f"\nblocked transpose (evaluation version): "
          f"{blocked.kernel_seconds * 1e3:.3f} ms")
    print(f"memory transactions: naive={naive_tx}, blocked={blocked_tx} "
          f"({naive_tx / blocked_tx:.1f}x fewer with local-memory "
          "staging)")
    assert blocked_tx < naive_tx


if __name__ == "__main__":
    main()
