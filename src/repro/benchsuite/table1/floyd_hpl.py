# Floyd-Warshall all-pairs shortest paths written with HPL.
import sys

import numpy as np

from repro.hpl import Array, Int, endif_, eval, idx, idy, if_, int_


def floyd_hpl_kernel(pathDistance, numNodes, k):
    oldW = Int(); oldW.assign(pathDistance[idy * numNodes + idx])
    tempW = Int(); tempW.assign(pathDistance[idy * numNodes + k]
                                + pathDistance[k * numNodes + idx])
    if_(tempW < oldW)
    pathDistance[idy * numNodes + idx] = tempW
    endif_()


def generate_graph(n, seed=17):
    rng = np.random.default_rng(seed)
    dist = rng.integers(1, 11, size=(n, n), dtype=np.int32)
    np.fill_diagonal(dist, 0)
    return dist


def reference(dist):
    d = dist.astype(np.int64).copy()
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :], out=d)
    return d.astype(np.int32)


def main(n=64):
    graph = generate_graph(n)
    dist = Array(int_, n * n, data=graph.reshape(-1).copy())
    for k in range(n):
        eval(floyd_hpl_kernel).global_(n, n)(dist, Int(n), Int(k))
    out = dist.read().reshape(n, n)
    if not np.array_equal(out, reference(graph)):
        print("VERIFICATION FAILED", file=sys.stderr)
        return 1
    print(f"floyd n={n}: verified, checksum={int(out.sum())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 64))
