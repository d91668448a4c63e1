"""Self-test of the seeded kernel generator and its NumPy twin."""

import numpy as np

import kernelgen
from repro import hpl


def _evaluate(spec, data):
    fa, fb, ia = data
    n = fa.shape[0]
    fo = hpl.Array(hpl.float_, n)
    io = hpl.Array(hpl.int_, n)
    result = hpl.eval(kernelgen.build(spec))(
        fo, io, hpl.Array(hpl.float_, n, data=fa),
        hpl.Array(hpl.float_, n, data=fb), hpl.Array(hpl.int_, n, data=ia))
    return result.source, fo.read().copy(), io.read().copy()


def test_generator_is_deterministic_per_seed():
    for seed in (0, 7):
        for index in range(20):
            assert kernelgen.generate(seed, index) \
                == kernelgen.generate(seed, index)
            for a, b in zip(kernelgen.inputs(seed, index),
                            kernelgen.inputs(seed, index)):
                np.testing.assert_array_equal(a, b)
    assert kernelgen.generate(0, 0) != kernelgen.generate(1, 0)


def test_fifty_seeds_give_distinct_sources_that_verify():
    sources = set()
    for seed in range(50):
        spec = kernelgen.generate(seed, seed)
        data = kernelgen.inputs(seed, seed)
        source, fo, io = _evaluate(spec, data)
        assert kernelgen.matches(spec, *data, fo, io), source
        assert not kernelgen.matches(spec, *data, fo, io + 1)
        sources.add(source)
    assert len(sources) == 50
    sizes = sorted(len(s) for s in sources)
    # spans the paper kernels: reduction's ~0.7 kB up to EP's ~5 kB
    assert sizes[0] < 800 and sizes[-1] > 4000


def test_equal_specs_share_one_runtime_cache_entry():
    spec = kernelgen.generate(3, 1)
    data = kernelgen.inputs(3, 1)
    _evaluate(spec, data)
    stats = hpl.get_runtime().stats
    built = stats.kernels_built
    _evaluate(spec, data)               # a new closure over an equal spec
    assert stats.kernels_built == built
    _evaluate(kernelgen.generate(3, 2), data)
    assert stats.kernels_built == built + 1
