"""eval() invocation semantics: domains, device selection, caching."""

import numpy as np
import pytest

import repro.hpl as hpl
from repro.errors import BuildProgramFailure, DomainError, HPLError
from repro.hpl import (Array, Double, Float, Int, double_, float_, gidx,
                       get_device, get_devices, get_runtime, idx, idy,
                       int_, lidx)


@pytest.fixture(autouse=True)
def _fresh(fresh_runtime):
    yield


def fill_ids(a):
    a[idx] = idx


class TestDomains:
    def test_default_global_domain_is_first_arg_shape(self):
        a = Array(int_, 12)
        hpl.eval(fill_ids)(a)
        assert np.array_equal(a.read(), np.arange(12))

    def test_default_2d_domain(self):
        def k(a, w):
            a[idx][idy] = idx * 100 + idy

        a = Array(int_, 3, 5)
        hpl.eval(k)(a, Int(5))
        expected = np.add.outer(np.arange(3) * 100, np.arange(5))
        assert np.array_equal(a.read(), expected)

    def test_explicit_global_domain(self):
        a = Array(int_, 16).fill(0)
        hpl.eval(fill_ids).global_(4)(a)
        assert np.array_equal(a.read()[:4], np.arange(4))
        assert np.all(a.read()[4:] == 0)

    def test_explicit_local_domain_group_ids(self):
        def k(a):
            a[idx] = gidx * 1000 + lidx

        a = Array(int_, 12)
        hpl.eval(k).global_(12).local_(4)(a)
        expected = [g * 1000 + l for g in range(3) for l in range(4)]
        assert np.array_equal(a.read(), expected)

    def test_local_must_divide_global(self):
        # a bad .local_() is a DomainError naming both domains at launch
        # time, not an opaque engine error from deep inside the run
        a = Array(int_, 10)
        with pytest.raises(DomainError, match=r"\(3,\).*\(10,\)"):
            hpl.eval(fill_ids).global_(10).local_(3)(a)

    def test_local_dimensionality_must_match(self):
        a = Array(int_, 4, 4)

        def k(a):
            a[idx][idy] = 1

        with pytest.raises(DomainError):
            hpl.eval(k).global_(4, 4).local_(2)(a)

    def test_scalar_only_args_need_explicit_domain(self):
        def k(n):
            i = Int()
            i.assign(n)

        with pytest.raises(DomainError):
            hpl.eval(k)(Int(5))

    def test_invalid_domain_values(self):
        with pytest.raises(DomainError):
            hpl.eval(fill_ids).global_(0)
        with pytest.raises(DomainError):
            hpl.eval(fill_ids).global_(1, 1, 1, 1)

    @pytest.mark.parametrize("dims", [(8.5,), ("8",), (8.0,), ((4, 2.5),),
                                      (np.float32(8),), (None,)])
    @pytest.mark.parametrize("what", ["global_", "local_"])
    def test_non_integer_domains_raise_domain_error(self, what, dims):
        with pytest.raises(DomainError, match="integers"):
            getattr(hpl.eval(fill_ids), what)(*dims)

    def test_numpy_integer_domains_run(self):
        a = Array(int_, 16).fill(0)
        hpl.eval(fill_ids).global_(np.int64(8)).local_(np.int32(4))(a)
        assert np.array_equal(a.read()[:8], np.arange(8))
        assert np.all(a.read()[8:] == 0)


class TestDeviceSelection:
    def test_default_is_first_non_cpu(self):
        a = Array(int_, 4)
        result = hpl.eval(fill_ids)(a)
        assert "Tesla" in result.device.name

    def test_device_by_name_fragment(self):
        dev = get_device("quadro")
        assert "Quadro" in dev.name

    def test_device_by_index(self):
        assert get_device(0) is get_runtime().devices[0]

    def test_unknown_device_rejected(self):
        with pytest.raises(HPLError, match="no device"):
            get_device("cerebras")

    def test_eval_on_named_device(self):
        a = Array(int_, 4)
        result = hpl.eval(fill_ids).device("Xeon")(a)
        assert "Xeon" in result.device.name
        assert np.array_equal(a.read(), np.arange(4))

    def test_double_kernel_rejected_on_quadro(self):
        def k(a):
            a[idx] = a[idx] * 2.0

        a = Array(double_, 4)
        with pytest.raises(BuildProgramFailure, match="double"):
            hpl.eval(k).device("Quadro")(a)

    def test_float_kernel_runs_on_quadro(self):
        def k(a):
            a[idx] = a[idx] + 1.5

        a = Array(float_, 4).fill(1.0)
        hpl.eval(k).device("Quadro")(a)
        assert np.all(a.read() == 2.5)

    def test_all_three_devices_listed(self):
        assert len(get_devices()) == 3


class TestCaching:
    def test_first_call_pays_overhead(self):
        a = Array(int_, 4)
        r1 = hpl.eval(fill_ids)(a)
        assert not r1.from_cache
        assert r1.codegen_seconds > 0 and r1.build_seconds > 0

    def test_second_call_is_cached(self):
        a = Array(int_, 4)
        hpl.eval(fill_ids)(a)
        r2 = hpl.eval(fill_ids)(a)
        assert r2.from_cache
        assert r2.overhead_seconds == 0.0

    def test_cache_keyed_per_device(self):
        def k(a):
            a[idx] = 1

        a = Array(float_, 4)
        hpl.eval(k).device("Tesla")(a)
        r = hpl.eval(k).device("Quadro")(a)
        assert not r.from_cache     # new device => new binary
        r2 = hpl.eval(k).device("Quadro")(a)
        assert r2.from_cache

    def test_stats_count_cache_hits(self):
        a = Array(int_, 4)
        rt = get_runtime()
        hpl.eval(fill_ids)(a)
        hpl.eval(fill_ids)(a)
        hpl.eval(fill_ids)(a)
        assert rt.stats.kernels_built == 1
        assert rt.stats.cache_hits == 2
        assert rt.stats.launches == 3

    def test_eval_result_exposes_source(self):
        a = Array(int_, 4)
        r = hpl.eval(fill_ids)(a)
        assert "__kernel void fill_ids" in r.source

    def test_simulated_times_positive(self):
        a = Array(double_, 1024).fill(1.0)

        def k(x):
            x[idx] = x[idx] * 2.0

        r = hpl.eval(k)(a)
        assert r.kernel_seconds > 0
        assert r.transfer_seconds > 0


class TestPaperExamples:
    """The three example codes of §IV, end to end."""

    def test_saxpy_figure3(self):
        myvector = np.zeros(1000)

        def saxpy(y, x, a):
            y[idx] = a * x[idx] + y[idx]

        x = Array(double_, 1000)
        y = Array(double_, 1000, data=myvector)
        x.data[:] = np.random.rand(1000)
        y.data[:] = np.random.rand(1000)
        x0, y0 = x.read().copy(), y.read().copy()
        a = Double(3.5)
        hpl.eval(saxpy)(y, x, a)
        assert np.allclose(y.read(), 3.5 * x0 + y0)
        assert np.allclose(myvector, 3.5 * x0 + y0)  # user storage

    def test_dot_product_figure4(self):
        N, M = 256, 32

        def dotp(v1, v2, pSums):
            i = Int()
            sharedM = Array(float_, M, mem=hpl.Local)
            sharedM[lidx] = v1[idx] * v2[idx]
            hpl.barrier(hpl.LOCAL)
            if hpl is None:
                return
            hpl.if_(lidx == 0)
            hpl.for_(i, 0, M)
            pSums[gidx] += sharedM[i]
            hpl.endfor_()
            hpl.endif_()

        v1 = Array(float_, N)
        v2 = Array(float_, N)
        pSums = Array(float_, N // M)
        v1.data[:] = np.random.rand(N).astype(np.float32)
        v2.data[:] = np.random.rand(N).astype(np.float32)
        hpl.eval(dotp).global_(N).local_(M)(v1, v2, pSums)
        result = sum(pSums(i) for i in range(N // M))
        expected = float(np.dot(v1.read().astype(np.float64),
                                v2.read().astype(np.float64)))
        assert np.isclose(result, expected, rtol=1e-4)

    def test_naive_transpose_figure10(self):
        def naive_transpose(dest, src):
            dest[idx][idy] = src[idy][idx]

        h, w = 24, 16
        src = Array(float_, h, w)
        dst = Array(float_, w, h)
        src.data[:] = np.random.rand(h, w).astype(np.float32)
        hpl.eval(naive_transpose)(dst, src)
        assert np.array_equal(dst.read(), src.read().T)
