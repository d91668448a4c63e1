"""Divergent control flow on both engines."""

import numpy as np

_DT = np.int32


class TestIfDivergence:
    def test_half_lanes_take_branch(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            if (i % 2 == 0) {
                o[i] = 10;
            } else {
                o[i] = 20;
            }
        }"""
        o = np.zeros(16, _DT)
        cl_run(any_engine_device, src, "f", [o], (16,))
        assert np.array_equal(o, np.where(np.arange(16) % 2 == 0, 10, 20))

    def test_nested_if(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            if (i < 8) {
                if (i < 4) {
                    o[i] = 1;
                } else {
                    o[i] = 2;
                }
            } else {
                o[i] = 3;
            }
        }"""
        o = np.zeros(16, _DT)
        cl_run(any_engine_device, src, "f", [o], (16,))
        expected = np.where(np.arange(16) < 4, 1,
                            np.where(np.arange(16) < 8, 2, 3))
        assert np.array_equal(o, expected)

    def test_empty_else(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            o[i] = 5;
            if (i == 0) {
                o[i] = 9;
            }
        }"""
        o = np.zeros(8, _DT)
        cl_run(any_engine_device, src, "f", [o], (8,))
        assert o[0] == 9 and np.all(o[1:] == 5)


class TestLoops:
    def test_data_dependent_trip_counts(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j < i; j++) {
                acc += j;
            }
            o[i] = acc;
        }"""
        o = np.zeros(12, _DT)
        cl_run(any_engine_device, src, "f", [o], (12,))
        expected = np.array([sum(range(i)) for i in range(12)], _DT)
        assert np.array_equal(o, expected)

    def test_while_with_update_inside(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int n = i + 1;
            int steps = 0;
            while (n != 1) {
                if (n % 2 == 0) {
                    n = n / 2;
                } else {
                    n = 3 * n + 1;
                }
                steps++;
            }
            o[i] = steps;
        }"""
        o = np.zeros(16, _DT)
        cl_run(any_engine_device, src, "f", [o], (16,))

        def collatz(n):
            s = 0
            while n != 1:
                n = n // 2 if n % 2 == 0 else 3 * n + 1
                s += 1
            return s
        assert np.array_equal(o, [collatz(i + 1) for i in range(16)])

    def test_break_statement(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j < 100; j++) {
                if (j == i) {
                    break;
                }
                acc += 1;
            }
            o[i] = acc;
        }"""
        o = np.zeros(10, _DT)
        cl_run(any_engine_device, src, "f", [o], (10,))
        assert np.array_equal(o, np.arange(10))

    def test_continue_statement(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int acc = 0;
            for (int j = 0; j < 10; j++) {
                if (j % 2 == 1) {
                    continue;
                }
                acc += j;
            }
            o[i] = acc;
        }"""
        o = np.zeros(4, _DT)
        cl_run(any_engine_device, src, "f", [o], (4,))
        assert np.all(o == sum(j for j in range(10) if j % 2 == 0))

    def test_continue_still_runs_for_update(self, any_engine_device,
                                            cl_run):
        # a for-loop continue must execute the update clause or loop
        # forever; this is the classic desugaring bug
        src = """__kernel void f(__global int* o) {
            int count = 0;
            for (int j = 0; j < 5; j++) {
                if (j == 2) {
                    continue;
                }
                count++;
            }
            o[get_global_id(0)] = count;
        }"""
        o = np.zeros(2, _DT)
        cl_run(any_engine_device, src, "f", [o], (2,))
        assert np.all(o == 4)

    def test_do_while_runs_at_least_once(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int n = 0;
            do {
                n++;
            } while (n < i);
            o[i] = n;
        }"""
        o = np.zeros(6, _DT)
        cl_run(any_engine_device, src, "f", [o], (6,))
        assert np.array_equal(o, [1, 1, 2, 3, 4, 5])

    def test_nested_loops_with_break(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int acc = 0;
            for (int a = 0; a < 4; a++) {
                for (int b = 0; b < 4; b++) {
                    if (b > a) {
                        break;
                    }
                    acc++;
                }
            }
            o[i] = acc;
        }"""
        o = np.zeros(3, _DT)
        cl_run(any_engine_device, src, "f", [o], (3,))
        assert np.all(o == 1 + 2 + 3 + 4)

    def test_early_return(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            o[i] = 1;
            if (i < 4) {
                return;
            }
            o[i] = 2;
        }"""
        o = np.zeros(8, _DT)
        cl_run(any_engine_device, src, "f", [o], (8,))
        assert np.array_equal(o, [1, 1, 1, 1, 2, 2, 2, 2])

    def test_return_inside_loop(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            for (int j = 0; j < 10; j++) {
                if (j == i) {
                    o[i] = j * 100;
                    return;
                }
            }
            o[i] = -1;
        }"""
        o = np.zeros(12, _DT)
        cl_run(any_engine_device, src, "f", [o], (12,))
        expected = [i * 100 if i < 10 else -1 for i in range(12)]
        assert np.array_equal(o, expected)

    def test_helper_with_return_paths(self, any_engine_device, cl_run):
        src = """
        int pick(int x) {
            if (x > 5) {
                return 100;
            }
            return x;
        }
        __kernel void f(__global int* o) {
            int i = get_global_id(0);
            o[i] = pick(i);
        }"""
        o = np.zeros(10, _DT)
        cl_run(any_engine_device, src, "f", [o], (10,))
        assert np.array_equal(o, [0, 1, 2, 3, 4, 5, 100, 100, 100, 100])

    def test_logical_and_short_circuit_effects(self, any_engine_device,
                                               cl_run):
        # every engine must agree on && even though the lock-step engine
        # evaluates both sides (expressions are side-effect free)
        src = """__kernel void f(__global int* o, __global const int* a) {
            int i = get_global_id(0);
            o[i] = (i > 2 && a[i] > 0) ? 1 : 0;
        }"""
        a = np.array([1, -1, 1, -1, 1, -1], np.int32)
        o = np.zeros(6, _DT)
        cl_run(any_engine_device, src, "f", [o, a], (6,))
        assert np.array_equal(o, [0, 0, 0, 0, 1, 0])

    def test_private_array_per_item(self, any_engine_device, cl_run):
        src = """__kernel void f(__global int* o) {
            int i = get_global_id(0);
            int q[4];
            for (int j = 0; j < 4; j++) {
                q[j] = i * 10 + j;
            }
            o[i] = q[i % 4];
        }"""
        o = np.zeros(8, _DT)
        cl_run(any_engine_device, src, "f", [o], (8,))
        assert np.array_equal(o, [i * 10 + i % 4 for i in range(8)])
