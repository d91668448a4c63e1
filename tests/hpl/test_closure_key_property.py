"""The by-value closure key of ``HPLRuntime._func_key``.

Two closure values must share a key exactly when they trace the same
kernel.  The reference is a slow recursive tag that names every leaf's
type and writes every float with ``float.hex``, so ``1``/``1.0``/
``True`` and ``0.0``/``-0.0`` stay apart.  NaN is left out: it equals no
other NaN, so two NaN leaves share a key only when they are one object.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hpl as hpl
from repro.hpl import Array, HPLRuntime, float_, get_runtime, idx

key_of = HPLRuntime._cell_signature


def oracle(value):
    """Recursive tag of ``value``: every leaf with its exact type."""
    kind = type(value)
    if isinstance(value, tuple):
        return (kind, tuple(oracle(v) for v in value))
    if isinstance(value, frozenset):
        return (kind, frozenset(oracle(v) for v in value))
    if isinstance(value, float):
        return (kind, value.hex())
    if isinstance(value, complex):
        return (kind, value.real.hex(), value.imag.hex())
    return (kind, value)


# small pools make equal-but-differently-typed leaves common
_leaves = st.one_of(
    st.sampled_from([0, 1, -1, 3]),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, 0.5]),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.sampled_from([0j, -0j, complex(0.0, -0.0), 1 + 0j, 1 + 2j]),
    st.sampled_from(["", "a", "x"]),
    st.sampled_from([b"", b"a"]),
    st.none(),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(frozenset)),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_values, _values)
def test_keys_equal_exactly_when_the_oracle_agrees(a, b):
    ka, kb = key_of(a), key_of(b)
    assert ka is not None and kb is not None
    hash(ka)
    assert (ka == kb) == (oracle(a) == oracle(b))


@settings(max_examples=100, deadline=None)
@given(_values)
def test_equal_values_of_other_types_get_other_keys(value):
    # the same structure with every int leaf turned into a float (and
    # bools into ints): compares equal, must key apart unless unchanged
    def retype(v):
        if isinstance(v, tuple):
            return tuple(retype(x) for x in v)
        if isinstance(v, frozenset):
            return frozenset(retype(x) for x in v)
        if type(v) is bool:
            return int(v)
        if type(v) is int:
            return float(v)
        return v

    other = retype(value)
    assert (key_of(value) == key_of(other)) == \
        (oracle(value) == oracle(other))


@pytest.mark.parametrize("a, b", [
    (1, 1.0), (1, True), ((1,), (1.0,)), (0.0, -0.0), ((0.0,), (-0.0,)),
    (frozenset({3}), frozenset({3.0})),
    (frozenset({1, 9.0}), frozenset({9, 1.0})),
    (((1,), 2), ((1, 2),)),
])
def test_known_collisions_key_apart(a, b):
    assert key_of(a) != key_of(b)


def test_subclass_keeps_its_value_key_under_its_own_type():
    class Level(int):
        pass

    assert key_of(Level(2)) == key_of(Level(2))
    assert key_of(Level(2)) != key_of(2)


@pytest.mark.parametrize("value", [
    [1], {1: 2}, {1}, bytearray(b"a"), object(), np.float32(1.0),
    (1, [2]), frozenset({(1, object())}),
])
def test_mutable_or_opaque_values_have_no_value_key(value):
    assert key_of(value) is None


@pytest.mark.parametrize("value", [[1], {1: 2}, {1}, bytearray(b"a")])
def test_closures_over_them_are_keyed_by_identity(value):
    def k(y):
        y[idx] = y[idx] + float(len(value))

    key = get_runtime()._func_key(k)
    assert isinstance(key, weakref.ref) and key() is k


def test_one_cache_missing_eval_computes_one_func_key(fresh_runtime,
                                                       monkeypatch):
    calls = []
    original = HPLRuntime._func_key
    monkeypatch.setattr(HPLRuntime, "_func_key",
                        lambda self, func: calls.append(func)
                        or original(self, func))
    factor = 2.0

    def scale(y):
        y[idx] = y[idx] * factor

    a = Array(float_, 4)
    result = hpl.eval(scale)(a)
    assert not result.from_cache
    assert calls == [scale]
