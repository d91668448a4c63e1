"""``carith.to_dtype`` float-to-integer conversion against the
implementation it replaced, kept here as the oracle."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ocl.engines.carith import to_dtype

INT_DTYPES = [np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64,
                                    np.uint8, np.uint16, np.uint32,
                                    np.uint64)]
FLOAT_DTYPES = [np.dtype(np.float32), np.dtype(np.float64)]


def _reference(value, np_dtype):
    """The previous ``to_dtype``: ``nan_to_num`` after ``trunc``."""
    arr = np.asarray(value)
    if np.issubdtype(np_dtype, np.integer) and np.issubdtype(
            arr.dtype, np.floating):
        with np.errstate(invalid="ignore", over="ignore"):
            arr = np.nan_to_num(np.trunc(arr),
                                nan=0.0, posinf=0.0, neginf=0.0)
            return arr.astype(np.int64, copy=False).astype(np_dtype,
                                                           copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        return arr.astype(np_dtype, copy=False)


def _special(dtype):
    info = np.finfo(dtype)
    return [np.nan, np.inf, -np.inf, 0.0, -0.0, float(info.tiny) / 4,
            -float(info.tiny) / 4, float(info.max), float(info.min),
            2.0 ** 63, -2.0 ** 63, 2.0 ** 64, 2.0 ** 31, -2.0 ** 31 - 1,
            2.0 ** 32 + 0.5, 255.9, -128.7, 65535.5, 1e30, -1e30]


@st.composite
def _float_arrays(draw):
    dtype = draw(st.sampled_from(FLOAT_DTYPES))
    width = dtype.itemsize * 8
    elements = st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True,
                  allow_subnormal=True),
        st.sampled_from(_special(dtype)))
    return draw(hnp.arrays(dtype, st.integers(0, 40), elements=elements))


def _same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(_float_arrays(), st.sampled_from(INT_DTYPES))
def test_arrays_match_the_reference(arr, np_dtype):
    _same(to_dtype(arr, np_dtype), _reference(arr, np_dtype))


@given(st.sampled_from(FLOAT_DTYPES), st.sampled_from(INT_DTYPES),
       st.data())
def test_scalars_match_the_reference(src, np_dtype, data):
    """A numpy scalar, a 0-d array and a Python float give what the
    reference gives (a numpy scalar)."""
    value = data.draw(st.one_of(
        st.floats(width=src.itemsize * 8, allow_subnormal=True),
        st.sampled_from(_special(src))))
    for form in (src.type(value), np.asarray(value, dtype=src)):
        _same(to_dtype(form, np_dtype), _reference(form, np_dtype))
    if src == np.float64:
        _same(to_dtype(value, np_dtype), _reference(value, np_dtype))


@given(st.one_of(_float_arrays(),
                hnp.arrays(st.sampled_from(INT_DTYPES), st.integers(0, 40))),
       st.sampled_from(FLOAT_DTYPES + INT_DTYPES))
def test_every_conversion_matches_the_reference(arr, np_dtype):
    """Integer sources and float targets keep the plain cast."""
    _same(to_dtype(arr, np_dtype), _reference(arr, np_dtype))


def test_special_values():
    arr = np.array([np.nan, np.inf, -np.inf, -0.0, 2.9, -2.9, 1e-310],
                   dtype=np.float64)
    assert to_dtype(arr, np.int32).tolist() == [0, 0, 0, 0, 2, -2, 0]
