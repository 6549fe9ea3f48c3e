import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsbarrier.errors import InfeasibleHistoryError, InvalidTransitionError, ResourceLimitError
from rsbarrier.histories import (
    HistoryIndex,
    MemoryChain,
    decode,
    encode,
    enumerate_histories,
    shift,
    space_size,
)


def test_count_m3_n2():
    assert len(enumerate_histories(3, 2)) == 12


def test_alternation_forced_m2_n3():
    hs = enumerate_histories(2, 3)
    assert [h.labels for h in hs] == [(1, 2, 1, 2), (2, 1, 2, 1)]


def test_count_m4_n0():
    assert len(enumerate_histories(4, 0)) == 4


def test_m1_requires_n0():
    assert enumerate_histories(1, 0) == [HistoryIndex((1,))]
    with pytest.raises(InfeasibleHistoryError):
        enumerate_histories(1, 1)


def test_no_repeat_invariant():
    for h in enumerate_histories(3, 3):
        for a, b in zip(h.labels, h.labels[1:]):
            assert a != b


def test_shift_examples():
    assert shift(HistoryIndex((1, 2, 1)), 2).labels == (2, 1, 2)
    assert shift(HistoryIndex((3, 1, 2)), 1).labels == (1, 3, 1)
    with pytest.raises(InvalidTransitionError):
        shift(HistoryIndex((1, 2, 1)), 1)


def test_shift_drops_oldest():
    h = HistoryIndex((2, 3, 1, 2))
    for s in (1, 3, 4):
        out = shift(h, s)
        assert out.head == s
        assert out.labels[1:] == h.labels[:-1]


@given(st.integers(2, 4), st.integers(0, 3))
def test_encode_decode_roundtrip(m, n):
    hs = enumerate_histories(m, n)
    assert len(hs) == space_size(m, n)
    codes = [encode(m, h) for h in hs]
    assert codes == list(range(len(hs)))
    for code, h in zip(codes, hs):
        assert decode(m, n, code) == h


@given(st.integers(1, 4), st.integers(0, 3))
def test_head_groups_contiguous_and_equal(m, n):
    # the engine's operator plans split the rows into m equal blocks, one per
    # head in order, with no gather: h0 must be the leading digit of the code
    if m == 1 and n > 0:
        return
    heads = MemoryChain.from_constant(m, n, 1.0).heads()
    assert np.array_equal(heads, np.repeat(np.arange(1, m + 1), space_size(m, n) // m))


def test_out_degree_sum():
    m, n = 3, 2
    chain = MemoryChain.from_constant(m, n, 1.0)
    positive = int(np.count_nonzero(chain.rates))
    assert positive == space_size(m, n) * (m - 1)


def test_lambda0_two_state():
    # lambda_{2,(1)}=1, lambda_{1,(2)}=2 -> Lambda0 = 2
    chain = MemoryChain(2, 0, np.array([[1.0], [2.0]]))
    assert chain.lambda0 == pytest.approx(2.0)


def test_lambda0_override():
    chain = MemoryChain(2, 0, np.array([[1.0], [2.0]]), lambda0_override=5.0)
    assert chain.lambda0 == 5.0
    with pytest.raises(ValueError):
        MemoryChain(2, 0, np.array([[1.0], [2.0]]), lambda0_override=1.5)


def test_rate_lookup_and_shift_codes():
    chain = MemoryChain.from_rules(
        3, 1, default=0.5,
        rules=[{"s": 2, "history": [1, 3], "rate": 1.25}],
    )
    h = HistoryIndex((1, 3))
    assert chain.rate(2, h) == pytest.approx(1.25)
    assert chain.rate(3, h) == pytest.approx(0.5)
    i = encode(3, h)
    j = 0  # targets of head 1 in ascending order: (2, 3)
    assert chain.codes_after_shift[i, j] == encode(3, shift(h, 2))


def test_rules_prefix_matching():
    chain = MemoryChain.from_rules(
        3, 2, default=0.1,
        rules=[
            {"s": 2, "history": [1], "rate": 0.7},
            {"s": 2, "history": [1, 3, 2], "rate": 0.9},
        ],
    )
    assert chain.rate(2, HistoryIndex((1, 3, 2))) == pytest.approx(0.9)
    assert chain.rate(2, HistoryIndex((1, 3, 1))) == pytest.approx(0.7)
    assert chain.rate(2, HistoryIndex((3, 1, 3))) == pytest.approx(0.1)


def test_size_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_histories(10, 6)  # 10 * 9**6 > 1e5


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        MemoryChain(2, 0, np.array([[-1.0], [1.0]]))
