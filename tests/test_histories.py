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


def test_head_constants_two_state():
    # kou_memory's chain: each head has one history, so lambda_s is its
    # Lambda_h and no row keeps any slack
    chain = MemoryChain(2, 1, np.array([[0.8], [1.6]]))
    assert chain.lambda_heads == (0.8, 1.6)
    assert np.all(chain.slack == 0.0)


def test_head_constants_single_regime():
    assert MemoryChain.from_constant(1, 0, 0.0).lambda_heads == (0.0,)


def test_lumpable_copies_get_equal_slack():
    # rates read (h0, h-1) only, so at N = 2 the histories that share that
    # prefix are lumpable copies and must keep the same bits of slack
    rules = [{"s": s, "history": [h0, h1], "rate": 0.2 * s + 0.1 * h0 + 0.07 * h1}
             for s in (1, 2, 3) for h0 in (1, 2, 3) for h1 in (1, 2, 3)
             if s != h0 and h1 != h0]
    chain = MemoryChain.from_rules(3, 2, 0.0, rules)
    heads = chain.heads()
    for s in (1, 2, 3):
        assert chain.lambda_heads[s - 1] == chain.lam_total[heads == s].max()
    assert np.all(chain.slack >= 0.0) and np.any(chain.slack > 0.0)
    by_prefix = {}
    for h, slack in zip(chain.histories, chain.slack):
        by_prefix.setdefault(h.labels[:2], set()).add(slack)
    assert all(len(values) == 1 for values in by_prefix.values())


def test_rate_lookup_and_shift_codes():
    chain = MemoryChain.from_rules(
        3, 1, default=0.5,
        rules=[{"s": 2, "history": [1, 3], "rate": 1.25}],
    )
    h = HistoryIndex((1, 3))
    i = encode(3, h)
    # targets of head 1 in ascending order: (2, 3)
    assert chain.rates[i, 0] == pytest.approx(1.25)
    assert chain.rates[i, 1] == pytest.approx(0.5)
    assert chain.codes_after_shift[i, 0] == encode(3, shift(h, 2))
    # a rule that matches no (history, target) pair is refused, not dropped:
    # no history repeats a label, none switches into its head, and m = 3
    for rule in ({"s": 2, "history": [1, 1]}, {"s": 1, "history": [1]},
                 {"s": 2, "history": [4]}):
        with pytest.raises(ValueError, match="matches no"):
            MemoryChain.from_rules(3, 1, default=0.5, rules=[dict(rule, rate=1.25)])


def test_rules_prefix_matching():
    chain = MemoryChain.from_rules(
        3, 2, default=0.1,
        rules=[
            {"s": 2, "history": [1], "rate": 0.7},
            {"s": 2, "history": [1, 3, 2], "rate": 0.9},
        ],
    )
    # the rate into 2 is column 0 of head 1's targets (2, 3), column 1 of
    # head 3's (1, 2)
    assert chain.rates[encode(3, HistoryIndex((1, 3, 2))), 0] == pytest.approx(0.9)
    assert chain.rates[encode(3, HistoryIndex((1, 3, 1))), 0] == pytest.approx(0.7)
    assert chain.rates[encode(3, HistoryIndex((3, 1, 3))), 1] == pytest.approx(0.1)


def test_size_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_histories(10, 6)  # 10 * 9**6 > 1e5


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        MemoryChain(2, 0, np.array([[-1.0], [1.0]]))
