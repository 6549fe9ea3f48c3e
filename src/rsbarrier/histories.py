"""Truncated history space, shift map, and the transition-rate table.

Histories are tuples (h0, h-1, ..., h-N) of regime labels in {1..m} with
consecutive entries distinct, so there are m*(m-1)**N of them.  The dense
integer code is mixed-radix: h0 in base m, every later entry in base m-1
(skip the previous label).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleHistoryError,
    InvalidTransitionError,
    ResourceLimitError,
)

__all__ = [
    "HistoryIndex",
    "MemoryChain",
    "enumerate_histories",
    "shift",
    "encode",
    "decode",
    "space_size",
]

MAX_HISTORIES = 100_000


@dataclass(frozen=True)
class HistoryIndex:
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("history must hold at least the current state")
        for a, b in zip(self.labels, self.labels[1:]):
            if a == b:
                raise ValueError(f"consecutive history entries equal: {self.labels}")

    @property
    def head(self) -> int:
        return self.labels[0]

    @property
    def depth(self) -> int:
        return len(self.labels) - 1


def space_size(m: int, n_memory: int) -> int:
    return m * (m - 1) ** n_memory


def _validate_mn(m: int, n_memory: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_memory < 0:
        raise ValueError("N must be >= 0")
    if m == 1 and n_memory > 0:
        raise InfeasibleHistoryError(
            "m=1 admits no history with distinct consecutive entries; need N=0"
        )


def encode(m: int, h: HistoryIndex) -> int:
    """Dense code in {0, ..., m*(m-1)**N - 1}."""
    labels = h.labels
    if any(not 1 <= s <= m for s in labels):
        raise ValueError(f"labels must lie in 1..{m}: {labels}")
    code = labels[0] - 1
    prev = labels[0]
    for s in labels[1:]:
        digit = s - 1 if s < prev else s - 2
        code = code * (m - 1) + digit
        prev = s
    return code


def decode(m: int, n_memory: int, code: int) -> HistoryIndex:
    _validate_mn(m, n_memory)
    if not 0 <= code < space_size(m, n_memory):
        raise ValueError(f"code {code} out of range for (m={m}, N={n_memory})")
    digits = []
    for _ in range(n_memory):
        digits.append(code % (m - 1))
        code //= m - 1
    head = code + 1
    labels = [head]
    prev = head
    for digit in reversed(digits):
        s = digit + 1 if digit + 1 < prev else digit + 2
        labels.append(s)
        prev = s
    return HistoryIndex(tuple(labels))


def enumerate_histories(m: int, n_memory: int) -> list[HistoryIndex]:
    """All histories in canonical code order."""
    _validate_mn(m, n_memory)
    size = space_size(m, n_memory)
    if size > MAX_HISTORIES:
        raise ResourceLimitError(
            f"history space of size {size} exceeds the cap {MAX_HISTORIES}"
        )
    return [decode(m, n_memory, code) for code in range(size)]


def shift(h: HistoryIndex, s: int) -> HistoryIndex:
    """New history after a switch to regime s: (s, h0, ..., h_{-N+1})."""
    if s == h.head:
        raise InvalidTransitionError(f"transition into the current state {s}")
    return HistoryIndex((s,) + h.labels[:-1] if h.depth > 0 else (s,))


def _targets(m: int, head: int) -> list[int]:
    return [s for s in range(1, m + 1) if s != head]


@dataclass
class MemoryChain:
    """Dense rate table over the canonical enumeration.

    ``rates[i, j]`` is the rate from the history with code ``i`` into its
    j-th admissible target state (targets sorted ascending, skipping h0).
    ``lambda0`` is max_h Lambda_h, the uniformization constant of the whole
    chain.  ``lambda_heads[s - 1]`` is lambda_s, the largest Lambda_h over
    the histories with head s: head s is factorized at Q_s = q + lambda_s +
    r_s, and ``slack[h]`` = lambda_{h0} - Lambda_h >= 0 is the weight each
    row keeps of itself in the sweeps' coupling.
    """

    m: int
    n_memory: int
    rates: np.ndarray

    histories: list[HistoryIndex] = field(init=False, repr=False)
    codes_after_shift: np.ndarray = field(init=False, repr=False)
    lam_total: np.ndarray = field(init=False, repr=False)
    lambda0: float = field(init=False)
    lambda_heads: tuple[float, ...] = field(init=False)
    slack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _validate_mn(self.m, self.n_memory)
        self.histories = enumerate_histories(self.m, self.n_memory)
        size = len(self.histories)
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (size, self.m - 1):
            raise ValueError(
                f"rate table must have shape ({size}, {self.m - 1}), "
                f"got {self.rates.shape}"
            )
        if not np.all(np.isfinite(self.rates) & (self.rates >= 0.0)):
            raise ValueError("transition rates must be finite and >= 0")
        self.codes_after_shift = np.empty((size, self.m - 1), dtype=np.intp)
        for i, h in enumerate(self.histories):
            for j, s in enumerate(_targets(self.m, h.head)):
                self.codes_after_shift[i, j] = encode(self.m, shift(h, s))
        self.lam_total = self.rates.sum(axis=1) if self.m > 1 else np.zeros(size)
        self.lambda0 = float(self.lam_total.max()) if size else 0.0
        heads = self.heads()
        per_head = np.zeros(self.m)
        np.maximum.at(per_head, heads - 1, self.lam_total)
        self.lambda_heads = tuple(float(lam) for lam in per_head)
        self.slack = per_head[heads - 1] - self.lam_total

    @property
    def size(self) -> int:
        return len(self.histories)

    def heads(self) -> np.ndarray:
        return np.array([h.head for h in self.histories], dtype=np.intp)

    @classmethod
    def from_constant(cls, m, n_memory, rate):
        size = space_size(m, n_memory)
        table = np.full((size, max(m - 1, 0)), float(rate))
        return cls(m, n_memory, table)

    @classmethod
    def from_rules(cls, m, n_memory, default, rules):
        """Materialize the dense table from (s, history-prefix) -> rate rules.

        A rule history shorter than N+1 matches every history extending it;
        the most specific (longest) match wins.  A rule that matches no
        (history, target) pair, one longer than N+1 included, is a ValueError.
        """
        histories = enumerate_histories(m, n_memory)
        table = np.full((len(histories), max(m - 1, 0)), float(default))
        parsed = sorted(((int(r["s"]), tuple(int(v) for v in r["history"]), float(r["rate"]))
                         for r in rules), key=lambda r: len(r[1]))  # longer last
        for s, hist, rate in parsed:
            rows = [i for i, h in enumerate(histories)
                    if h.labels[: len(hist)] == hist and s != h.head]
            if not (rows and 1 <= s <= m):
                raise ValueError(f"the rule for s={s}, history {list(hist)} matches "
                                 f"no (history, target) pair")
            for i in rows:
                table[i, _targets(m, histories[i].head).index(s)] = rate
        return cls(m, n_memory, table)

