"""Reference implementations that only the tests use.

``admissible_compositions`` walks every admissible composition of ``m``
explicitly, so the transfer DP in ``count_placements_formula`` can be checked
against it term by term.
"""

from __future__ import annotations

from typing import Iterator

from chainedboards.boards import BoardSpec, Composition
from chainedboards.errors import InputDomainError


def admissible_compositions(board: BoardSpec, m: int) -> Iterator[Composition]:
    """All compositions of ``m`` admissible on ``board``, in lexicographic order."""
    if not (0 <= m <= board.n * board.k):
        raise InputDomainError(f"m must be in 0..n*k, got {m}")
    n, k = board.n, board.k
    parts: list[int] = []

    def extend(i: int, prev: int, remaining: int) -> Iterator[Composition]:
        if i == k:
            if remaining == 0:
                yield tuple(parts)
            return
        hi = min(n - prev, remaining)
        if board.circular and i == k - 1 and parts:
            hi = min(hi, n - parts[0])
        # the unplaced boards can hold at most n each
        if remaining > hi + (k - i - 1) * n:
            return
        for a in range(0, hi + 1):
            parts.append(a)
            yield from extend(i + 1, a, remaining - a)
            parts.pop()

    if board.circular and k == 1:
        # a_0 = a_1, so the single part must satisfy 2*a_1 <= n
        if m <= n // 2:
            yield (m,)
        return
    if board.circular:
        # the first part has no left bound yet; a_0 = a_k is enforced at i = k-1
        for a1 in range(0, min(n, m) + 1):
            parts.append(a1)
            yield from extend(1, a1, m - a1)
            parts.pop()
    else:
        yield from extend(0, 0, m)
