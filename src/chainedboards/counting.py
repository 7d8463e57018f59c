"""Exact counts of non-attacking rook placements on chained boards.

Everything here is integer arithmetic on Python ints (arbitrary precision);
no floating point.  The quarter-turn product is accumulated as an exact
rational and asserted integral.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .boards import BoardSpec, _check_size, max_rooks
from .errors import InputDomainError, clip


def falling_factorial(n: int, m: int) -> int:
    """(n)_m = n (n-1) ... (n-m+1); 1 when m = 0, 0 when m > n."""
    if type(n) is not int or type(m) is not int or n < 0 or m < 0:
        raise InputDomainError("falling_factorial needs nonnegative int arguments")
    return math.perm(n, m)


def _count_walks(steps: Sequence[Sequence[tuple]], reads: Sequence[tuple], circular: bool,
                 ends: Sequence[Sequence[tuple[int, int]]] | None = None) -> list[int]:
    """For each read ``(k, target)``, the weighted k-step walks whose digits
    sum to ``target``, all read off one walk of the longest k.

    ``steps[r]`` lists the steps ``(s, weight, digit)`` out of state r,
    sorted by digit: a cost, or a deficit n - level(r) - level(s), where a
    state's level is the cost of any step into it (``_composition_deficits``,
    ``asm._transfer_steps``).  A linear walk starts from state 0 and may end
    anywhere; given ``ends``, its last step out of a state r is one of
    ``ends[r]``, pairs ``(digit, weight)`` sorted by digit (``_closed``).  A
    circular one ends where it started, summed over every start (a trace),
    and closes its circle from each start at every k read, at no other.

    Each state holds one packed integer whose digit d, ``width`` bits wide,
    counts the weighted walks reaching it at digit sum d; a step adds ``poly
    * weight << width * digit``, and steps and digits above the largest
    target are dropped.  A last step of ``ends`` is one product per state,
    with its pairs packed alike.  No digit carries: after j steps from one
    start all digits of all states sum to at most ``heaviest ** j`` (a step
    multiplies that sum by at most a row sum of the weights kept), so a
    digit, even of a sum over end states, is at most ``max(1, heaviest **
    longest) < 2 ** width`` for every j up to the longest k.  Each start is
    read on its own.
    """
    last_apart = circular or ends is not None  # the walk stops a step short of each read
    at: dict[int, list[tuple[int, int]]] = {}  # steps walked -> the (read, target) taken after them
    top = 0
    for i, (k, target) in enumerate(reads):
        at.setdefault(k - 1 if last_apart else k, []).append((i, target))
        top = max(top, target)
    steps = [row[: bisect_right(row, top, key=itemgetter(2))] for row in steps]  # the steps of digit <= top
    ends = [row[: bisect_right(row, top, key=itemgetter(0))] for row in ends or ()]
    lengths = sorted(at)
    longest = max(reads)[0]  # reads compare by k first
    heaviest = max([sum(w for _, w, _ in row) for row in steps] + [sum(w for _, w in row) for row in ends])
    width = (heaviest**longest).bit_length() + 1
    mask = (1 << width * (top + 1)) - 1
    last = [sum(weight << width * digit for digit, weight in row) for row in ends]
    back = [[] for _ in steps] if circular else []  # back[s]: the steps (r, weight, digit) into s, to close a circle
    for r, row in enumerate(steps if circular else ()):
        for s, weight, digit in row:
            back[s].append((r, weight, digit))
    counts = [0] * len(reads)
    for start in range(len(steps)) if circular else (0,):
        if circular and not back[start]:  # no walk returns to it
            continue
        walk = [0] * len(steps)  # state -> packed weighted walks by digit sum so far
        walk[start] = 1
        walked = 0
        for j in lengths:
            for _ in range(j - walked):
                nxt = [0] * len(steps)
                for poly, row in zip(walk, steps):
                    if poly:
                        for s, weight, digit in row:
                            nxt[s] += poly * weight << width * digit
                walk = [poly & mask for poly in nxt]
            walked = j
            if circular:  # the last step returns to the start
                total = sum(walk[r] * weight << width * digit for r, weight, digit in back[start])
            elif last_apart:  # one product per state with its last steps
                total = sum(poly * end for poly, end in zip(walk, last) if poly)
            else:
                total = sum(walk)
            for i, target in at[j]:
                counts[i] += total >> width * target & (1 << width) - 1
    return counts


def _composition_steps(n: int) -> list[list[tuple[int, int, int]]]:
    """The composition walk's steps on n x n boards: p -> a, for a board of
    a rooks after one of p, has weight C(n - p, a) * (n)_a and costs a."""
    return [[(a, math.comb(n - p, a) * falling_factorial(n, a), a) for a in range(n - p + 1)]
            for p in range(n + 1)]


def _composition_deficits(n: int, top: int) -> list[list[tuple[int, int, int]]]:
    """The composition steps of deficit at most ``top``, as (a, weight,
    deficit) sorted by deficit: step p -> a has deficit n - p - a, never
    negative since a board after one of p rooks holds at most n - p, and
    only a >= n - p - top are built."""
    return [[(a, math.comb(n - p, a) * falling_factorial(n, a), n - p - a) for a in range(n - p, max(n - p - top, 0) - 1, -1)]
            for p in range(n + 1)]


def _closed(steps: Sequence[Sequence[tuple]], close: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
    """The last steps of a linear walk by deficit (``_count_walks``'s
    ``ends``): each step's deficit plus ``close[s]``, that of a closing step
    out of the state s it reaches, with the weights of one digit summed."""
    ends = []
    for row in steps:
        merged = {}
        for s, weight, digit in row:
            merged[digit + close[s]] = merged.get(digit + close[s], 0) + weight
        ends.append(tuple(sorted(merged.items())))
    return ends


def _max_reads(boards: Sequence[BoardSpec]) -> list[tuple[int, int]]:
    """The read ``(k, deficit)`` at which each board's walks reach
    ``max_rooks``, for boards of one shape and one n.  A circular walk's
    deficits sum to nk - 2 max_rooks, which is 0 or 1.  A linear one starts
    from state 0, of level 0, and ends by a closing step of deficit
    n - level(s) into a sink of level 0, so its deficits sum to
    nk - 2 max_rooks + n: 0 with odd k, and n with even k."""
    return [(b.k, b.n * b.k - 2 * max_rooks(b) + (0 if b.circular else b.n)) for b in boards]


def _count_formula_max(boards: Sequence[BoardSpec]) -> list[int]:
    """The maximum placements of boards of one shape and one n, all read off
    one composition walk.

    A circular chain, or a linear one with only odd k, walks by deficit over
    the steps of deficit 0 or 1 (``_max_reads``), O(n) of them.  A linear
    chain with an even k can reach its maximum through every step, so a
    deficit walk drops none of them and only adds the closing steps it
    builds per call: it walks by cost, as for any other m.
    """
    n, circ = boards[0].n, boards[0].circular
    if not circ and any(b.k % 2 == 0 for b in boards):
        return _count_walks(_composition_steps(n), [(b.k, max_rooks(b)) for b in boards], False)
    reads = _max_reads(boards)
    steps = _composition_deficits(n, max(t for _, t in reads))
    return _count_walks(steps, reads, circ, None if circ else _closed(steps, range(n, -1, -1)))  # closing from a: n - a


def count_placements_formula(board: BoardSpec, m: int) -> int:
    """Number of ways to place m non-attacking rooks on ``board``.

    The paper's sum, over the admissible compositions (a_1,...,a_k) of m, of
    the product of C(n - a_{i-1}, a_i) * (n)_{a_i}, with a_0 = 0 (linear) or
    a_k (circular), evaluated as a walk over parts: step p -> a has that
    weight and costs a rooks.  That is O(k * n^2) steps on integers of
    O(m * k * log n!) bits per walk (see ``_count_walks``), with one walk per
    circular start a_k, instead of one term per composition.  At m =
    ``max_rooks(board)`` on a circular chain, or a linear one with odd k,
    the walk counts deficits n - p - a instead of costs and keeps only the
    steps that can still reach m, those of deficit 0 or 1: O(n) steps, and
    one packed digit or two (``_count_formula_max``).
    """
    _check_size(board)
    n = board.n
    if type(m) is not int or not 0 <= m <= n * board.k:
        raise InputDomainError(f"m must be in 0..n*k, got {clip(m)}")
    if m == max_rooks(board):
        (count,) = _count_formula_max([board])
        return count
    (count,) = _count_walks(_composition_steps(n), [(board.k, m)], board.circular)
    return count


def count_max_linear(n: int, k: int) -> int:
    """Number of maximum rook placements on the linear board.

    k odd: (n!)^((k+1)/2).  k even: (n!)^(k/2) times the sum over weakly
    increasing chains 0 <= j_1 <= ... <= j_{k/2} <= n of the product of
    C(n - j_{l-1}, n - j_l) * C(n, j_l), with j_0 = 0.  That sum is
    e_0 M^(k/2) 1 with M[j'][j] = C(n - j', n - j) * C(n, j) for j >= j', so
    it takes k/2 vector-matrix steps over j, not one term per chain.
    """
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise InputDomainError("n and k must be ints >= 1")
    if k % 2 == 1:
        return math.factorial(n) ** ((k + 1) // 2)
    ends = [math.comb(n, j) ** 2 for j in range(n + 1)]  # one step from j_0 = 0, by where it ends
    for _ in range(k // 2 - 1):
        ends = [sum(ends[p] * math.comb(n - p, n - j) for p in range(j + 1)) * math.comb(n, j)
                for j in range(n + 1)]
    return math.factorial(n) ** (k // 2) * sum(ends)


def count_max_circular(n: int, k: int) -> int:
    """Number of maximum rook placements on the circular board.

    k even: (n!)^(k/2) * sum_j C(n,j)^(k/2).  k odd, n even: ((n)_{n/2})^k.
    k odd, n odd: k * ceil(n/2) * ((n)_{ceil(n/2)})^floor(k/2)
    * ((n)_{floor(n/2)})^ceil(k/2).
    """
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise InputDomainError("n and k must be ints >= 1")
    if k % 2 == 0:
        s = sum(math.comb(n, j) ** (k // 2) for j in range(n + 1))
        return math.factorial(n) ** (k // 2) * s
    if n % 2 == 0:
        return falling_factorial(n, n // 2) ** k
    hi = (n + 1) // 2
    lo = n // 2
    return (
        k
        * hi
        * falling_factorial(n, hi) ** (k // 2)
        * falling_factorial(n, lo) ** ((k + 1) // 2)
    )


def count_max(board: BoardSpec) -> int:
    """Closed-form count of maximum placements for either shape."""
    _check_size(board)
    if board.circular:
        return count_max_circular(board.n, board.k)
    return count_max_linear(board.n, board.k)


def classical_asm_count(n: int) -> int:
    """Number of n x n alternating sign matrices: prod (3k+1)!/(n+k)!."""
    if type(n) is not int or n < 0:
        raise InputDomainError("n must be an int >= 0")
    num = 1
    den = 1
    for k in range(n):
        num *= math.factorial(3 * k + 1)
        den *= math.factorial(n + k)
    q, r = divmod(num, den)
    assert r == 0, "ASM product formula must divide exactly"
    return q


def qtasm_count(m: int) -> int:
    """Number of quarter-turn symmetric ASMs of size 4m (= |chained circular
    ASMs on a 2m board with k = 1|)."""
    if type(m) is not int or m < 1:
        raise InputDomainError("m must be an int >= 1")
    total = Fraction(classical_asm_count(m) ** 3)
    for i in range(1, m + 1):
        factor = Fraction(3 * i - 1, 3 * i - 2)
        for j in range(i, m + 1):
            factor *= Fraction(m + i + j - 1, 2 * i + j - 1)
        total *= factor
    if total.denominator != 1:
        raise AssertionError(f"quarter-turn product did not cancel: {total}")
    return total.numerator


__all__ = [
    "falling_factorial",
    "count_placements_formula",
    "count_max_linear",
    "count_max_circular",
    "count_max",
    "classical_asm_count",
    "qtasm_count",
]
