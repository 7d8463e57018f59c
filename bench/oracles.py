"""Independent oracles for the benchmark's output checks.

Nothing here imports from ``src/``: the table is copied from the paper, the
counts come from a transfer DP over per-board rook counts and from the
paper's closed forms, and the object checkers test the definitions
directly.  The DP is confirmed against a brute force over rook placements
on small boards before any run trusts it (see :func:`self_test`).
"""

from __future__ import annotations

import itertools
import math

# The paper's table of chained-ASM counts: shape -> k -> counts for n = 1, 2, ...
PAPER_TABLE_ROWS = {
    "linear": {
        1: (1, 2, 7, 42, 429, 7436),
        2: (2, 17, 504, 53932),
        3: (1, 4, 49),
        4: (3, 159, 98028),
        5: (1, 8),
        6: (4, 1129),
        7: (1, 16),
        8: (5, 7151),
    },
    "circular": {
        1: (1, 2, 20, 40, 3430, 6860),
        2: (2, 10, 140, 5544),
        3: (3, 14, 3861),
        4: (2, 42, 7436),
        5: (5, 82),
        6: (2, 214),
        7: (7, 478),
        8: (2, 1186),
        9: (9, 2786),
    },
}

PAPER_TABLE = {
    (shape, n, k): count
    for shape, rows in PAPER_TABLE_ROWS.items()
    for k, counts in rows.items()
    for n, count in enumerate(counts, start=1)
}


class OracleError(Exception):
    """An oracle disagrees with itself; no benchmark figure can be trusted."""


def max_rooks(shape: str, n: int, k: int) -> int:
    """Linear chains fill every odd board; circular ones half of all rows."""
    return n * k // 2 if shape == "circular" else n * ((k + 1) // 2)


def _successor(shape: str, k: int, b: int) -> int | None:
    """The board whose columns the rows of board ``b`` attack (1-based)."""
    if shape == "circular":
        return b % k + 1
    return b + 1 if b < k else None


# --- placement counts ------------------------------------------------------


def placement_polynomial(shape: str, n: int, k: int) -> list[int]:
    """Coefficients r_0..r_{nk} of the rook polynomial, by a DP over the
    per-board rook counts.

    Given a_prev rooks on the previous board (whose rows block as many
    columns here), a rooks fit in C(n - a_prev, a) column sets, C(n, a) row
    sets and a! pairings.  Circular chains fix a_0 = a_k and sum over it.
    """

    def weight(prev: int, a: int) -> int:
        return math.comb(n - prev, a) * math.comb(n, a) * math.factorial(a)

    def run(first_prev: int, last_fixed: int | None) -> list[int]:
        states = {first_prev: [1]}  # previous board's count -> polynomial
        for board in range(1, k + 1):
            nxt: dict[int, list[int]] = {}
            choices = range(n + 1) if (board < k or last_fixed is None) else (last_fixed,)
            for prev, poly in states.items():
                for a in choices:
                    w = weight(prev, a)
                    if w == 0:
                        continue
                    acc = nxt.setdefault(a, [])
                    need = len(poly) + a
                    acc.extend([0] * (need - len(acc)))
                    for m, c in enumerate(poly):
                        acc[m + a] += c * w
            states = nxt
        out = [0] * (n * k + 1)
        for poly in states.values():
            for m, c in enumerate(poly):
                out[m] += c
        return out

    if shape == "linear":
        return run(0, None)
    total = [0] * (n * k + 1)
    for a0 in range(n + 1):
        for m, c in enumerate(run(a0, a0)):
            total[m] += c
    return total


def brute_polynomial(shape: str, n: int, k: int) -> list[int]:
    """The rook polynomial by backtracking over every square (small boards)."""
    squares = [(b, r, c) for b in range(1, k + 1) for r in range(1, n + 1) for c in range(1, n + 1)]
    out = [0] * (n * k + 1)
    chosen: list[tuple[int, int, int]] = []

    def walk(start: int) -> None:
        out[len(chosen)] += 1
        for idx in range(start, len(squares)):
            s = squares[idx]
            if rook_attacks(shape, k, s, s):
                continue
            if any(rook_attacks(shape, k, s, t) for t in chosen):
                continue
            chosen.append(s)
            walk(idx + 1)
            chosen.pop()

    walk(0)
    return out


def rook_attacks(shape: str, k: int, s, t) -> bool:
    """Whether rooks on squares s and t attack; s == t tests self-attack.

    Rooks attack along a shared row or column of one board, and a rook in
    row j of board i attacks column j of the board after i.
    """
    if s != t and s[0] == t[0] and (s[1] == t[1] or s[2] == t[2]):
        return True
    return (_successor(shape, k, s[0]) == t[0] and s[1] == t[2]) or (
        _successor(shape, k, t[0]) == s[0] and t[1] == s[2]
    )


def closed_form_max(shape: str, n: int, k: int) -> int:
    """The paper's closed forms for the number of maximum placements."""
    fact = math.factorial(n)
    if shape == "linear":
        if k % 2 == 1:
            return fact ** ((k + 1) // 2)
        # sum over 0 <= j_1 <= ... <= j_{k/2} <= n of
        # prod C(n - j_{l-1}, n - j_l) * C(n, j_l), with j_0 = 0
        ways = {0: 1}
        for _ in range(k // 2):
            ways = {
                j: sum(w * math.comb(n - p, n - j) for p, w in ways.items() if p <= j)
                * math.comb(n, j)
                for j in range(n + 1)
            }
        return fact ** (k // 2) * sum(ways.values())
    if k % 2 == 0:
        return fact ** (k // 2) * sum(math.comb(n, j) ** (k // 2) for j in range(n + 1))
    if n % 2 == 0:
        return math.perm(n, n // 2) ** k
    hi, lo = (n + 1) // 2, n // 2
    return k * hi * math.perm(n, hi) ** (k // 2) * math.perm(n, lo) ** ((k + 1) // 2)


def self_test() -> None:
    """Confirm the DP by brute force, and the closed forms by the DP."""
    for shape in ("linear", "circular"):
        for n, k in ((1, 1), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1)):
            dp, brute = placement_polynomial(shape, n, k), brute_polynomial(shape, n, k)
            if dp != brute:
                raise OracleError(f"DP {dp} != brute force {brute} on {shape}({n},{k})")
        for n in range(1, 6):
            for k in range(1, 7):
                top = max_rooks(shape, n, k)
                poly = placement_polynomial(shape, n, k)
                if poly[top] != closed_form_max(shape, n, k) or any(poly[top + 1 :]):
                    raise OracleError(f"closed form disagrees with the DP on {shape}({n},{k})")


# --- object checkers -------------------------------------------------------


def _rows(n: int, k: int, matrices) -> list[list] | None:
    """The rows of k n x n matrices of ints (not bools), or None."""
    if type(matrices) is not list or len(matrices) != k:
        return None
    if any(type(mat) is not list or len(mat) != n for mat in matrices):
        return None
    rows = [row for mat in matrices for row in mat]
    if any(type(row) is not list or len(row) != n for row in rows):
        return None
    if set(map(type, itertools.chain.from_iterable(rows))) != {int}:
        return None
    return rows


def chained_asm_problem(shape: str, n: int, k: int, matrices) -> str | None:
    """The first violated chained-ASM condition, or None.

    (1) every row prefix sum is 0 or 1; (2) the row-i sum of the previous
    matrix plus any bottom-up partial sum of column i is 0 or 1, where the
    previous matrix of the first is zero (linear) or the last (circular);
    (3) the entries sum to the maximum rook count.
    """
    rows = _rows(n, k, matrices)
    if rows is None or any(row.count(0) + row.count(1) + row.count(-1) != n for row in rows):
        return "not k n x n matrices over {-1, 0, 1}"
    for mat in matrices:
        for row in mat:
            s = 0
            for x in row:
                s += x
                if s not in (0, 1):
                    return "condition (1)"
    for l in range(k):
        if l == 0 and shape == "linear":
            carried = [0] * n
        else:
            carried = [sum(row) for row in matrices[l - 1]]
        mat = matrices[l]
        for i in range(n):
            s = carried[i]
            for r in range(n - 1, -1, -1):
                s += mat[r][i]
                if s not in (0, 1):
                    return "condition (2)"
    if sum(x for mat in matrices for row in mat for x in row) != max_rooks(shape, n, k):
        return "condition (3)"
    return None


def placement_problem(shape: str, n: int, k: int, squares, m: int) -> str | None:
    """Why ``squares`` is not a set of m non-attacking rooks, or None."""
    if type(squares) is not list or any(type(sq) is not list or len(sq) != 3 for sq in squares):
        return "squares are not [board, row, col] triples"
    if set(map(type, itertools.chain.from_iterable(squares))) - {int}:
        return "squares hold non-integers"
    return rooks_problem(shape, n, k, [tuple(sq) for sq in squares], m)


def rooks_problem(shape: str, n: int, k: int, squares: list[tuple[int, int, int]], m: int) -> str | None:
    """Why integer (board, row, col) triples are not m non-attacking rooks."""
    if len(squares) != m or len(set(squares)) != m:
        return f"expected {m} distinct squares"
    rows: dict[int, set] = {b: set() for b in range(1, k + 1)}
    cols: dict[int, set] = {b: set() for b in range(1, k + 1)}
    for b, r, c in squares:
        if not (1 <= b <= k and 1 <= r <= n and 1 <= c <= n):
            return f"square {(b, r, c)} out of range"
        if r in rows[b] or c in cols[b]:
            return f"rooks share a row or column on board {b}"
        rows[b].add(r)
        cols[b].add(c)
    for b in range(1, k + 1):
        nxt = _successor(shape, k, b)
        if nxt is not None and rows[b] & cols[nxt]:
            return f"a row of board {b} attacks a column of board {nxt}"
    return None


def permutation_squares(n: int, k: int, matrices) -> list[tuple[int, int, int]] | None:
    """The 1-entries of k n x n 0/1 matrices with at most one 1 per row, as
    (board, row, col) in row-major order; None for anything else."""
    rows = _rows(n, k, matrices)
    if rows is None:
        return None
    squares = []
    for idx, row in enumerate(rows):
        zeros = row.count(0)
        if zeros == n:
            continue
        if zeros != n - 1 or row.count(1) != 1:
            return None
        squares.append((idx // n + 1, idx % n + 1, row.index(1) + 1))
    return squares
