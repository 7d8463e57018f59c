"""Chained alternating sign matrices.

A chained ASM is a k-tuple of n x n {-1,0,1} matrices where (1) every row
prefix sum is 0 or 1, (2) the full row-i sum of matrix l-1 plus any
bottom-up partial sum of column i of matrix l is 0 or 1 (matrix 0 is zero
for linear chains, matrix k for circular ones), and (3) the total entry sum
equals the board's maximum rook count.  Chained permutations are exactly
the chained ASMs without -1 entries.

Given the previous matrix's row sum r for a column, condition (2) is
equivalent to: the column's nonzero entries alternate in sign and the
bottommost nonzero is +1 when r = 0 and -1 when r = 1.  The enumerator
leans on that form: it picks whole rows top-down, and a row may not repeat
a column's last nonzero sign, so each column's bottommost sign is known
once its matrix's last row is chosen.

It also spends a deficit budget.  Column i of matrix l has deficit
1 - r - c, where c is its sum and r the previous matrix's row-i sum: by
condition (2) it is 1 exactly when the column's topmost nonzero is -1 or
the column is empty over r = 0, and 0 otherwise, and summed over the
columns it is sum_l (n - s_(l-1) - s_l) for matrix sums s_l, which
condition (3) fixes at nk - 2 max_rooks (0, or 1 when n and k are odd) on a
circular chain and at 0 on a linear one with odd k.

A matrix's search does not extend a prefix of rows whose state (column
signs, deficit left, sum, and on circular k = 1 its row sums) once led to
no completion: on circular k = 1 most prefixes lead nowhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Iterator

from .boards import BoardSpec, _built, _check_board, _check_size, _suffix_bound, max_rooks
from .counting import _closed, _count_walks, _max_reads
from .errors import InputDomainError, UnsupportedDomainError, ValidationError, clip
from .perms import ChainedPermutation, Matrix, _check_matrix_tuple, _previous_matrix
from .placements import _chain, _kept


@dataclass(frozen=True)
class ChainedASM:
    board: BoardSpec
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "matrices",
            _check_matrix_tuple(self.board, self.matrices, {-1, 0, 1}, "chained ASM"),
        )


def chained_asm_problems(a: ChainedASM | ChainedPermutation) -> list[str]:
    """Diagnostics against the three chained-ASM conditions; empty = valid.

    It reads only ``.board`` and ``.matrices``, so it also checks a
    ``ChainedPermutation``: a 0/1 tuple meets the three conditions exactly
    when it is a chained permutation.
    """
    n, k = a.board.n, a.board.k
    problems = []
    for l, mat in enumerate(a.matrices, start=1):
        for i in range(n):
            s = 0
            for j in range(n):
                s += mat[i][j]
                if s not in (0, 1):
                    problems.append(
                        f"condition (1): matrix {l} row {i + 1} has prefix sum {s} at column {j + 1}"
                    )
                    break
    for l in range(1, k + 1):
        prev = _previous_matrix(a.board, a.matrices, l)
        cur = a.matrices[l - 1]
        for i in range(n):
            s = sum(prev[i]) if prev is not None else 0
            for m in range(1, n + 1):
                s += cur[n - m][i]
                if s not in (0, 1):
                    problems.append(
                        f"condition (2): chained sum {s} at column {i + 1} of matrix {l},"
                        f" {m} rows up from the bottom"
                    )
                    break
    total = sum(sum(row) for mat in a.matrices for row in mat)
    want = max_rooks(a.board)
    if total != want:
        problems.append(f"condition (3): total entry sum is {total}, maximum is {want}")
    return problems


def permutation_to_asm(cp: ChainedPermutation) -> ChainedASM:
    """Reinterpret a chained permutation over {-1,0,1}."""
    return ChainedASM(cp.board, cp.matrices)


def asm_to_permutation(a: ChainedASM) -> ChainedPermutation:
    if any(x < 0 for mat in a.matrices for row in mat for x in row):
        raise ValidationError("chained ASM has -1 entries; not a chained permutation")
    return ChainedPermutation(a.board, a.matrices)


_BATCH = 16  # prefixes a state's row stream extends at once
_KEEP = 1 << 15  # completions one chained-ASM search keeps at most


def _recorded(lists: dict, key, build, *args) -> Iterator[tuple]:
    """A reader of a column state's rows from the first one.  ``build(*args)``
    makes them on first use, and every reader of the key shares that one
    stream: a reader that runs ahead of the others builds the next row for
    all of them.  They are kept as the list ``lists[key]`` once they run
    out.  So a search that stops early builds only the rows it reads, and a
    state that comes round again before its rows run out, as each matrix
    starts from one state, builds none of them twice."""
    entry = lists.get(key)
    if entry is None:
        entry = lists[key] = ([], build(*args))  # (the rows so far, what builds the rest)
    elif type(entry) is list:
        return iter(entry)
    return _shared(lists, key, *entry)


def _shared(lists: dict, key, got: list, source: Iterator[tuple]) -> Iterator[tuple]:
    i = 0
    while True:
        if i == len(got):
            option = next(source, None)  # rows are tuples, never None
            if option is None:
                lists[key] = got
                return
            got.append(option)
        yield got[i]
        i += 1


def _entries(was: int, rj: int | None) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """[p]: (p + x, cost, x > 0, x < 0) per entry x that ``_rows`` allows after sum p."""
    step = ([], [])
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):  # x = q - p, in the order -1, 0, 1 for each p
        x, a = q - p, q if rj == -1 else rj  # a: the row sum the column answers to
        if not (x and x == was or rj is not None and (x or was) == (1 if a else -1)):
            step[p].append((q, (x < 0 and not was) + (rj is not None and not (x or was or a)), x > 0, x < 0))
    return tuple(map(tuple, step))


_ENTRIES = {(was, rj): _entries(was, rj) for was in (-1, 0, 1) for rj in (None, -1, 0, 1)}


def _rows(n: int, last_plus: int, last_minus: int, r: int | None, left: int | None,
          free: bool, interned: dict) -> Iterator[tuple]:
    """The rows that a column state allows, in lexicographic order, each as
    (entries, row sum, the state after it, the deficit left after it).

    The state is the columns whose last nonzero so far is +1 and -1, the row
    sums ``r`` a matrix's last row answers to (``None`` above it; with
    ``free``, circular k = 1, the last column's r_j is the row's own sum)
    and the deficit ``left`` (``None``: not budgeted).  Per column, an entry
    x under a last nonzero ``was`` keeps the prefix sum in {0, 1}, does not
    repeat a nonzero ``was`` and, in a last row, ends the column neither on
    +1 over r_j = 1 nor on -1 over r_j = 0: the module docstring's form of
    conditions (1) and (2).  A -1 on an empty column costs 1 of the deficit,
    as does a column that a last row leaves empty over r_j = 0.  Prefixes
    grow a batch at a time, so the first rows come before the later ones.
    """
    cap = n if left is None else left
    pending = [(0, [(0, 0, 0, 0)])]  # (columns done, prefixes (sum, spent, +1 and -1 columns)), next last
    while pending:
        j, batch = pending.pop()
        while batch and j < n and len(batch) <= _BATCH:
            was = (last_plus >> j & 1) - (last_minus >> j & 1)
            rj = None if r is None else -1 if free and j == n - 1 else r >> j & 1  # -1: the row's own sum
            step = _ENTRIES[was, rj]
            batch = [(q, spent + cost, plus | pb << j, minus | mb << j) for p, spent, plus, minus in batch
                     for q, cost, pb, mb in step[p] if spent + cost <= cap]
            j += 1
        if j < n:
            pending += [(j, batch[i : i + _BATCH]) for i in reversed(range(0, len(batch), _BATCH))]
            continue
        for p, spent, plus, minus in batch:
            e = interned.get((plus, minus)) or interned.setdefault(
                (plus, minus), tuple((plus >> c & 1) - (minus >> c & 1) for c in range(n)))
            yield (e, p, (last_plus & ~minus) | plus, (last_minus & ~plus) | minus,
                   None if left is None else left - spent)


def _completions(n: int, rows, r: int | None, left: int | None, top: int, low: list[int],
                 ban: tuple[int, int] = (0, 0)) -> Iterator[tuple]:
    """One matrix's completions in lexicographic order, each as (its row
    tuples, row-sum bits, sum, last +1 and -1 columns, deficit left): a walk
    over an explicit stack of one frame per row, each trying the rows its
    column state allows (``rows``).  The last row answers to the row sums
    ``r`` (``None``: unknown; -1: the matrix's own).  The sum is at most
    ``top`` and, once first rows sum to s, reaches ``low[s]``; row i may not
    sum to x if bit i of ``ban[x]`` is set.

    A frame that pops with no completion since its push is dead, and no
    frame with its key is pushed again: the key is all its rows read, with
    ``r``, ``top``, ``low`` and ``ban`` fixed per call (row index, last +1
    and -1 columns, deficit left, and the sum, or on r = -1 the row-sum
    bits, which give the sum and the last row's r; else they are output only)."""
    chosen = [()] * n
    dead, emitted = set(), 0  # the keys of frames that completed nothing, and the completions so far
    stack = [(rows(0, 0, None if n > 1 else 0 if r == -1 else r, left), 0, 0, None, 0)]
    while stack:
        todo, s, bits, key, seen = stack[-1]
        i = len(stack) - 1
        for row, rsum, plus, minus, after in todo:
            s2 = s + rsum
            if s2 > top or ban[rsum] >> i & 1:
                continue
            chosen[i] = row
            if i < n - 1:
                bits2 = bits | rsum << i
                key2 = i, plus, minus, bits2 if r == -1 else s2, after
                if s2 + min(n - 1 - i, top - s2) < low[s2] or key2 in dead:
                    continue
                stack.append((rows(plus, minus, None if i < n - 2 else bits2 if r == -1 else r, after), s2, bits2, key2, emitted))
                break
            if s2 >= low[s2]:
                emitted += 1
                yield tuple(chosen), bits | rsum << i, s2, plus, minus, after
        else:
            stack.pop()
            if emitted == seen:
                dead.add(key)


def enumerate_chained_asm(board: BoardSpec) -> Iterator[ChainedASM]:
    """All chained ASMs on ``board``, exactly once, in lexicographic order of
    the flattened entry sequence (-1 < 0 < 1).

    They are the product of the k matrices' completions (``_completions``),
    each list in lexicographic order (``placements._chain``); explicit
    stacks bound neither n nor k by Python's recursion limit.  A state's
    rows stream on first use, shared by every reader (``_recorded``).
    Matrix 1's completions stream; a later matrix's are kept
    (``placements._kept``) by all its search reads: its place, the row sums
    and deficit left before it, the sum before it, on a circular chain
    matrix 1's sum and, closing it, matrix 1's bans.  A search keeps
    ``_KEEP`` completions at most, so past that keys stream.

    Each completion's row tuple is built once and held by every chain that
    uses it, so consecutive objects share the matrices they agree on;
    ``serialization.serialize_stream`` reuses their text.
    """
    _check_size(board)
    n, k = board.n, board.k
    circ = board.circular
    target = max_rooks(board)
    # the deficit every chain spends in full (module docstring); a linear
    # chain with even k spends its last matrix's sum, so it is not budgeted
    budget = n * k - 2 * target if circ else None if k % 2 == 0 else 0
    lists, interned = {}, {}  # each state's row stream, and one tuple per row's entries
    kept, room = {}, [_KEEP]  # later matrices' completions, and how many more may be kept
    done = [0] * k  # done[b]: the sum of matrices 1..b
    a1, ban = 0, (0, 0)

    def rows(*state) -> Iterator:  # (last_plus, last_minus, r, left)
        return _recorded(lists, state, _rows, n, *state, circ and k == 1, interned)

    def completions(b: int, bits: int, left: int | None, total: int, a1: int, bans: tuple[int, int]) -> Iterator:
        # matrix b's, after row sums bits (matrix b - 1's sum is their count); matrix k closes a circular chain
        top = min(n - bits.bit_count(), target - total, n - a1 if circ and b == k else n)
        low = [target - total - _suffix_bound(n, k, circ, b + 1, x, a1) for x in range(n + 1)]
        return _completions(n, rows, bits, left, top, low, bans)

    def after(b: int, option: tuple) -> Iterator:
        nonlocal a1, ban
        _, bits, s, plus, minus, left = option
        if b == 1 and circ:
            # row i of matrix k sums to 0 over a bottommost +1 in column i of matrix 1,
            # to 1 over a bottommost -1 or, with no deficit left, an empty column
            a1, ban = s, (minus | (0 if left else (1 << n) - 1 & ~(plus | minus)), plus)
        done[b] = done[b - 1] + s
        key = b + 1, bits, left, done[b], a1, ban if circ and b == k - 1 else (0, 0)
        return _kept(kept, key, room, completions, *key)

    # matrix 1's last row answers to zero row sums (linear), its own (circular k = 1) or
    # unknown ones (circular); on a circular chain its sum is a1, and the bound falls in both
    low = [target - _suffix_bound(n, k, circ, 2, s, s) for s in range(n + 1)]
    first = _completions(n, rows, None if circ and k > 1 else -1 if circ else 0, budget, min(n, target), low)
    for mats in _chain(k, first, after):
        yield _built(ChainedASM, board=board, matrices=tuple(mats))


# --- counting by transfer matrix ------------------------------------------
#
# An independent method: it shares no search helper with the enumerator
# above.  Index bit i of a "row-sum vector" r is the 0/1 sum of row i.

# the largest n whose steps count_chained_asm_tm builds: the n = 10 build
# took 3-5 s and 89 MB max RSS in a cold process on a shared 2-vCPU machine
# (Python 3.11), and each n costs about 6 times the last
_MAX_TRANSFER_N = 10


@functools.cache
def _transfer_steps(n: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """The walk steps ``(s, T[r][s], D)`` with ``T[r][s] > 0`` out of each
    row-sum vector r, sorted by the deficit D = n - |r| - |s|, and the last
    steps of a linear walk, which closes from s at deficit n - |s|
    (``counting._closed``); built once per n, the only form of T kept.

    ``T[r][s]`` counts the n x n matrices that meet condition (1), have
    row-sum vector s and may follow one with row-sum vector r under
    condition (2).  They are built column by column from the rows' prefix
    sums p: column j's nonzeros sit on a set S of rows, signed +1 where p's
    bit is 0 and -1 where it is 1 (condition (1)), whose p-bits read
    bottom-up alternate starting with r's bit j (condition (2)); then p
    becomes p ^ S, and s is the last p.  So T[r] = e_0 C_(r_0) ... C_(r_(n-1))
    for two step tables, and a depth-first walk over r's bits shares prefixes.

    D is the module docstring's deficit summed over the columns, and never
    negative: condition (2) caps column j's sum at 1 - r_j, so |s| <= n - |r|.
    """
    size = 1 << n
    # column[b][p]: the states p ^ S for every S allowed over r's bit b
    column = []
    for b in (0, 1):
        table = []
        for p in range(size):
            ends = [(p, b)]  # (p ^ S so far, the p-bit the next row of S up needs)
            for i in reversed(range(n)):
                ends += [(q ^ 1 << i, want ^ 1) for q, want in ends if p >> i & 1 == want]
            table.append([q for q, _ in ends])
        column.append(table)
    states = list(range(size))  # one int per state, shared by every step into it
    steps = [()] * size

    def walk(j: int, r: int, weights: list[int]) -> None:
        if j == n:
            d = n - r.bit_count()
            steps[r] = tuple(sorted(((s, w, d - s.bit_count()) for s, w in zip(states, weights) if w), key=itemgetter(2)))
            return
        for b in (0, 1):
            after = [0] * size
            for p, w in enumerate(weights):
                if w:
                    for q in column[b][p]:
                        after[q] += w
            walk(j + 1, r | b << j, after)

    walk(0, 0, [1] + [0] * (size - 1))
    del walk  # it refers to itself; without that cycle its rows are freed with the caller's, not at a collection
    return tuple(steps), tuple(_closed(steps, [n - s.bit_count() for s in states]))


def _count_tm_max(boards: list[BoardSpec]) -> list[int]:
    """The chained ASMs of boards of one shape and one n, all read off one
    walk over the transfer steps that can still reach ``max_rooks``."""
    steps, ends = _transfer_steps(boards[0].n)
    return _count_walks(steps, _max_reads(boards), boards[0].circular, ends)


def count_chained_asm_tm(board: BoardSpec) -> int:
    """The number of chained ASMs on ``board``, by a walk over row-sum vectors.

    A linear chain starts from the zero vector; a circular chain must end
    where it started (the trace, so circular k = 1 is ``T[r][r]``).  Both
    keep only the walks whose total row-sum weight is ``max_rooks(board)``,
    condition (3), counted by deficit n - |r| - |s| per step (the module
    docstring's): a circular chain's deficits sum to nk - 2 max_rooks, 0 or
    1, so its walk keeps only the steps of deficit at most 1; a linear chain
    keeps those of deficit 0 with odd k, and all with even k
    (``_count_tm_max``).  A board with n past ``_MAX_TRANSFER_N`` is refused
    with ``UnsupportedDomainError`` before any step is built.
    """
    _check_board(board)
    if board.n > _MAX_TRANSFER_N:
        raise UnsupportedDomainError(f"the transfer count builds steps for n <= {_MAX_TRANSFER_N}, not n = {clip(board.n)}")
    (count,) = _count_tm_max([board])
    return count


# --- plain ASMs and the quarter-turn gluing -------------------------------
#
# ``to_plain_asm`` stacks two gluings; ``triangles.to_monotone_triangles``
# reads a monotone triangle off each gluing of matrices 2l-1 and 2l.


@dataclass(frozen=True)
class PlainASM:
    size: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.size) is not int or self.size < 1:  # exact ints, as in BoardSpec
            raise InputDomainError(f"plain ASM size must be an int >= 1, got {clip(self.size)}")
        try:
            if len(self.rows) != self.size or any(len(r) != self.size for r in self.rows):
                raise InputDomainError(f"matrix must be {clip(self.size)}x{clip(self.size)}")
            if any(type(x) is not int or x not in (-1, 0, 1) for r in self.rows for x in r):
                raise InputDomainError("entries must be in {-1, 0, 1}")
        except TypeError:  # rows, or a row, that is not a sequence
            raise InputDomainError(f"matrix must be {clip(self.size)}x{clip(self.size)}, got {clip(self.rows)}") from None
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))


def plain_asm_problems(p: PlainASM) -> list[str]:
    """Rows and columns sum to 1 with partial sums in {0,1} from either end."""
    problems = []
    for what, lines in (("row", p.rows), ("column", zip(*p.rows))):
        for i, line in enumerate(lines, start=1):
            s = 0
            for x in line:
                s += x
                if s not in (0, 1):
                    problems.append(f"{what} {i} has partial sum {s}")
                    break
            if s != 1:
                problems.append(f"{what} {i} sums to {s}, not 1")
    return problems


def rotate_cw(rows: Matrix) -> Matrix:
    """Quarter turn clockwise: entry (i, j) moves to (j, n+1-i)."""
    n = len(rows)
    return tuple(tuple(rows[n - 1 - q][p] for q in range(n)) for p in range(n))


def rotate_ccw(rows: Matrix) -> Matrix:
    n = len(rows)
    return tuple(tuple(rows[q][n - 1 - p] for q in range(n)) for p in range(n))


def rotate_half(rows: Matrix) -> Matrix:
    """Half turn of any rectangle: entry (i, j) moves to (h+1-i, w+1-j)."""
    return tuple(tuple(row[::-1]) for row in rows[::-1])


def _glue(left: Matrix, right: Matrix) -> Matrix:
    """The n x 2n matrix of ``left`` beside ``right`` turned a quarter clockwise."""
    return tuple(map(add, left, rotate_cw(right)))


def to_plain_asm(a: ChainedASM) -> PlainASM:
    """The 2n x 2n ASM of a circular chain with k = 4, or with k = 1 and even n:
    matrices 1 and 2 glued over the half turn of matrices 3 and 4 glued, where
    on k = 1 all four are the one matrix and the ASM is quarter-turn symmetric."""
    board = a.board
    if not (board.circular and (board.k == 4 or board.k == 1 and board.n % 2 == 0)):
        raise UnsupportedDomainError(
            "a plain ASM comes from a circular chain with k = 4, or with k = 1 and even n;"
            f" not from {board.shape.value}({board.n},{board.k})"
        )
    m1, m2, m3, m4 = (a.matrices[i % board.k] for i in range(4))
    rows = (*_glue(m1, m2), *rotate_half(_glue(m3, m4)))
    out = PlainASM(len(rows), rows)
    problems = plain_asm_problems(out)
    if problems:
        raise ValidationError("assembled matrix is not an ASM", problems)
    return out


__all__ = [
    "ChainedASM",
    "PlainASM",
    "chained_asm_problems",
    "permutation_to_asm",
    "asm_to_permutation",
    "enumerate_chained_asm",
    "count_chained_asm_tm",
    "plain_asm_problems",
    "rotate_cw",
    "rotate_ccw",
    "rotate_half",
    "to_plain_asm",
]
