"""Reference implementations that only the tests use, one oracle per line:

- ``admissible_compositions``: every admissible composition, for ``count_placements_formula``;
- ``maximum_compositions``: the paper's closed characterization of the maximum compositions;
- ``count_max_linear_multinomial``: the paper's multinomial form of ``count_max_linear``;
- ``count_max_linear_chains``: the paper's sum over chains, one term each, for ``count_max_linear``;
- ``count_chained_asm``: enumeration, for the paper's table and ``count_chained_asm_tm``;
- ``transfer_matrix``: a DP over rows, for the column-built steps of ``count_chained_asm_tm``;
- ``enumerate_matchings``: a chain-graph search, for the chained-permutation counts;
- ``enumerate_mt_chains``: Gelfand-Tsetlin pattern chains, for ``to_monotone_triangles``;
- ``grid_interior``, ``grid_incident``, ``grid_endpoints``, ``dwbc_head``, ``fpl_holds``:
  the chained grid graph and its boundary rules as the paper draws them, for ``ice._grid``;
- ``enumerate_ice``: a grid-graph orientation search, for ``to_ice``;
- ``enumerate_fpl``: a grid-graph subgraph search, for ``to_fpl``;
- ``ice_problems``, ``fpl_problems``: the ice and FPL checks edge by edge;
- ``row_search``: the placement search row by row across the whole chain, for
  the order of the board-by-board search in ``enumerate_placements``;
- ``suffix_bound_by_max``: the suffix bound as a max over each board's count,
  for the closed step of ``suffix_bound_table``;
- ``reference_document``: each object's document as one ``json.dumps`` of a
  dict read off its public fields, for ``serialize_stream``.

Library functions that only the tests call, moved here by the caller rule:

- ``is_admissible_composition``: whether a composition arises from some placement;
- ``canonical_placement``: a placement witnessing an admissible composition;
- ``composition``: a placement's rooks per board, the paper's composition of it;
- ``board_squares``: every square of a board, in (board, row, col) order;
- ``matching_kind``: the kind of chain-graph matching a board's permutations are;
- ``asm_sum_composition``: a chained ASM's per-matrix sums;
- ``split_linear_odd``, ``join_linear_odd``: a linear odd-k chained ASM as (k+1)/2 plain ASMs;
- ``split_circular_k4``: the inverse of ``to_plain_asm`` on circular k = 4;
- ``unfold_qt``: its inverse on circular k = 1 with even n.

The grid-graph oracles use no geometry of ``chainedboards.ice``: only the
edge order of ``GridGraph.edges()``, in which configurations store their edges.
"""

from __future__ import annotations

import itertools
import json
import math
from operator import add
from typing import Callable, Iterator

from chainedboards.asm import (
    ChainedASM,
    PlainASM,
    chained_asm_problems,
    enumerate_chained_asm,
    plain_asm_problems,
    rotate_ccw,
    rotate_cw,
    rotate_half,
    to_plain_asm,
)
from chainedboards.boards import (
    BoardSpec,
    Composition,
    Shape,
    Square,
    max_rooks,
    rook_lines,
    suffix_bound_table,
)
from chainedboards.errors import InputDomainError, UnsupportedDomainError, ValidationError
from chainedboards.ice import EdgeId as GridEdge
from chainedboards.ice import FPLConfiguration, GridGraph, IceConfiguration, Vertex
from chainedboards.matchings import ChainGraph, ChainMatching, EdgeId
from chainedboards.perms import ChainedPermutation, OneLine
from chainedboards.placements import RookPlacement
from chainedboards.serialization import edge_to_str, vertex_to_str
from chainedboards.triangles import MonotoneTriangleChain, Triangle, mt_chain_problems


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


def maximum_compositions(board: BoardSpec) -> Iterator[Composition]:
    """The compositions of maximum placements, from the closed characterization.

    Linear, k even: (n-j_1, j_1, ..., n-j_{k/2}, j_{k/2}) over weakly
    increasing 0 <= j_1 <= ... <= j_{k/2} <= n.  Linear, k odd: the single
    (n, 0, n, ..., 0, n).  Circular, k even: (n-j, j, ..., n-j, j) for
    0 <= j <= n.  Circular, k odd, n even: all parts n/2.  Circular, both
    odd: the k cyclic shifts of ((n-1)/2, (n+1)/2, ..., (n+1)/2, (n-1)/2).
    Emitted in lexicographic order.
    """
    n, k = board.n, board.k
    out: set[Composition] = set()
    if not board.circular:
        if k % 2 == 1:
            out.add(tuple(n if i % 2 == 0 else 0 for i in range(k)))
        else:
            for js in itertools.combinations_with_replacement(range(n + 1), k // 2):
                out.add(tuple(part for j in js for part in (n - j, j)))
    elif k % 2 == 0:
        for j in range(n + 1):
            out.add((n - j, j) * (k // 2))
    elif n % 2 == 0:
        out.add((n // 2,) * k)
    else:
        base = [(n - 1) // 2 if i % 2 == 0 else (n + 1) // 2 for i in range(k)]
        for s in range(k):
            out.add(tuple(base[(i + s) % k] for i in range(k)))
    yield from sorted(out)


def count_max_linear_multinomial(n: int, k: int) -> int:
    """The k-even linear count rewritten with multinomial coefficients."""
    if n < 1 or k < 1 or k % 2 == 1:
        raise InputDomainError("defined for n >= 1 and even k >= 2")
    total = 0
    for chain in itertools.combinations_with_replacement(range(n + 1), k // 2):
        gaps = [n - chain[-1]]
        gaps.extend(chain[i + 1] - chain[i] for i in reversed(range(len(chain) - 1)))
        gaps.append(chain[0])
        term = _multinomial(n, gaps)
        for j in chain:
            term *= math.comb(n, j)
        total += term
    return math.factorial(n) ** (k // 2) * total


def count_max_linear_chains(n: int, k: int) -> int:
    """Number of maximum rook placements on the linear board.

    k odd: (n!)^((k+1)/2).  k even: (n!)^(k/2) times the sum over weakly
    increasing chains 0 <= j_1 <= ... <= j_{k/2} <= n of the product of
    C(n - j_{l-1}, n - j_l) * C(n, j_l), with j_0 = 0.
    """
    if n < 1 or k < 1:
        raise InputDomainError("n and k must be >= 1")
    if k % 2 == 1:
        return math.factorial(n) ** ((k + 1) // 2)
    total = 0
    for chain in itertools.combinations_with_replacement(range(n + 1), k // 2):
        prev = 0
        term = 1
        for j in chain:
            term *= math.comb(n - prev, n - j) * math.comb(n, j)
            prev = j
        total += term
    return math.factorial(n) ** (k // 2) * total


def _multinomial(n: int, parts: list[int]) -> int:
    assert sum(parts) == n
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def count_chained_asm(board: BoardSpec) -> int:
    return sum(1 for _ in enumerate_chained_asm(board))


def transfer_matrix(n: int) -> list[list[int]]:
    """``T[r][s]``: how many n x n matrices meet condition (1), have row-sum
    vector s, and may follow a matrix with row-sum vector r under
    condition (2); bit i of a row-sum vector is the 0/1 sum of row i.

    Rows are built top-down.  The state is (columns whose last nonzero so
    far is +1, columns whose last nonzero is -1), mapped to weights indexed
    by the row-sum bits of the rows so far.  A row is a set of columns
    signed +1, -1, +1, ... from the left, so there are 2^n of them; it may
    not repeat a column's last sign.  A column's final last sign is its
    bottommost nonzero, which fixes that column's bit of r (+1 needs 0, -1
    needs 1); a column left at zero takes either bit.
    """
    rows = []
    for cols in range(1 << n):
        plus = minus = 0
        for j in range(n):
            if cols >> j & 1:
                if (plus | minus).bit_count() % 2 == 0:
                    plus |= 1 << j
                else:
                    minus |= 1 << j
        rows.append((plus, minus, cols.bit_count() % 2))

    states = {(0, 0): [1]}
    for i in range(n):
        half = 1 << i
        nxt: dict[tuple[int, int], list[int]] = {}
        for (last_plus, last_minus), weights in states.items():
            for plus, minus, bit in rows:
                if plus & last_plus or minus & last_minus:
                    continue
                key = ((last_plus & ~minus) | plus, (last_minus & ~plus) | minus)
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = [0] * (2 * half)
                lo = bit * half
                acc[lo : lo + half] = map(add, acc[lo : lo + half], weights)
        states = nxt

    full = (1 << n) - 1
    table = [[0] * (full + 1) for _ in range(full + 1)]
    for (last_plus, last_minus), weights in states.items():
        free = full & ~(last_plus | last_minus)
        sub = free
        while True:  # every r with last_minus set, last_plus clear
            row = table[last_minus | sub]
            row[:] = map(add, row, weights)
            if sub == 0:
                break
            sub = (sub - 1) & free
    return table


def enumerate_matchings(board: BoardSpec) -> Iterator[ChainMatching]:
    """All matchings of the chained-permutation size, by direct search."""
    graph = ChainGraph(board)
    all_edges = [e for e in graph.edges() if len(set(graph.endpoints(e))) == 2]  # no loops
    want = max_rooks(board)
    used: set[tuple[int, int]] = set()
    chosen: list[EdgeId] = []

    def extend(start: int) -> Iterator[ChainMatching]:
        if len(chosen) == want:
            yield ChainMatching(graph, tuple(chosen))
            return
        if want - len(chosen) > len(all_edges) - start:
            return
        for idx in range(start, len(all_edges)):
            e = all_edges[idx]
            u, v = graph.endpoints(e)
            if u in used or v in used:
                continue
            used.update((u, v))
            chosen.append(e)
            yield from extend(idx + 1)
            chosen.pop()
            used.difference_update((u, v))

    yield from extend(0)


def _strict_gt_patterns(n: int) -> Iterator[Triangle]:
    """Strict Gelfand-Tsetlin patterns of order n with entries in 1..2n,
    generated from the bottom row up."""

    def rows_above(lower: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        choices = [range(lower[i], lower[i + 1] + 1) for i in range(len(lower) - 1)]
        for combo in itertools.product(*choices):
            if all(combo[i] < combo[i + 1] for i in range(len(combo) - 1)):
                yield combo

    def build(rows: list[tuple[int, ...]]) -> Iterator[Triangle]:
        if len(rows[-1]) == 1:
            yield tuple(reversed(rows))
            return
        for above in rows_above(rows[-1]):
            rows.append(above)
            yield from build(rows)
            rows.pop()

    for bottom in itertools.combinations(range(1, 2 * n + 1), n):
        yield from build([bottom])


def enumerate_mt_chains(n: int, k: int) -> Iterator[MonotoneTriangleChain]:
    """All valid chains, independently of the ASM enumeration."""
    if k < 2 or k % 2 != 0:
        raise UnsupportedDomainError("chains exist only for even k >= 2")
    patterns = list(_strict_gt_patterns(n))
    for combo in itertools.product(patterns, repeat=k // 2):
        chain = MonotoneTriangleChain(n, k, combo)
        if not mt_chain_problems(chain):
            yield chain


# The chained grid graph as the paper draws it: board l holds the interior
# vertices (l, i, j), 1 <= i, j <= n, with boundary vertices (l, i, 0) on its
# left and (l, 0, j) on its top, and the right end of row i of board l meets
# the bottom of column i of board l + 1 (board 1 after board k).


def grid_interior(n: int, k: int) -> list[Vertex]:
    return [(l, i, j) for l in range(1, k + 1) for i in range(1, n + 1) for j in range(1, n + 1)]


def grid_incident(n: int, k: int, v: Vertex) -> tuple[GridEdge, ...]:
    """The N, S, E, W edges of interior vertex ``v``."""
    l, i, j = v
    north = ("v", l, i - 1, j) if i > 1 else ("bt", l, j)
    south = ("v", l, i, j) if i < n else ("c", l - 1 if l > 1 else k, j)
    east = ("h", l, i, j) if j < n else ("c", l, i)
    west = ("h", l, i, j - 1) if j > 1 else ("bl", l, i)
    return (north, south, east, west)


def grid_endpoints(n: int, k: int, e: GridEdge) -> tuple[Vertex, Vertex]:
    """Edge ``e``'s left or upper end, then the other; a chaining edge's end on board l first."""
    kind, l, a = e[0], e[1], e[2]
    if kind == "h":
        return (l, a, e[3]), (l, a, e[3] + 1)
    if kind == "v":
        return (l, a, e[3]), (l, a + 1, e[3])
    if kind == "c":
        return (l, a, n), (l + 1 if l < k else 1, n, a)
    return ((l, a, 0), (l, a, 1)) if kind == "bl" else ((l, 0, a), (l, 1, a))


def dwbc_head(e: GridEdge) -> Vertex | None:
    """The head the chained domain wall boundary conditions force on a boundary
    edge: on odd boards the left edges point in and the top edges out, on even
    boards the reverse.  None for an inner edge."""
    kind, l, a = e[0], e[1], e[2]
    if kind == "bl":
        return (l, a, 1) if l % 2 == 1 else (l, a, 0)
    if kind == "bt":
        return (l, 0, a) if l % 2 == 1 else (l, 1, a)
    return None


def fpl_holds(e: GridEdge) -> bool | None:
    """Whether a fully-packed loop holds a boundary edge: the left edges of odd
    rows and the top edges of even columns.  None for an inner edge."""
    if e[0] == "bl":
        return e[2] % 2 == 1
    if e[0] == "bt":
        return e[2] % 2 == 0
    return None


def _two_marks_each(graph: GridGraph, options: Callable) -> Iterator[list]:
    """Every choice of one option per edge, in edge order, that marks each
    interior vertex exactly twice, as one reused list; ``options(e, u, v)``
    lists e's options in search order as (what e records, vertices it marks)."""
    edges = graph.edges()
    marks = {v: 0 for v in grid_interior(graph.n, graph.k)}
    left = {v: 4 for v in marks}  # incident edges not yet decided
    picked: list = []

    def assign(idx: int) -> Iterator[list]:
        if idx == len(edges):
            yield picked
            return
        u, v = grid_endpoints(graph.n, graph.k, edges[idx])
        ends = [w for w in (u, v) if w in marks]
        for w in ends:
            left[w] -= 1
        for value, marked in options(edges[idx], u, v):
            hits = [w for w in marked if w in marks]
            for w in hits:
                marks[w] += 1
            if all(marks[w] <= 2 <= marks[w] + left[w] for w in ends):
                picked.append(value)
                yield from assign(idx + 1)
                picked.pop()
            for w in hits:
                marks[w] -= 1
        for w in ends:
            left[w] += 1

    yield from assign(0)


def enumerate_ice(n: int, k: int) -> Iterator[IceConfiguration]:
    """All orientations with chained DWBC and two-in two-out: an edge marks its head."""
    graph = GridGraph(n, k)

    def heads(e, u, v):
        return [(h, (h,)) for h in (u, v) if dwbc_head(e) in (None, h)]

    for picked in _two_marks_each(graph, heads):
        yield IceConfiguration(graph, tuple(picked))


def enumerate_fpl(n: int, k: int) -> Iterator[FPLConfiguration]:
    """All subgraphs with the FPL boundary pattern and interior degree 2: a
    chosen edge marks both its ends."""
    graph = GridGraph(n, k)

    def takes(e, u, v):
        skip, take = (None, ()), (e, (u, v))
        return {None: [skip, take], False: [skip], True: [take]}[fpl_holds(e)]

    for picked in _two_marks_each(graph, takes):
        yield FPLConfiguration(graph, tuple(e for e in picked if e))


def ice_problems(c: IceConfiguration) -> list[str]:
    """Chained domain wall boundary conditions plus two-in two-out, by edge id."""
    head = dict(zip(c.graph.edges(), c.heads))
    problems = []
    for e, h in head.items():
        want = dwbc_head(e)
        if want is not None and h != want:
            problems.append(f"boundary edge {e} must point to {want}")
    for v in grid_interior(c.graph.n, c.graph.k):
        indeg = sum(1 for e in grid_incident(c.graph.n, c.graph.k, v) if head[e] == v)
        if indeg != 2:
            problems.append(f"interior vertex {v} has {indeg} edges entering, not 2")
    return problems


def fpl_problems(f: FPLConfiguration) -> list[str]:
    """Fixed boundary pattern plus degree exactly 2 at interior vertices, by edge id."""
    chosen = set(f.chosen)
    problems = []
    for e in f.graph.edges():
        want = fpl_holds(e)
        if want is not None and (e in chosen) != want:
            state = "must contain" if want else "must not contain"
            problems.append(f"fully-packed loop {state} boundary edge {e}")
    for v in grid_interior(f.graph.n, f.graph.k):
        deg = sum(1 for e in grid_incident(f.graph.n, f.graph.k, v) if e in chosen)
        if deg != 2:
            problems.append(f"interior vertex {v} has degree {deg}, not 2")
    return problems


def row_search(board: BoardSpec, m: int) -> Iterator[tuple[Square, ...]]:
    """The squares of every valid m-rook placement, in lexicographic order:
    a walk over the rows of the whole chain in order, each trying its
    squares by column and then being left empty, with one frame per row
    that holds a rook on its own stack.  It counts rooks per board only to
    prune by ``suffix_bound_table``, and shares nothing else with the
    board-by-board search."""
    n, k = board.n, board.k
    circ = board.circular
    suffix_bound = suffix_bound_table(board)
    # each row's squares with their two lines; a square whose lines coincide attacks itself
    cells: dict[tuple[int, int], list] = {}
    for s in board_squares(board):
        row_line, col_line = rook_lines(board, s)
        if row_line != col_line:
            cells.setdefault((s.board, s.row), []).append((s, row_line, col_line))
    held: set = set()
    counts = [0] * (k + 1)  # rooks per board, 1-based; board 0 stays empty
    chosen: list[Square] = []
    taken: list[tuple] = []
    # row n + 1 of each board has no squares, so capacity is checked at each board's end
    rows = [(b, r, cells.get((b, r), ())) for b in range(1, k + 1) for r in range(1, n + 2)]

    def capacity(idx: int) -> int:
        """Upper bound on rooks still placeable from row ``idx`` on."""
        b, r, _ = rows[idx]
        cur = counts[b]
        room = min(n - r + 1, n - counts[b - 1] - cur)
        if circ and b == k:
            room = min(room, n - counts[1] - cur)
        return max(room, 0) + suffix_bound[b + 1][cur][counts[1] if circ else 0]

    if m == 0:
        yield ()
    stack = [[0, 0, iter(rows[0][2])]] if 0 < m <= capacity(0) else []
    while stack:
        idx, placed, todo = stack[-1]
        if len(chosen) > placed:  # take back the rook of the option tried last
            _, row_line, col_line = taken.pop()
            counts[chosen.pop().board] -= 1
            held.discard(col_line)
            held.discard(row_line)
        for cell in todo:
            s, row_line, col_line = cell
            if row_line in held or col_line in held:
                continue
            held.add(row_line)
            held.add(col_line)
            counts[s.board] += 1
            chosen.append(s)
            taken.append(cell)
            if placed + 1 == m:
                yield tuple(chosen)
            elif placed + 1 + capacity(idx + 1) >= m:
                stack.append([idx + 1, placed + 1, iter(rows[idx + 1][2])])
            break
        else:  # the row is left empty
            if idx + 1 < len(rows) and placed + capacity(idx + 1) >= m:
                stack[-1] = [idx + 1, placed, iter(rows[idx + 1][2])]
            else:
                stack.pop()


def suffix_bound_by_max(board: BoardSpec) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``bound[b][prev][a1]``: the most rooks boards b..k can hold when board
    b-1 holds ``prev`` and, circularly, board 1 holds ``a1``, as the max over
    board b's count a of a plus the bound of the boards after it."""
    n, k = board.n, board.k
    bound = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(k + 2)]
    for b in range(k, 0, -1):
        for prev in range(n + 1):
            for a1 in range(n + 1):
                hi = n - prev
                if board.circular and b == k:
                    hi = min(hi, n - a1)
                bound[b][prev][a1] = max(a + bound[b + 1][a][a1] for a in range(hi + 1))
    return tuple(tuple(map(tuple, table)) for table in bound)


def reference_document(obj) -> str:
    """The canonical document of ``obj``: its header and payload, read off its
    public fields into a dict in document key order, as one ``json.dumps``."""
    t = type(obj)
    if t is PlainASM:  # its size is the whole header
        return json.dumps({"family": "plain-asm", "n": obj.size, "matrix": obj.rows}) + "\n"
    if t is RookPlacement:
        name, board, key, payload = "placement", obj.board, "squares", obj.squares
    elif t is ChainedPermutation:
        name, board, key, payload = "chained-permutation", obj.board, "matrices", obj.matrices
    elif t is OneLine:
        name, board, key, payload = "one-line", obj.board, "blocks", obj.blocks
    elif t is ChainMatching:
        name, board, key, payload = "chain-matching", obj.graph.board, "edges", obj.edges
    elif t is ChainedASM:
        name, board, key, payload = "chained-asm", obj.board, "matrices", obj.matrices
    elif t is MonotoneTriangleChain:
        name, key, payload = "monotone-triangle-chain", "triangles", obj.triangles
        board = BoardSpec(Shape.CIRCULAR, obj.n, obj.k)
    elif t is IceConfiguration:
        name, key = "ice", "orientation"
        payload = {edge_to_str(e): vertex_to_str(h) for e, h in zip(obj.graph.edges(), obj.heads)}
        board = BoardSpec(Shape.CIRCULAR, obj.graph.n, obj.graph.k)
    elif t is FPLConfiguration:
        name, key, payload = "fpl", "edges", [edge_to_str(e) for e in obj.chosen]
        board = BoardSpec(Shape.CIRCULAR, obj.graph.n, obj.graph.k)
    else:
        raise ValidationError(f"no canonical document for {t.__name__}")
    doc = {"family": name, "shape": board.shape.value, "n": board.n, "k": board.k, key: payload}
    return json.dumps(doc) + "\n"


def board_squares(board: BoardSpec) -> Iterator[Square]:
    """All squares of ``board`` in (board, row, col) order."""
    for b in range(1, board.k + 1):
        for r in range(1, board.n + 1):
            for c in range(1, board.n + 1):
                yield Square(b, r, c)


def is_admissible_composition(board: BoardSpec, parts: Composition) -> bool:
    """Whether ``parts`` arises as the per-board rook counts of some placement."""
    if len(parts) != board.k:
        return False
    if any(not (0 <= a <= board.n) for a in parts):
        return False
    prev = parts[-1] if board.circular else 0
    for a in parts:
        if prev + a > board.n:
            return False
        prev = a
    return True


def canonical_placement(board: BoardSpec, comp: Composition) -> RookPlacement:
    """A non-attacking placement witnessing an admissible composition.

    Board i gets rooks at (row l, col a_{i-1} + l) for l = 1..a_i; on a
    circular board the last board's rows are shifted by a_1 so they clear
    the columns occupied on board 1 (for k = 1 the shift applies to the
    single board, whose columns start at 1).
    """
    if not is_admissible_composition(board, tuple(comp)):
        raise InputDomainError(f"composition {tuple(comp)} is not admissible on {board}")
    squares = []
    prev = 0
    for i, a in enumerate(comp, start=1):
        row_shift = comp[0] if board.circular and i == board.k else 0
        for l in range(1, a + 1):
            squares.append(Square(i, row_shift + l, prev + l))
        prev = a
    return RookPlacement(board, tuple(squares))


def composition(p: RookPlacement) -> Composition:
    """The number of rooks ``p`` places on each board, board 1 first."""
    counts = [0] * p.board.k
    for s in p.squares:
        counts[s.board - 1] += 1
    return tuple(counts)


def matching_kind(board: BoardSpec) -> str:
    """perfect / near-perfect / leaves-n-unmatched, by shape and parity."""
    if board.circular:
        return "near-perfect" if board.n % 2 == 1 and board.k % 2 == 1 else "perfect"
    return "perfect" if board.k % 2 == 1 else "leaves-n-unmatched"


def asm_sum_composition(a: ChainedASM) -> Composition:
    """Per-matrix entry sums; for a valid chained ASM this is always the
    composition of some maximum rook placement."""
    return tuple(sum(sum(row) for row in mat) for mat in a.matrices)


def split_linear_odd(a: ChainedASM) -> tuple[PlainASM, ...]:
    """For linear odd k, the odd-indexed matrices as plain ASMs.

    The even-indexed matrices of any valid element are all zero, so the
    chain carries exactly (k+1)/2 independent plain ASMs.
    """
    if a.board.circular or a.board.k % 2 == 0:
        raise UnsupportedDomainError("defined for linear boards with odd k")
    for l in range(2, a.board.k + 1, 2):
        if any(x != 0 for row in a.matrices[l - 1] for x in row):
            raise ValidationError(f"even-indexed matrix {l} is not zero; input is not valid")
    out = []
    for l in range(1, a.board.k + 1, 2):
        p = PlainASM(a.board.n, a.matrices[l - 1])
        if plain_asm_problems(p):
            raise ValidationError(f"matrix {l} is not an alternating sign matrix")
        out.append(p)
    return tuple(out)


def join_linear_odd(parts: tuple[PlainASM, ...], k: int) -> ChainedASM:
    """Inverse of split_linear_odd: interleave zero matrices."""
    if k % 2 == 0 or len(parts) != (k + 1) // 2:
        raise InputDomainError(f"need (k+1)/2 matrices for odd k, got {len(parts)}")
    n = parts[0].size
    zero = tuple((0,) * n for _ in range(n))
    matrices = []
    for idx in range(k):
        matrices.append(parts[idx // 2].rows if idx % 2 == 0 else zero)
    return ChainedASM(BoardSpec(Shape.LINEAR, n, k), tuple(matrices))


def split_circular_k4(p: PlainASM) -> ChainedASM:
    """Inverse of to_plain_asm on circular k = 4."""
    if p.size % 2 != 0:
        raise InputDomainError("matrix size must be even")
    n = p.size // 2
    q1 = tuple(row[:n] for row in p.rows[:n])
    tr = tuple(row[n:] for row in p.rows[:n])
    br = tuple(row[n:] for row in p.rows[n:])
    bl = tuple(row[:n] for row in p.rows[n:])
    a = ChainedASM(
        BoardSpec(Shape.CIRCULAR, n, 4),
        (q1, rotate_ccw(tr), rotate_half(br), rotate_cw(bl)),
    )
    problems = chained_asm_problems(a)
    if problems:
        raise ValidationError("matrix does not split into a chained ASM", problems)
    return a


def unfold_qt(p: PlainASM) -> ChainedASM:
    """Inverse of to_plain_asm on circular k = 1; the input must be quarter-turn symmetric."""
    if p.size % 2 != 0 or (p.size // 2) % 2 != 0:
        raise InputDomainError("size must be a multiple of 4")
    n = p.size // 2
    q1 = tuple(row[:n] for row in p.rows[:n])
    a = ChainedASM(BoardSpec(Shape.CIRCULAR, n, 1), (q1,))
    if to_plain_asm(a).rows != p.rows:
        raise ValidationError("matrix is not quarter-turn symmetric")
    problems = chained_asm_problems(a)
    if problems:
        raise ValidationError("quadrant is not a valid chained ASM", problems)
    return a
