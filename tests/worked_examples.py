"""Worked objects shared across test modules.

Reference objects: the two one-line strings, the
eight chained circular permutations on two 2x2 boards, the circular n=4,
k=6 chained ASM whose triangle chain has bottom rows (1,3,5,7), (1,3,5,8),
(2,3,5,7), and the 12x12 quarter-turn symmetric ASM with its 6x6 quadrant; and
malformed documents that ``deserialize`` must reject.
"""

from __future__ import annotations

import json

from chainedboards.asm import ChainedASM
from chainedboards.boards import circular, linear

ONE_LINE_46 = "0200-3104-3000-3420-0004-1032-"
ONE_LINE_54 = "30502-04200-00045-31200"

P22_CIRCULAR = ["12-00-", "21-00-", "00-12-", "00-21-", "10-02-", "01-01-", "20-20-", "02-10-"]

WORKED_46 = ChainedASM(
    circular(4, 6),
    (
        ((0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1)),
        ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, -1, 0), (0, 0, 1, -1)),
        ((0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 1, -1), (0, 0, 0, 1)),
        ((0, 0, 0, 0), (0, 0, 1, 0), (0, 1, -1, 1), (0, 0, 1, -1)),
        ((0, 0, 0, 0), (0, 1, 0, 0), (1, -1, 0, 0), (0, 0, 0, 1)),
    ),
)

WORKED_TRIANGLES = (
    ((2,), (1, 6), (1, 3, 7), (1, 3, 5, 7)),
    ((3,), (3, 4), (1, 4, 6), (1, 3, 5, 8)),
    ((6,), (3, 7), (2, 4, 7), (2, 3, 5, 7)),
)

QT_12 = (
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, 0, 1, 0, 0, 0),
    (0, 0, 1, -1, 0, 0, 1, 0, -1, 1, 0, 0),
    (0, 1, -1, 0, 0, 1, -1, 1, 0, -1, 1, 0),
    (0, 0, 0, 1, 0, -1, 1, 0, 0, 0, 0, 0),
    (1, -1, 1, -1, 1, 0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 1, -1, 0, 0, 1, -1, 1, -1, 1),
    (0, 0, 0, 0, 0, 1, -1, 0, 1, 0, 0, 0),
    (0, 1, -1, 0, 1, -1, 1, 0, 0, -1, 1, 0),
    (0, 0, 1, -1, 0, 1, 0, 0, -1, 1, 0, 0),
    (0, 0, 0, 1, 0, -1, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
)
QT_6 = tuple(row[:6] for row in QT_12[:6])

# A valid linear 3x3, k=2 chained ASM carrying a -1 in the top row of the
# first matrix.
LINEAR_32_WITH_TOP_MINUS = ChainedASM(
    linear(3, 2),
    (
        ((1, -1, 1), (0, 1, 0), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    ),
)


def _doc(family: str, **fields) -> str:
    return json.dumps({"family": family, **fields})


# Valid documents on circular(1, 2); each malformed variant below changes one thing.
ICE_12 = {
    "bl:1,1": "1:1,1", "bt:1,1": "1:0,1", "c:1,1": "2:1,1",
    "bl:2,1": "2:1,0", "bt:2,1": "2:1,1", "c:2,1": "1:1,1",
}
FPL_12 = ["bl:1,1", "bl:2,1", "c:2,1"]
WIDE_ONE_LINE = ",".join(str(v) for v in range(1, 11))  # the identity on linear(10, 1)

# Documents ``deserialize`` must reject with a ParseError, each a valid
# document with one change: a boolean, float or string where an integer
# belongs, a non-ASCII, signed, spaced or underscored number, a linear shape
# on a circular-only family, a square or edge of the wrong length, or JSON
# nested too deep to decode.
MALFORMED = {
    "chained-asm entry true": _doc("chained-asm", shape="circular", n=1, k=2, matrices=[[[True]], [[0]]]),
    "chained-asm entry 1.0": _doc("chained-asm", shape="circular", n=1, k=2, matrices=[[[1.0]], [[0]]]),
    "permutation entry string": _doc("chained-permutation", shape="linear", n=1, k=1, matrices=[[["1"]]]),
    "plain-asm entry true": _doc("plain-asm", n=1, matrix=[[True]]),
    "plain-asm entry 1.9": _doc("plain-asm", n=1, matrix=[[1.9]]),
    "one-line entry string": _doc("one-line", shape="linear", n=1, k=1, blocks=[["1"]]),
    "one-line entry true": _doc("one-line", shape="linear", n=1, k=1, blocks=[[True]]),
    "triangle entry string": _doc("monotone-triangle-chain", shape="circular", n=1, k=2, triangles=[[["2"]]]),
    "triangle entry 2.0": _doc("monotone-triangle-chain", shape="circular", n=1, k=2, triangles=[[[2.0]]]),
    "n true": _doc("chained-asm", shape="linear", n=True, k=1, matrices=[[[1]]]),
    "k 1.0": _doc("chained-asm", shape="linear", n=1, k=1.0, matrices=[[[1]]]),
    "square with true": _doc("placement", shape="linear", n=1, k=1, squares=[[True, 1, 1]]),
    "square of two numbers": _doc("placement", shape="linear", n=1, k=1, squares=[[1, 1]]),
    "matching edge with 1.0": _doc("chain-matching", shape="linear", n=1, k=1, edges=[[1, 1, 1.0]]),
    "matching edge [1, 1]": _doc("chain-matching", shape="linear", n=1, k=1, edges=[[1, 1]]),
    "matching edge [1, 1, 1, 1]": _doc("chain-matching", shape="linear", n=1, k=1, edges=[[1, 1, 1, 1]]),
    "one-line arabic-indic digits": "\u0661\u0662-\u0660\u0660-",  # 12-00-
    "one-line comma block with +1": "+" + WIDE_ONE_LINE,
    "one-line comma block with a space": WIDE_ONE_LINE.replace(",2", ", 2"),
    "one-line comma block with 1_0": WIDE_ONE_LINE.replace("10", "1_0"),
    "fpl edge id with +1": _doc("fpl", shape="circular", n=1, k=2, edges=["bl:1,+1"] + FPL_12[1:]),
    "fpl edge id with a space": _doc("fpl", shape="circular", n=1, k=2, edges=["bl:1, 1"] + FPL_12[1:]),
    "fpl edge id with 0_1": _doc("fpl", shape="circular", n=1, k=2, edges=FPL_12[:2] + ["c:2,0_1"]),
    "ice vertex id with an arabic-indic digit": _doc(
        "ice", shape="circular", n=1, k=2, orientation={**ICE_12, "bl:1,1": "\u0661:1,1"}
    ),
    "ice vertex id with -1": _doc(
        "ice", shape="circular", n=1, k=2, orientation={**ICE_12, "c:1,1": "2:1,-1"}
    ),
    "ice on a linear board": _doc("ice", shape="linear", n=1, k=2, orientation=ICE_12),
    "fpl on a linear board": _doc("fpl", shape="linear", n=1, k=2, edges=FPL_12),
    "triangles on a linear board": _doc(
        "monotone-triangle-chain", shape="linear", n=1, k=2, triangles=[[[2]]]
    ),
    "JSON nested 100k deep": '{"family": "chained-asm", "matrices": ' + "[" * 100_000 + "]" * 100_000 + "}",
}

# Small or plain documents that once cost time or output far beyond their
# size, or escaped the parse boundary: each must be rejected briefly.
OVERSIZED = {
    "integer beyond the digit limit": _doc(
        "chained-asm", shape="circular", n=1, k=1, matrices=[[[0]]]
    ).replace("[[[0]]]", "[[[" + "9" * 5000 + "]]]"),
    "fpl with n = 400 and no edges": _doc("fpl", shape="circular", n=400, k=2, edges=[]),
    "ice with n = 400 and no edges": _doc("ice", shape="circular", n=400, k=2, orientation={}),
    "long non-JSON": "[" * 100_000 + "]" * 100_000,
}

# A 4000-digit n or k (under Python's 4300-digit limit), which every message
# that echoes a size must clip: one document per family whose constructor or
# check quotes n or k, then the other numbers a message may take from them.
LONG = int("9" * 4000)
LONG_NUMBERS = {
    "chained-asm with a long k": _doc("chained-asm", shape="linear", n=1, k=LONG, matrices=[]),
    "chained-permutation with a long n": _doc(
        "chained-permutation", shape="linear", n=LONG, k=1, matrices=[[]]
    ),
    "one-line with a long n": _doc("one-line", shape="linear", n=LONG, k=1, blocks=[[]]),
    "triangle chain with a long k": _doc(
        "monotone-triangle-chain", shape="circular", n=1, k=2 * LONG, triangles=[]
    ),
    "plain-asm with a long n": _doc("plain-asm", n=LONG, matrix=[]),
    "chain-matching with a long k": _doc("chain-matching", shape="linear", n=1, k=LONG, edges=[]),
    "placement with a long n": _doc("placement", shape="linear", n=LONG, k=1, squares=[[2, 1, 1]]),
    "board with a long negative n": _doc("chained-asm", shape="linear", n=-LONG, k=1, matrices=[]),
    # the edge counts quoted here grow as n^2: a 1500-digit n gives 3000 digits
    "ice with a long n": _doc("ice", shape="circular", n=int("9" * 1500), k=2, orientation={}),
    "fpl with a long n": _doc("fpl", shape="circular", n=int("9" * 1500), k=2, edges=[]),
    # a 2200-digit n makes those counts longer than str() takes (4300 digits)
    "ice with a 2200-digit n": _doc("ice", shape="circular", n=int("9" * 2200), k=2, orientation={}),
    "fpl with a 2200-digit n": _doc("fpl", shape="circular", n=int("9" * 2200), k=2, edges=[]),
    "long matrix entry": _doc("chained-asm", shape="linear", n=1, k=1, matrices=[[[LONG]]]),
    "long one-line entry": _doc("one-line", shape="linear", n=1, k=1, blocks=[[LONG]]),
    "long matching edge": _doc("chain-matching", shape="linear", n=1, k=1, edges=[[LONG, 1, 1]]),
}

# A 25 KB chained ASM on circular(20, 20) with every entry 1: 801 problems.
ALL_ONES_20 = _doc("chained-asm", shape="circular", n=20, k=20, matrices=[[[1] * 20] * 20] * 20)

# Valid JSON whose grid graph does not exist (odd k): a ValidationError.
ODD_K_ICE = _doc("ice", shape="circular", n=1, k=3, orientation=ICE_12)
