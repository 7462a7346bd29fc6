"""Closed-braid diagrams for the oracle and assembler tests."""

from qalinks import montesinos
from qalinks.diagram import Diagram
from qalinks.seifert_oracle import OracleError


def braid_closure(word, strands: int | None = None) -> Diagram:
    """Closed-braid diagram of a word [(index, sign), ...]; oriented.

    Letter (i, +1) makes a positive crossing between strands i and i+1
    (writhe of the closure of [(0,1)]*3 is +3).  The assembler is looked
    up when called, so a test may swap it.
    """
    if strands is None:
        strands = max((i for i, _ in word), default=-1) + 2
    asm = montesinos._Assembler()
    starts, ends = [], []
    for _ in range(strands):
        a, b = asm.wire()
        starts.append(a)
        ends.append(b)
    hints = []
    for i, sign in word:
        if not 0 <= i < strands - 1:
            raise OracleError(f"letter index {i} out of range")
        ends[i], ends[i + 1] = asm.twists(
            ends[i], ends[i + 1], 1,
            montesinos._NEG_TWIST if sign > 0 else montesinos._POS_TWIST)
        hints += ends[i], ends[i + 1]
    for a, b in zip(ends, starts):
        asm.join(a, b)
    return asm.diagram().oriented(hints)
