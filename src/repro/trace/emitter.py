"""One-pass instruction emission for the workload generators.

Workload generators describe *what* a process does (loads/stores to the
database regions, ALU work, locking, commits) by calling an
:class:`Emitter` once per micro-op.  The emitter merges each op with the
instruction-fetch behaviour of a :class:`~repro.trace.codewalk.CodeWalker`
on the spot: it assigns the PC, inserts the branch that ends each basic
block, resolves dependences into backward dynamic distances and appends
the finished :class:`Instruction` to :attr:`Emitter.out`.

A producer's *tag* is its dynamic index in the process's stream, inserted
branches included, so a dependence distance is simply ``index - tag`` and
inserted branches shift distances automatically.

The generators and the walker draw from one shared ``random.Random``: the
stream is a function of the order of those draws, which is why every op
is emitted at the point where the generator creates it.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.trace.codewalk import INSTR_BYTES, CodeWalker
from repro.trace.instr import (
    OP_BRANCH,
    OP_FP,
    OP_INT,
    OP_LOAD,
    OP_STORE,
    Instruction,
)

#: Dependences further back than this are dropped: the producer is
#: guaranteed complete before the consumer can possibly enter the window.
MAX_DEP_DISTANCE = 192


def below_fn(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: the value ``rng.randrange(n)`` would return, drawn
    from the same ``getrandbits`` calls (so the generator state advances
    identically).  ``seq[below(len(seq))]`` likewise equals
    ``rng.choice(seq)`` and ``rng.sample(seq, k=1)[0]``."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


class Emitter:
    """Per-process instruction assembly, called once per micro-op.

    Every ``block_instrs``-sized run of sequential PCs is terminated by a
    branch instruction taken from the walker, reproducing the basic-block
    structure (and therefore the branch frequency and instruction-fetch
    streaming behaviour) of the workload.  Ops with a ``fixed_pc`` (hot
    engine routines) neither take a walker PC nor end a block.

    ``load``, ``alu`` and ``tagged`` return the op's tag: its dynamic
    index, usable in later ``dep_tags``.
    """

    __slots__ = ("out", "index", "_walker", "_lo", "_hi", "_remaining")

    def __init__(self, walker: CodeWalker,
                 block_instrs: Tuple[int, int]) -> None:
        #: Instructions emitted since the generator last drained it.
        self.out: List[Instruction] = []
        #: Dynamic index of the next instruction.
        self.index = 0
        self._walker = walker
        self._lo, self._hi = block_instrs
        # Block boundaries are deterministic in the starting PC so branch
        # sites are stable static locations (predictors can learn them).
        self._remaining = walker.block_len_at(walker.pc, self._lo, self._hi)

    def _emit(self, op: int, addr: int, dep_tags: Sequence[int],
              latency: int, fixed_pc: Optional[int]) -> int:
        """Append one op (after its block's branch when one is due);
        returns its dynamic index."""
        if fixed_pc is None:
            walker = self._walker
            if self._remaining <= 0:
                desc = walker.end_block()
                self.out.append(Instruction(
                    OP_BRANCH, desc.pc, 0, (), 1, desc.taken, desc.target,
                    desc.kind))
                self.index += 1
                self._remaining = walker.block_len_at(walker.pc, self._lo,
                                                      self._hi)
            self._remaining -= 1
            fixed_pc = walker.pc
            walker.pc = fixed_pc + INSTR_BYTES
        index = self.index
        deps = ()
        for tag in dep_tags:
            if index - tag <= MAX_DEP_DISTANCE:
                deps += (index - tag,)
        self.out.append(Instruction(op, fixed_pc, addr, deps, latency))
        self.index = index + 1
        return index

    def alu(self, dep_tags: Sequence[int] = (), fp: bool = False,
            fixed_pc: Optional[int] = None) -> int:
        """An ALU op producing a new value; returns its tag."""
        if fp:
            return self._emit(OP_FP, 0, dep_tags, 3, fixed_pc)
        return self._emit(OP_INT, 0, dep_tags, 1, fixed_pc)

    def load(self, addr: int, dep_tags: Sequence[int] = (),
             fixed_pc: Optional[int] = None) -> int:
        """A load producing a value; returns its tag."""
        return self._emit(OP_LOAD, addr, dep_tags, 1, fixed_pc)

    def store(self, addr: int, dep_tags: Sequence[int] = (),
              fixed_pc: Optional[int] = None) -> None:
        self._emit(OP_STORE, addr, dep_tags, 1, fixed_pc)

    def simple(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None,
               dep_tags: Sequence[int] = ()) -> None:
        """A non-producing op (locks, fences, syscalls, hints)."""
        self._emit(op_kind, addr, dep_tags, 1, fixed_pc)

    def tagged(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None) -> int:
        """A non-ALU op that later ops can order themselves after (e.g. a
        lock acquire that a critical section's prefetch must follow)."""
        return self._emit(op_kind, addr, (), 1, fixed_pc)
