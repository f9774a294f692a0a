"""Assembly of semantic micro-op streams into full instruction traces.

Workload generators describe *what* a process does (loads/stores to the
database regions, ALU work, locking, commits) as a stream of
:class:`SemanticOp` records with symbolic dependence *tags*.  The assembler
then merges that stream with the instruction-fetch behaviour from a
:class:`~repro.trace.codewalk.CodeWalker` -- assigning PCs, inserting the
branch instructions that terminate basic blocks, and resolving dependence
tags into backward dynamic distances.

Separating semantics from assembly keeps dependence bookkeeping correct:
inserted branches shift dynamic distances, which the assembler accounts for
because tags are resolved only at final emission.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.trace.codewalk import CodeWalker
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


class SemanticOp:
    """One micro-op emitted by a workload generator, pre-assembly."""

    __slots__ = ("op", "addr", "dep_tags", "latency", "tag", "fixed_pc")

    def __init__(self, op: int, addr: int = 0,
                 dep_tags: Sequence[int] = (), latency: int = 1,
                 tag: Optional[int] = None, fixed_pc: Optional[int] = None):
        self.op = op
        self.addr = addr
        self.dep_tags = dep_tags
        self.latency = latency
        self.tag = tag
        self.fixed_pc = fixed_pc


class TagAllocator:
    """Monotonic producer tags used to express dependences symbolically."""

    def __init__(self) -> None:
        self._next = 0

    def new(self) -> int:
        tag = self._next
        self._next += 1
        return tag


def assemble(semantics: Iterator[SemanticOp], walker: CodeWalker,
             rng: random.Random,
             block_instrs: Tuple[int, int] = (4, 7)) -> Iterator[Instruction]:
    """Merge a semantic stream with the code walk into Instructions.

    Every ``block_instrs``-sized run of sequential PCs is terminated by a
    branch instruction taken from the walker, reproducing the basic-block
    structure (and therefore the branch frequency and instruction-fetch
    streaming behaviour) of the workload.
    """
    lo, hi = block_instrs
    # Tag -> dynamic index of its producer.  Eviction drops the oldest
    # insertions first (dicts keep insertion order).
    tag_pos: Dict[int, int] = {}
    evict_at = 4 * MAX_DEP_DISTANCE
    index = 0
    # Block boundaries are deterministic in the starting PC so branch
    # sites are stable static locations (predictors can learn them).
    remaining = walker.block_len_at(walker.pc, lo, hi)

    for sop in semantics:
        pc = sop.fixed_pc
        if pc is None:
            if remaining <= 0:
                desc = walker.end_block()
                yield Instruction(OP_BRANCH, desc.pc, 0, (), 1, desc.taken,
                                  desc.target, desc.kind)
                index += 1
                remaining = walker.block_len_at(walker.pc, lo, hi)
            pc = walker.block(1)[0]
            remaining -= 1

        deps = ()
        if sop.dep_tags:
            found = []
            for tag in sop.dep_tags:
                pos = tag_pos.get(tag)
                if pos is not None:
                    distance = index - pos
                    if 0 < distance <= MAX_DEP_DISTANCE:
                        found.append(distance)
            if found:
                deps = tuple(found)
        tag = sop.tag
        if tag is not None:
            tag_pos[tag] = index
            if len(tag_pos) > evict_at:
                for old in list(islice(tag_pos, MAX_DEP_DISTANCE)):
                    del tag_pos[old]
        yield Instruction(sop.op, pc, sop.addr, deps, sop.latency)
        index += 1


class SemanticHelpers:
    """Mixin with emit helpers shared by the workload generators."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._tags = TagAllocator()

    def alu(self, dep_tags: Sequence[int] = (), fp: bool = False,
            fixed_pc: Optional[int] = None) -> Tuple[SemanticOp, int]:
        """An ALU op producing a new value; returns (op, result tag)."""
        tag = self._tags.new()
        op = SemanticOp(OP_FP if fp else OP_INT, 0, dep_tags,
                        3 if fp else 1, tag, fixed_pc)
        return op, tag

    def load(self, addr: int, dep_tags: Sequence[int] = (),
             fixed_pc: Optional[int] = None) -> Tuple[SemanticOp, int]:
        """A load producing a value; returns (op, result tag)."""
        tag = self._tags.new()
        return SemanticOp(OP_LOAD, addr, dep_tags, 1, tag, fixed_pc), tag

    def store(self, addr: int, dep_tags: Sequence[int] = (),
              fixed_pc: Optional[int] = None) -> SemanticOp:
        return SemanticOp(OP_STORE, addr, dep_tags, 1, None, fixed_pc)

    def simple(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None,
               dep_tags: Sequence[int] = ()) -> SemanticOp:
        """A non-producing op (locks, fences, syscalls, hints)."""
        return SemanticOp(op_kind, addr=addr, dep_tags=dep_tags,
                          fixed_pc=fixed_pc)

    def tagged(self, op_kind: int, addr: int = 0,
               fixed_pc: Optional[int] = None
               ) -> Tuple[SemanticOp, int]:
        """A non-ALU op that later ops can order themselves after (e.g. a
        lock acquire that a critical section's prefetch must follow)."""
        tag = self._tags.new()
        op = SemanticOp(op_kind, addr=addr, tag=tag, fixed_pc=fixed_pc)
        return op, tag
