"""The translation-caching simulator front-end.

:class:`FastMachine` is a drop-in replacement for the reference
:class:`~repro.sim.machine.Machine`: same constructor, same ``run``
contract, bit-identical architectural results and cycle counts.  It
runs the pre-decoded block form from :mod:`repro.sim.decode` -- basic
blocks of the target's ``@semantics`` handlers, bound at decode time --
and falls back to the reference interpreter whenever that is the right
tool:

- a trace was requested (tracing wants per-instruction bookkeeping the
  block runner deliberately avoids);
- the decoder raised :class:`DecodeFallback` (a shape the block
  specializer does not handle, e.g. ``RPTK`` as the last instruction).

The step budget is charged per *iteration* (hardware repeats included)
in whole-block units before the block executes, so a runaway repeat
count trips the guard exactly like the reference interpreter's.

Scratch dispatch registers (TC25's ``mac_idx``/``rptc``) are not
architectural state: the reference interpreter clears them eagerly on
every dispatch, the fast simulator only when an instruction actually
reads them.  Everything a program can observe -- memory, architectural
registers, mode bits, cycle counts, raised errors -- is identical.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.codegen.asm import CodeSeq
from repro.sim.decode import DecodedProgram, decode_cached
from repro.sim.machine import Machine, MachineState, SimulationError
from repro.sim.trace import Trace

if TYPE_CHECKING:   # pragma: no cover
    from repro.targets.model import TargetModel


class FastMachine:
    """Executes finalized code via cached pre-decoded basic blocks."""

    def __init__(self, target: "TargetModel",
                 max_steps: int = 2_000_000):
        self.target = target
        self.max_steps = max_steps

    def run(self, code: CodeSeq,
            state: Optional[MachineState] = None,
            trace: Optional[Trace] = None) -> MachineState:
        """Execute finalized code to completion; returns the state."""
        if state is None:
            state = self.target.initial_state()
        if trace is not None:
            return Machine(self.target, self.max_steps).run(
                code, state, trace)
        decoded = decode_cached(self.target, code)
        if decoded is None:
            return Machine(self.target, self.max_steps).run(code, state)
        return self.run_decoded(decoded, state)

    def run_decoded(self, decoded: DecodedProgram,
                    state: MachineState) -> MachineState:
        """The block-chaining inner loop (all per-run state in locals)."""
        table = decoded.table
        resolve = decoded.labels.get
        budget = self.max_steps
        index = decoded.entry
        while index is not None:
            body, branch, cycles, steps, index = table[index]
            budget -= steps
            if budget < 0:
                raise SimulationError(
                    f"exceeded {self.max_steps} steps; runaway loop?")
            for step in body:
                step(state)
            state.cycles += cycles
            if branch is not None:
                label = branch(state)
                if label is not None:
                    index = resolve(label)
                    if index is None:
                        raise SimulationError(
                            f"branch to unknown label {label!r}")
        return state
