"""Run compiled programs against symbol-level environments.

Bridges the gap between the IR world (environments mapping symbol names
to values) and the machine world (flat data memory): writes inputs into
memory according to the compiled memory map, loads program-memory
coefficient tables, executes, and reads every program symbol back.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.codegen.asm import item_identity
from repro.codegen.compiled import CompiledProgram
from repro.ir.fixedpoint import FixedPointContext
from repro.sim.fastmachine import FastMachine
from repro.sim.jit import JitMachine
from repro.sim.machine import Machine, MachineState, SimulationError
from repro.sim.trace import Trace

#: simulator tiers selectable via the ``sim=`` keyword, fastest first.
SIM_TIERS = {"jit": JitMachine, "fast": FastMachine,
             "reference": Machine}


def _resolve_sim(sim: str):
    """Map the tier selector to a machine class."""
    try:
        return SIM_TIERS[sim]
    except KeyError:
        raise ValueError(
            f"unknown simulator tier {sim!r}; "
            f"choose from {sorted(SIM_TIERS)}") from None


def load_environment(compiled: CompiledProgram,
                     env: Mapping[str, object],
                     state: MachineState) -> None:
    """Write an environment into machine data memory (values wrapped to
    the target word width) and load program-memory tables."""
    fpc = compiled.target.fpc
    for symbol, base in compiled.memory_map.addresses.items():
        if symbol not in env:
            continue
        value = env[symbol]
        size = compiled.memory_map.sizes[symbol]
        if isinstance(value, list):
            if len(value) != size:
                raise ValueError(
                    f"{symbol!r}: got {len(value)} values, need {size}")
            for offset, element in enumerate(value):
                state.store(base + offset, fpc.wrap(int(element)))
        else:
            if size != 1:
                raise ValueError(f"{symbol!r} is an array; pass a list")
            state.store(base, fpc.wrap(int(value)))
    for table in compiled.pmem_tables:
        if table.symbol not in env:
            raise ValueError(
                f"program-memory table {table.label} needs input "
                f"{table.symbol!r}")
        values = [fpc.wrap(int(v)) for v in env[table.symbol]]
        state.pmem_tables[table.label] = table.build(values)


def read_environment(compiled: CompiledProgram,
                     state: MachineState) -> Dict[str, object]:
    """Read every mapped program symbol back out of data memory."""
    result: Dict[str, object] = {}
    for symbol, base in compiled.memory_map.addresses.items():
        size = compiled.memory_map.sizes[symbol]
        if symbol in compiled.symbols and compiled.symbols[symbol].is_array:
            result[symbol] = [state.load(base + k) for k in range(size)]
        else:
            result[symbol] = state.load(base)
    return result


def run_compiled(compiled: CompiledProgram,
                 env: Mapping[str, object],
                 state: Optional[MachineState] = None,
                 trace: Optional[Trace] = None,
                 max_steps: int = 2_000_000,
                 sim: str = "jit"
                 ) -> Tuple[Dict[str, object], MachineState]:
    """Execute one invocation; returns (environment after, state).

    ``sim`` selects the simulator tier: ``"jit"`` (the source-generating
    default -- bit-identical environments and cycle counts), ``"fast"``
    (pre-decoded blocks of bound @semantics handlers), or
    ``"reference"``.  Requesting a trace always uses the reference
    interpreter.
    """
    if state is None:
        state = compiled.target.initial_state()
    load_environment(compiled, env, state)
    machine_cls = _resolve_sim(sim)
    if machine_cls is Machine or trace is not None:
        Machine(compiled.target, max_steps=max_steps).run(
            compiled.code, state, trace)
    else:
        machine_cls(compiled.target, max_steps=max_steps).run(
            compiled.code, state)
    return read_environment(compiled, state), state


def run_many(compiled: CompiledProgram,
             envs: Iterable[Mapping[str, object]],
             max_steps: int = 2_000_000,
             target=None,
             sim: str = "jit"
             ) -> List[Tuple[Dict[str, object], MachineState]]:
    """Execute one compiled program over a batch of environments.

    Decodes (or reuses the cached decoded form of) the program once and
    runs every environment against it on a fresh machine state; this is
    the bulk-validation entry point for the self-test signature corpus,
    conformance checking, Table 1 evaluation and DSPStone reference
    sweeps.

    ``target`` substitutes a different execution model for the one the
    program was compiled against -- a :class:`FaultySim` wrapper or any
    other compatible :class:`TargetModel`.  The substitute is a distinct
    decode-cache key, so faulty runs never pollute clean cached decodes.

    ``sim`` selects the tier exactly as in :func:`run_compiled`.
    """
    use_target = target if target is not None else compiled.target
    machine = _resolve_sim(sim)(use_target, max_steps=max_steps)
    results: List[Tuple[Dict[str, object], MachineState]] = []
    for env in envs:
        state = use_target.initial_state()
        load_environment(compiled, env, state)
        machine.run(compiled.code, state)
        results.append((read_environment(compiled, state), state))
    return results


def cycles_of(compiled: CompiledProgram,
              env: Mapping[str, object],
              sim: str = "jit") -> int:
    """Cycle count of one invocation (fresh machine)."""
    _, state = run_compiled(compiled, env, sim=sim)
    return state.cycles


def simulation_identity(compiled: CompiledProgram, sim: str) -> Tuple:
    """Everything the ``sim`` tier reads from ``compiled``, as a
    hashable tuple.

    Programs with equal identities simulate identically on every input:
    the identity covers each code item (its
    :func:`~repro.codegen.asm.item_identity` without the comment),
    the memory map's addresses and sizes, the program-memory tables,
    which symbols are arrays, the target and the tier.  It leaves out
    what no simulator reads: the program and compiler names, comments
    and stats.  Values compare by ``==``; nothing persists the tuple,
    so it is a dictionary key of one process only.
    """
    memory_map = compiled.memory_map
    return (
        compiled.target.name, sim,
        tuple(item_identity(item) for item in compiled.code),
        tuple(memory_map.addresses.items()),
        tuple(memory_map.sizes.items()),
        tuple(compiled.pmem_tables),
        tuple(sorted(name for name, symbol in compiled.symbols.items()
                     if symbol.is_array)),
    )
