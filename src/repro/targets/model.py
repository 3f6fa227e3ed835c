"""The explicit target-model interface.

Sec. 4.1 of the paper: "A design automation tool is said to be
retargetable if ... the target model cannot be an implicit part of the
tool's algorithm, but must be explicit."  :class:`TargetModel` is that
explicit model.  Everything a pipeline stage needs to know about a
processor -- its instruction patterns, its addressing capabilities, its
parallel slots, its machine modes, how a counted loop is realized, and
the bit-true meaning of each instruction -- is answered by this object.

Each opcode's behaviour is written twice.  Its :func:`semantics`
handler is the reference interpreter, and :meth:`TargetModel.bind_step`
binds the same handler at decode time for the fast tier.  Its
:func:`emitter` template writes the jit tier's Python source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.codegen.asm import AsmInstr, CodeSeq
from repro.codegen.grammar import TreeGrammar
from repro.ir.fixedpoint import FixedPointContext
from repro.sim.decode import DecodeFallback
from repro.sim.machine import MachineState, SimulationError


def semantics(*opcodes: str, branch: bool = False):
    """Register a method as the bit-true handler for ``opcodes``.

    Handlers take ``(state, instr)`` (targets with a different driver,
    e.g. the M56 parallel-move commit, may define their own handler
    signature) and return a label name to branch to, or ``None``.
    ``branch=True`` marks opcodes that may redirect control flow --
    the fast simulator uses this to end basic blocks at decode time.

    The registry is collected along the MRO by
    ``TargetModel.__init_subclass__``, so a subclass can override a
    single opcode's handler (or add new ones, as ``Asip`` does) without
    touching the inherited dispatch chain.
    """

    def register(fn):
        fn.__semantics__ = tuple(opcodes)
        fn.__semantics_branch__ = branch
        return fn

    return register


def emitter(*opcodes: str):
    """Register a JIT source template for ``opcodes``.

    An emitter takes ``(instr, ctx)`` -- the decoded instruction view
    and a :class:`repro.sim.jit.BlockEmitter` -- and appends specialized
    Python source lines to the block being generated.  Return ``True``
    when the instruction was emitted; any falsy return declines (the
    JIT inlines a call to the instruction's bound @semantics handler
    instead), and a raised exception abandons the whole block (it runs
    its decoded steps, the same bound handlers).  Emitters must be
    observationally identical to the :func:`semantics` handler for the
    same opcode.
    """

    def register(fn):
        fn.__emits__ = tuple(opcodes)
        return fn

    return register


@dataclass(frozen=True)
class TargetCapabilities:
    """Feature summary used by the optimizers and the processor cube.

    Attributes:
        address_registers: number of AGU address registers usable for
            array walks (0 means no indirect addressing).
        max_post_modify: largest |stride| the AGU applies for free as an
            access side effect.
        direct_addressing: scalars reachable by absolute address without
            an address register.
        memory_banks: names of parallel data memory banks ("x", "y") or
            a single unnamed bank.
        parallel_slots: move slots that can be packed alongside an ALU
            instruction (0 on pure accumulator machines).
        modes: machine mode registers and their legal values, e.g.
            ``{"pm": (0, 15)}``.
        has_repeat: single-instruction hardware repeat (RPTK-style).
        has_hardware_loop: zero-overhead multi-instruction loop (DO-style).
    """

    address_registers: int = 0
    max_post_modify: int = 1
    direct_addressing: bool = True
    memory_banks: Tuple[str, ...] = ()
    parallel_slots: int = 0
    modes: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)
    has_repeat: bool = False
    has_hardware_loop: bool = False


class TargetModel:
    """Base class of all processor models.

    Subclasses must provide:

    - :meth:`grammar` -- the tree grammar (instruction patterns + costs);
    - :meth:`initial_state` -- a fresh :class:`MachineState`;
    - :meth:`execute` -- bit-true semantics of one instruction;
    - :meth:`emit_counted_loop` -- realize a counted-loop marker;
    - ``capabilities`` -- a :class:`TargetCapabilities`.

    Optional hooks (default: no-ops) let targets contribute
    target-specific peepholes without the pipelines knowing about them.
    """

    name: str = "abstract"
    word_bits: int = 16
    capabilities: TargetCapabilities = TargetCapabilities()

    #: opcode -> attribute name of the @semantics handler (per class,
    #: collected along the MRO so subclasses inherit and may override).
    _SEMANTICS_ATTRS: Mapping[str, str] = {}
    #: opcodes whose handler may return a branch-target label.
    _BRANCH_OPCODES: frozenset = frozenset()
    #: opcode -> attribute name of the @emitter JIT template.
    _EMITTER_ATTRS: Mapping[str, str] = {}

    def __init__(self) -> None:
        self.fpc = FixedPointContext(self.word_bits)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        handlers: Dict[str, str] = {}
        branches = set()
        emitters: Dict[str, str] = {}
        for klass in reversed(cls.__mro__):
            for attr, fn in vars(klass).items():
                for opcode in getattr(fn, "__semantics__", ()):
                    handlers[opcode] = attr
                    if fn.__semantics_branch__:
                        branches.add(opcode)
                    else:
                        branches.discard(opcode)
                for opcode in getattr(fn, "__emits__", ()):
                    emitters[opcode] = attr
        cls._SEMANTICS_ATTRS = handlers
        cls._BRANCH_OPCODES = frozenset(branches)
        cls._EMITTER_ATTRS = emitters

    # -- code selection --------------------------------------------------

    def grammar(self) -> TreeGrammar:
        """The target's tree grammar: instruction patterns + costs.

        Built once per model instance by :meth:`_build_grammar` and
        memoized -- rules and emit closures are immutable, and grammar
        construction used to be paid on *every* ``compile()`` call.
        """
        cached = self.__dict__.get("_grammar_cache")
        if cached is None:
            cached = self._build_grammar()
            self.__dict__["_grammar_cache"] = cached
        return cached

    def _build_grammar(self) -> TreeGrammar:
        """Construct the tree grammar (subclass hook; called once)."""
        raise NotImplementedError

    def __getstate__(self) -> dict:
        """Pickle support for the compile farm: the grammar cache holds
        emit closures (and the dispatch/emitter caches hold bound
        methods), none of which pickle -- drop them and rebuild lazily
        on the other side."""
        state = dict(self.__dict__)
        state.pop("_grammar_cache", None)
        state.pop("_dispatch_cache", None)
        state.pop("_emitter_cache", None)
        return state

    # -- simulation -------------------------------------------------------

    def initial_state(self) -> MachineState:
        """A fresh machine state (registers zeroed, memory cleared)."""
        raise NotImplementedError

    def dispatch_table(self) -> Dict[str, Callable]:
        """opcode -> bound @semantics handler (built once per instance)."""
        table = self.__dict__.get("_dispatch_cache")
        if table is None:
            table = {opcode: getattr(self, attr)
                     for opcode, attr in type(self)._SEMANTICS_ATTRS.items()}
            self.__dict__["_dispatch_cache"] = table
        return table

    def emitter_table(self) -> Dict[str, Callable]:
        """opcode -> bound @emitter JIT template (built once per instance)."""
        table = self.__dict__.get("_emitter_cache")
        if table is None:
            table = {opcode: getattr(self, attr)
                     for opcode, attr in type(self)._EMITTER_ATTRS.items()}
            self.__dict__["_emitter_cache"] = table
        return table

    def emit_py(self, instr: AsmInstr, ctx) -> bool:
        """Append specialized Python source for ``instr`` to ``ctx``.

        Tries the @emitter registry; returns ``True`` when source was
        emitted, ``False`` when the JIT should inline a call to the
        instruction's bound step (:meth:`bind_step`) instead.  A raised
        exception makes the JIT degrade the enclosing block to its
        decoded steps.
        """
        emit = self.emitter_table().get(instr.opcode)
        if emit is None:
            return False
        return bool(emit(instr, ctx))

    def emit_pre_py(self, instr: AsmInstr, ctx) -> bool:
        """Emit the per-dispatch fixup (:meth:`pre_dispatch`) inline.

        Returns ``True`` when nothing is needed or the fixup was
        emitted as source; ``False`` makes the JIT call the
        ``pre_dispatch`` closure (flushing its locals around it).
        """
        return self.pre_dispatch(instr) is None

    def execute(self, state: MachineState,
                instr: AsmInstr) -> Optional[str]:
        """Execute one instruction; return a label name to branch to.

        The default driver dispatches on the @semantics registry; a
        target with instruction-level parallelism (M56) overrides this
        to add its commit discipline around the same handlers.
        """
        handler = self.dispatch_table().get(instr.opcode)
        if handler is None:
            raise SimulationError(
                f"{self.name}: unknown opcode {instr.opcode!r}")
        return handler(state, instr)

    def repeat_count(self, state: MachineState, instr: AsmInstr) -> int:
        """How many times the simulator runs ``instr`` (hardware repeat)."""
        return 1

    # -- fast-simulator decode hooks ---------------------------------------

    def decode_instr(self, instr: AsmInstr) -> AsmInstr:
        """The instruction the simulator should decode for ``instr``.

        Identity here; fault-injection wrappers (``FaultySim``) swap
        opcodes at this point so mutations cost nothing at run time.
        """
        return instr

    def is_branch(self, instr: AsmInstr) -> bool:
        """May ``instr`` redirect control flow?  (Ends a basic block.)"""
        return instr.opcode in type(self)._BRANCH_OPCODES

    def static_repeat(self, instr: AsmInstr) -> Optional[int]:
        """If ``instr`` arms a hardware repeat whose count is known at
        decode time, return the iteration count applied to the *next*
        instruction; else ``None``.  Lets the decoder fuse the pair into
        one specialized step with statically-known cycles."""
        return None

    def pre_dispatch(self, instr: AsmInstr) -> Optional[Callable]:
        """Per-dispatch state fixup the reference interpreter performs in
        ``repeat_count`` (e.g. TC25 resets its MAC table cursor).  The
        decoder prepends the returned closure -- once per dispatch, not
        once per repeat iteration -- to the bound step.  ``None`` when
        the opcode needs no fixup (the common case)."""
        return None

    def bind_step(self, instr: AsmInstr) -> Callable:
        """Decode ``instr`` into a ``step(state)`` closure.

        Resolves the instruction's @semantics handler once, at decode
        time, and binds the instruction to it: the fast tier runs the
        same handlers as the reference interpreter, minus the per-step
        dispatch.
        """
        handler = self.dispatch_table().get(instr.opcode)
        if handler is None:
            if type(self).execute is not TargetModel.execute:
                # The target defines semantics in an overridden
                # ``execute`` that the registry knows nothing about
                # (e.g. synthesized netlist targets); the block decoder
                # cannot soundly specialize that, so run the reference
                # interpreter.
                raise DecodeFallback(
                    f"{self.name}: no registered semantics for "
                    f"{instr.opcode!r}")

            # Registry targets: defer the error to run time so an
            # unknown opcode behind a never-taken branch behaves
            # exactly like the reference interpreter.
            def unknown(state: MachineState) -> Optional[str]:
                raise SimulationError(
                    f"{self.name}: unknown opcode {instr.opcode!r}")
            return unknown

        def step(state: MachineState) -> Optional[str]:
            return handler(state, instr)

        return step

    # -- back-end hooks -----------------------------------------------------

    def finalize_loop(self, count: int, body: List, loop_id: int,
                      depth: int) -> Tuple[List, List]:
        """Realize a counted-loop marker: return (prologue, epilogue)
        items placed around the already-emitted body.  ``depth`` is the
        loop nesting depth (for targets with dedicated counters)."""
        raise NotImplementedError

    def make_address_register_load(self, register: str,
                                   address: int) -> "AsmInstr":
        """Instruction loading an AGU register with an absolute address
        (stream preheaders).  Default: a 2-word immediate load."""
        from repro.codegen.asm import Imm, Reg
        return AsmInstr(opcode="LRLK",
                        operands=(Reg(register), Imm(address)),
                        words=2, cycles=2)

    def make_pointer_bump(self, register: str, stride: int) -> "AsmInstr":
        """Instruction advancing an AGU register by ``stride`` (streams
        with several access sites per iteration).  Default: a MAR-shaped
        modify-as-side-effect instruction."""
        from repro.codegen.asm import Mem
        return AsmInstr(opcode="MAR",
                        operands=(Mem(symbol=f"<{register}>",
                                      mode="indirect", areg=register,
                                      post_modify=stride),),
                        words=1, cycles=1,
                        comment=f"advance {register} by {stride}")

    def mode_change_instruction(self, mode: str, value: int) -> AsmInstr:
        """Instruction that sets machine mode ``mode`` to ``value``."""
        raise NotImplementedError

    def mode_reset_values(self) -> Dict[str, int]:
        """Machine modes at program entry (before any mode-change)."""
        return {}

    def peephole(self, code: CodeSeq) -> CodeSeq:
        """Target-specific peephole pass (fusions, idioms); default none."""
        return code

    def loop_optimizations(self, code: CodeSeq,
                           read_only_arrays: Mapping[str, int],
                           promote_accumulators: bool = True,
                           repeat_idioms: bool = True,
                           fuse_shift_idioms: bool = False):
        """Target-specific loop-level optimizations.

        Returns ``(code, pmem_tables)``.  ``read_only_arrays`` maps input
        arrays that the program never writes to their sizes (candidates
        for program-memory coefficient tables).  Default: no change.
        """
        return code, []

    # -- misc ---------------------------------------------------------------

    def describe(self) -> str:
        """One-line human-readable summary of the model's features."""
        caps = self.capabilities
        features = []
        if caps.has_repeat:
            features.append("repeat")
        if caps.has_hardware_loop:
            features.append("hw-loop")
        if caps.parallel_slots:
            features.append(f"{caps.parallel_slots} move slots")
        if caps.memory_banks:
            features.append("banks " + "/".join(caps.memory_banks))
        return (f"{self.name}: {self.word_bits}-bit, "
                f"{caps.address_registers} ARs"
                + (", " + ", ".join(features) if features else ""))
