"""The source-generating simulator tier.

:class:`JitMachine` is the third (fastest) member of the simulator
stack, layered jit -> :class:`~repro.sim.fastmachine.FastMachine` ->
reference :class:`~repro.sim.machine.Machine`.  Where the fast
simulator replaces per-instruction dispatch with ``@semantics`` handlers
bound at decode time, this tier *emits specialized Python source* for
each basic block of the decoded program -- operands constant-folded
into literals, registers and machine modes hoisted into function
locals, memory bounds checks inlined against a literal memory size,
and hardware repeats turned into native ``for`` loops -- then
``compile()``s the module once and runs it through a block-chaining
loop identical in contract to the fast simulator's.

The translation is driven by the target's ``@emitter`` registry (see
:func:`repro.targets.model.emitter`), a per-opcode template tier that
sits beside ``@semantics``.  Degradation is graceful at every level:

- an opcode with no (or a declining) template gets an inlined call to
  its bound ``@semantics`` handler (the target's ``bind_step``) -- the
  surrounding block stays specialized;
- a template that raises during emission abandons that block only: the
  block runs its decoded FastMachine steps, the same bound handlers,
  behind the same block-chaining interface;
- a program the decoder cannot specialize (:class:`DecodeFallback`)
  runs the reference interpreter, exactly as the fast simulator does.

Translations are cached at three levels: in-process on the decoded
program itself (one attribute read on the warm path); generated source
persistently in the ``repro.cache`` artifact store, keyed on (format
version, target, code version, decoded instruction views), so warm
processes skip code generation; and the compiled module code in a
bounded in-process memo keyed by the source text, so a module this
process already compiled -- for another decode of the same code, or
read back from the store -- only pays ``exec`` plus closure
re-injection, never ``compile()``.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from types import CodeType
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.codegen.asm import CodeSeq
from repro.sim.decode import DecodedProgram, decode_cached
from repro.sim.fastmachine import FastMachine
from repro.sim.machine import Machine, MachineState, SimulationError
from repro.sim.trace import Trace

logger = logging.getLogger("repro.sim.jit")

if TYPE_CHECKING:   # pragma: no cover
    from repro.targets.model import TargetModel

#: bump when the generated-source layout changes (invalidates the
#: persistent source cache alongside the code-version stamp).
SOURCE_FORMAT = 3


class BlockEmitter:
    """Code-generation context handed to ``@emitter`` templates.

    Tracks a per-block cache of register/mode locals (loaded lazily,
    flushed back to the state dicts at block boundaries and around
    closure calls), allocates temporaries, and provides the guarded
    memory idiom whose failure mode is bit-identical to
    :meth:`MachineState.load`/``store``.
    """

    def __init__(self, memsize: int, labels: Dict[str, int]):
        self.memsize = memsize
        self.labels = labels
        self.lines: List[Tuple[int, str]] = []
        self.prelude: List[str] = []
        self.helpers: Dict[str, str] = {}
        self.uses_regs = False
        self.uses_mem = False
        self.uses_modes = False
        self._indent = 0
        self._tmp = 0
        self._regs: Dict[str, str] = {}
        self._dirty_regs: set = set()
        self._modes: Dict[str, str] = {}
        self._dirty_modes: set = set()
        self._tables: Dict[str, Tuple[str, str]] = {}
        self._branch: Optional[Tuple] = None
        # Every register/mode name ever referenced -- survives
        # invalidate(), so the self-loop re-emission pass knows the
        # full preload set.
        self.all_regs: set = set()
        self.all_modes: set = set()

    # -- low-level emission ------------------------------------------------

    def line(self, source: str) -> None:
        """Append one source line at the current indentation."""
        self.lines.append((self._indent, source))

    def indented(self) -> "BlockEmitter":
        """Context manager: one level deeper (for ``for``/``if`` bodies).
        The emitter is its own manager, so a block costs no object."""
        return self

    def __enter__(self) -> None:
        self._indent += 1

    def __exit__(self, *exc) -> None:
        self._indent -= 1

    def tmp(self) -> str:
        """A fresh temporary local name."""
        name = f"_t{self._tmp}"
        self._tmp += 1
        return name

    def helper(self, name: str, source: str) -> None:
        """Register a module-level helper (deduplicated by name)."""
        self.helpers.setdefault(name, source)

    # -- wrap arithmetic ---------------------------------------------------

    @staticmethod
    def wrap16(expr: str) -> str:
        """Branch-free 16-bit two's-complement wrap of ``expr``.
        Fully parenthesized: safe to embed in larger expressions."""
        return f"(((({expr}) & 0xFFFF) ^ 0x8000) - 0x8000)"

    @staticmethod
    def wrap32(expr: str) -> str:
        """Branch-free 32-bit two's-complement wrap of ``expr``.
        Fully parenthesized: safe to embed in larger expressions."""
        return f"(((({expr}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"

    # -- register / mode locals --------------------------------------------

    def reg(self, name: str) -> str:
        """Local holding register ``name`` (loaded on first use)."""
        local = self._regs.get(name)
        if local is None:
            local = "_r_" + name
            self.uses_regs = True
            self.all_regs.add(name)
            self.line(f"{local} = _rg[{name!r}]")
            self._regs[name] = local
        return local

    def set_reg(self, name: str, expr: str) -> None:
        """Assign register ``name``; flushed at the block boundary."""
        local = self._regs.get(name)
        if local is None:
            local = "_r_" + name
            self.uses_regs = True
            self.all_regs.add(name)
            self._regs[name] = local
        self.line(f"{local} = {expr}")
        self._dirty_regs.add(name)

    def mode(self, name: str, default: int = 0) -> str:
        """Local holding machine mode ``name`` (loaded on first use)."""
        local = self._modes.get(name)
        if local is None:
            local = "_md_" + name
            self.uses_modes = True
            self.all_modes.add(name)
            self.line(f"{local} = _mo.get({name!r}, {default})")
            self._modes[name] = local
        return local

    def set_mode(self, name: str, expr: str) -> None:
        """Assign machine mode ``name``; flushed at the block boundary."""
        local = self._modes.get(name)
        if local is None:
            local = "_md_" + name
            self.uses_modes = True
            self.all_modes.add(name)
            self._modes[name] = local
        self.line(f"{local} = {expr}")
        self._dirty_modes.add(name)

    # -- memory ------------------------------------------------------------

    def load(self, addr) -> str:
        """Guarded data-memory read; ``addr`` is an int literal or the
        name of a local.  Raises the same error as ``MachineState.load``
        when out of range."""
        self.uses_mem = True
        if isinstance(addr, int):
            if 0 <= addr < self.memsize:
                return f"mem[{addr}]"
            return f"_oob({addr})"
        return (f"(mem[{addr}] if 0 <= {addr} < {self.memsize}"
                f" else _oob({addr}))")

    def store(self, addr, value_expr: str) -> None:
        """Guarded data-memory write (no wrapping: callers wrap)."""
        self.uses_mem = True
        if isinstance(addr, int):
            if 0 <= addr < self.memsize:
                self.line(f"mem[{addr}] = {value_expr}")
            else:
                self.line(f"_oob({addr})")
            return
        self.line(f"if 0 <= {addr} < {self.memsize}:")
        with self.indented():
            self.line(f"mem[{addr}] = {value_expr}")
        self.line("else:")
        with self.indented():
            self.line(f"_oob({addr})")

    # -- Mem-operand helpers (direct/indirect addressing) ------------------

    def mem_addr(self, operand):
        """Effective address of a resolved Mem operand: an int literal
        (direct) or a register local (indirect).  Unresolved operands
        abort emission -- the block degrades to its decoded closures,
        which raise the reference error at run time."""
        if operand.mode == "direct":
            return operand.address
        if operand.mode == "indirect":
            return self.reg(operand.areg)
        raise ValueError(f"unresolved memory operand {operand}")

    def post_bump(self, operand, addr) -> None:
        """Apply an indirect operand's post-modification, given the
        just-used effective address (int or local)."""
        if operand.mode == "indirect" and operand.post_modify:
            self.set_reg(operand.areg,
                         f"{addr} + {operand.post_modify}")

    def read_mem(self, operand) -> str:
        """Read a Mem operand with post-modify applied; returns an
        expression (a temp for indirect reads)."""
        addr = self.mem_addr(operand)
        if isinstance(addr, int):
            return self.load(addr)
        if operand.post_modify:
            value = self.tmp()
            self.line(f"{value} = {self.load(addr)}")
            self.post_bump(operand, addr)
            return value
        return self.load(addr)

    def write_mem(self, operand, value_expr: str,
                  wrap: bool = True) -> None:
        """Write a Mem operand (16-bit wrapped by default) with
        post-modify applied."""
        addr = self.mem_addr(operand)
        if wrap:
            value_expr = self.wrap16(value_expr)
        self.store(addr, value_expr)
        self.post_bump(operand, addr)

    # -- program-memory tables ---------------------------------------------

    def pmem_table(self, name: str) -> Tuple[str, str]:
        """(table local, length local) for a program-memory table,
        hoisted to the block prelude with the reference not-loaded
        error."""
        entry = self._tables.get(name)
        if entry is None:
            self.helper("_no_table", (
                "def _no_table(n):\n"
                "    raise SimulationError(\n"
                "        f\"program-memory table {n!r} not loaded\")"))
            table = f"_tb{len(self._tables)}"
            length = f"_tn{len(self._tables)}"
            self.prelude.append(
                f"{table} = state.pmem_tables.get({name!r})")
            self.prelude.append(f"if {table} is None:")
            self.prelude.append(f"    _no_table({name!r})")
            self.prelude.append(f"{length} = len({table})")
            entry = (table, length)
            self._tables[name] = entry
        return entry

    # -- control flow ------------------------------------------------------

    def jump(self, label: str) -> None:
        """Unconditional branch to ``label`` at block end."""
        self._branch = ("always", None, label)

    def jump_if(self, cond_expr: str, label: str) -> None:
        """Branch to ``label`` when ``cond_expr`` is true, else fall
        through to the next block."""
        self._branch = ("cond", cond_expr, label)

    # -- bookkeeping used by the translator --------------------------------

    def flush(self) -> None:
        """Write every dirty register/mode local back to the state."""
        for name in sorted(self._dirty_regs):
            self.line(f"_rg[{name!r}] = {self._regs[name]}")
        self._dirty_regs.clear()
        for name in sorted(self._dirty_modes):
            self.line(f"_mo[{name!r}] = {self._modes[name]}")
        self._dirty_modes.clear()

    def invalidate(self) -> None:
        """Forget cached register/mode locals (after a closure call
        mutated the state dicts behind our back)."""
        self._regs.clear()
        self._dirty_regs.clear()
        self._modes.clear()
        self._dirty_modes.clear()

    def snapshot(self):
        """Checkpoint for the repeat-fusion dry run."""
        return (len(self.lines), len(self.prelude), dict(self._regs),
                set(self._dirty_regs), dict(self._modes),
                set(self._dirty_modes), dict(self._tables), self._tmp,
                self._branch, self._indent)

    def restore(self, snap) -> None:
        """Roll back to a snapshot() checkpoint, undoing any partial
        emission from a template that declined or raised."""
        (nlines, nprelude, regs, dirty_regs, modes, dirty_modes,
         tables, tmp, branch, indent) = snap
        del self.lines[nlines:]
        del self.prelude[nprelude:]
        self._regs = regs
        self._dirty_regs = dirty_regs
        self._modes = modes
        self._dirty_modes = dirty_modes
        self._tables = tables
        self._tmp = tmp
        self._branch = branch
        self._indent = indent


class JitProgram:
    """A translated program: one compiled function per basic block."""

    __slots__ = ("fns", "steps", "entry", "memsize", "source",
                 "loop_fns")

    def __init__(self, fns: List[Callable], steps: Tuple[int, ...],
                 entry: Optional[int], memsize: int, source: str,
                 loop_fns: Optional[List[Optional[Callable]]] = None):
        self.fns = fns
        self.steps = steps
        self.entry = entry
        self.memsize = memsize
        self.source = source
        self.loop_fns = (loop_fns if loop_fns is not None
                         else [None] * len(fns))


class _BlockFallback(Exception):
    """A template raised during emission; degrade this block to its
    already-decoded FastMachine closures."""


# ----------------------------------------------------------------------
# Translation: decoded blocks -> Python source
# ----------------------------------------------------------------------

_MODULE_HEADER = (
    "# generated by repro.sim.jit (format %d) -- do not edit\n"
    "from repro.sim.machine import SimulationError\n"
    "\n"
    "def _oob(a):\n"
    "    raise SimulationError(f\"data address {a} out of range\")\n"
    "\n"
    "def _unknown_label(l):\n"
    "    raise SimulationError(f\"branch to unknown label {l!r}\")\n"
)


def _emit_closure_step(ctx: BlockEmitter, index: int,
                       step_slots: List[int]) -> None:
    """The generic per-opcode fallback: flush locals, call the
    instruction's bound step (``bind_step``, its @semantics handler)
    injected as ``_s<index>``, forget the locals."""
    ctx.flush()
    ctx.line(f"_s{index}(state)")
    ctx.invalidate()
    step_slots.append(index)


def _walk_plan(target: "TargetModel", views, block,
               ctx: BlockEmitter, block_step_slots: List[int],
               block_pre_slots: List[int]) -> Tuple[Optional[int],
                                                    int, int]:
    """Emit one block's plan into ``ctx``.

    Returns ``(branch_slot, inline_steps, closure_steps)``; raises
    :class:`_BlockFallback` (or any template exception) when the block
    must degrade to its decoded closures.
    """
    branch_slot: Optional[int] = None
    inline_steps = 0
    closure_steps = 0
    for item in block.plan:
        kind = item[0]
        if kind == "step":
            index = item[1]
            view = views[index]
            if not target.emit_pre_py(view, ctx):
                ctx.flush()
                ctx.line(f"_p{index}(state)")
                ctx.invalidate()
                block_pre_slots.append(index)
            snap = ctx.snapshot()
            if target.emit_py(view, ctx):
                inline_steps += 1
            else:
                # A declining template may have emitted partial
                # lines; roll them back before the closure call.
                ctx.restore(snap)
                _emit_closure_step(ctx, index, block_step_slots)
                closure_steps += 1
        elif kind == "repeat":
            _armer, index, count = item[1], item[2], item[3]
            view = views[index]
            if not target.emit_pre_py(view, ctx):
                ctx.flush()
                ctx.line(f"_p{index}(state)")
                ctx.invalidate()
                block_pre_slots.append(index)
            snap = ctx.snapshot()
            known = set(ctx._regs)
            known_modes = set(ctx._modes)
            if target.emit_py(view, ctx):
                # Dry run done: preload every register/mode the
                # body touches so no load lands inside the loop
                # (a mid-loop reload would read a stale dict).
                touched = sorted(set(ctx._regs) - known)
                touched_modes = sorted(set(ctx._modes)
                                       - known_modes)
                ctx.restore(snap)
                for name in touched:
                    ctx.reg(name)
                for name in touched_modes:
                    ctx.mode(name)
                ctx.line(f"for _ in range({count}):")
                with ctx.indented():
                    target.emit_py(view, ctx)
                inline_steps += 1
            else:
                ctx.restore(snap)
                ctx.flush()
                ctx.line(f"for _ in range({count}):")
                with ctx.indented():
                    ctx.line(f"_s{index}(state)")
                ctx.invalidate()
                block_step_slots.append(index)
                closure_steps += 1
        else:   # "branch"
            index = item[1]
            view = views[index]
            if not target.emit_pre_py(view, ctx):
                ctx.flush()
                ctx.line(f"_p{index}(state)")
                ctx.invalidate()
                block_pre_slots.append(index)
            snap = ctx.snapshot()
            if target.emit_py(view, ctx):
                inline_steps += 1
                if ctx._branch is None:
                    raise _BlockFallback(
                        f"branch emitter for {view.opcode!r} "
                        "recorded no jump")
            else:
                ctx.restore(snap)
                branch_slot = index
                closure_steps += 1
    return branch_slot, inline_steps, closure_steps


def _assemble(number: int, ctx: BlockEmitter,
              signature: str = "state") -> str:
    """Wrap a context's prelude + lines into one block function."""
    body: List[str] = []
    if ctx.uses_regs:
        body.append("_rg = state.regs")
    if ctx.uses_mem:
        body.append("mem = state.mem")
    if ctx.uses_modes:
        body.append("_mo = state.modes")
    body.extend(ctx.prelude)
    text = [f"def _b{number}({signature}):"]
    for line in body:
        text.append("    " + line)
    for indent, line in ctx.lines:
        text.append("    " * (indent + 1) + line)
    return "\n".join(text)


def _generate(target: "TargetModel", decoded: DecodedProgram,
              memsize: int) -> str:
    """Emit the specialized module source for a decoded program."""
    views = decoded.views
    labels = decoded.labels
    step_slots: List[int] = []
    pre_slots: List[int] = []
    closure_blocks: List[int] = []
    loop_blocks: List[int] = []
    helpers: Dict[str, str] = {}
    counts = {"blocks_emitted": 0, "blocks_closure": 0,
              "inline_steps": 0, "closure_steps": 0,
              "loop_blocks": 0}
    functions: List[str] = []

    for number, block in enumerate(decoded.blocks):
        block_step_slots: List[int] = []
        block_pre_slots: List[int] = []
        ctx = BlockEmitter(memsize, labels)
        try:
            branch_slot, inline_steps, closure_steps = _walk_plan(
                target, views, block, ctx, block_step_slots,
                block_pre_slots)
        except Exception:
            # Template bug or unsupported shape: this block (only)
            # degrades to its decoded FastMachine closures.
            closure_blocks.append(number)
            counts["blocks_closure"] += 1
            continue

        # Self-loop fusion: a fully inlined block whose emitted branch
        # targets itself (``L: body ; BANZ L``) becomes one native
        # ``while`` loop keeping register locals live across
        # iterations.  Budget and cycles stay per-iteration exact.
        if (ctx._branch is not None and branch_slot is None
                and not block_step_slots and not block_pre_slots
                and labels.get(ctx._branch[2]) == number):
            try:
                loop_ctx = BlockEmitter(memsize, labels)
                for name in sorted(ctx.all_regs):
                    loop_ctx.reg(name)
                for name in sorted(ctx.all_modes):
                    loop_ctx.mode(name)
                loop_ctx.line("_it = 0")
                loop_ctx.line("while True:")
                with loop_ctx.indented():
                    loop_ctx.line("_it += 1")
                    _walk_plan(target, views, block, loop_ctx, [], [])
                    mode, cond, _label = loop_ctx._branch
                    if mode == "cond":
                        loop_ctx.line(f"if not ({cond}):")
                        with loop_ctx.indented():
                            loop_ctx.line("break")
                    loop_ctx.line(f"budget -= {block.steps}")
                    loop_ctx.line("if budget < 0:")
                    with loop_ctx.indented():
                        loop_ctx.line("break")
                loop_ctx.flush()
                if block.cycles:
                    loop_ctx.line(
                        f"state.cycles += {block.cycles} * _it")
                loop_ctx.line("if budget < 0:")
                with loop_ctx.indented():
                    loop_ctx.line("raise SimulationError(")
                    loop_ctx.line("    f\"exceeded {max_steps} steps; "
                                  "runaway loop?\")")
                loop_ctx.line(f"return {block.next!r}, budget")
            except Exception:
                pass    # keep the plain single-pass block below
            else:
                functions.append(_assemble(
                    number, loop_ctx, "state, budget, max_steps"))
                helpers.update(loop_ctx.helpers)
                loop_blocks.append(number)
                counts["loop_blocks"] += 1
                counts["blocks_emitted"] += 1
                counts["inline_steps"] += inline_steps
                continue

        # Epilogue: flush locals, charge cycles, resolve control flow.
        ctx.flush()
        if block.cycles:
            ctx.line(f"state.cycles += {block.cycles}")
        next_expr = repr(block.next)
        if branch_slot is not None:
            block_step_slots.append(branch_slot)
            ctx.line(f"_lbl = _s{branch_slot}(state)")
            ctx.line("if _lbl is None:")
            with ctx.indented():
                ctx.line(f"return {next_expr}")
            ctx.line("_nx = _LBL.get(_lbl)")
            ctx.line("if _nx is None:")
            with ctx.indented():
                ctx.line("_unknown_label(_lbl)")
            ctx.line("return _nx")
        elif ctx._branch is not None:
            mode, cond, label = ctx._branch
            if label in labels:
                taken = f"return {labels[label]}"
            else:
                taken = f"_unknown_label({label!r})"
            if mode == "always":
                ctx.line(taken)
            else:
                ctx.line(f"if {cond}:")
                with ctx.indented():
                    ctx.line(taken)
                ctx.line(f"return {next_expr}")
        else:
            ctx.line(f"return {next_expr}")

        functions.append(_assemble(number, ctx))
        helpers.update(ctx.helpers)
        step_slots.extend(block_step_slots)
        pre_slots.extend(block_pre_slots)
        counts["blocks_emitted"] += 1
        counts["inline_steps"] += inline_steps
        counts["closure_steps"] += closure_steps

    parts = [_MODULE_HEADER % SOURCE_FORMAT]
    parts.extend(helpers.values())
    parts.append(f"_LBL = {dict(sorted(labels.items()))!r}")
    parts.append(f"_ENTRY = {decoded.entry!r}")
    parts.append(f"_NBLOCKS = {len(decoded.blocks)}")
    parts.append(f"_MEMSIZE = {memsize}")
    parts.append(f"_STEP_SLOTS = {tuple(sorted(set(step_slots)))!r}")
    parts.append(f"_PRE_SLOTS = {tuple(sorted(set(pre_slots)))!r}")
    parts.append(f"_CLOSURE_BLOCKS = {tuple(closure_blocks)!r}")
    parts.append(f"_LOOP_BLOCKS = {tuple(loop_blocks)!r}")
    parts.append(f"_COUNTS = {counts!r}")
    parts.extend(functions)
    return "\n\n".join(parts) + "\n"


def _closure_block(decoded: DecodedProgram, number: int) -> Callable:
    """A degraded block: run its decoded FastMachine closures behind
    the block-function interface (state -> next block index)."""
    block = decoded.blocks[number]
    body = block.body
    branch = block.branch
    cycles = block.cycles
    next_index = block.next
    resolve = decoded.labels.get

    def run_block(state: MachineState) -> Optional[int]:
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
                return index
        return next_index

    return run_block


def _load(source: str, target: "TargetModel",
          decoded: DecodedProgram, memsize: int) -> JitProgram:
    """Exec generated source and re-inject the run-time pieces the
    source cannot carry: bound closures for fallback slots and decoded
    closure runners for degraded blocks."""
    namespace: Dict[str, object] = {}
    exec(_module_code(source), namespace)
    if namespace.get("_MEMSIZE") != memsize \
            or namespace.get("_NBLOCKS") != len(decoded.blocks):
        raise SimulationError("stale generated source")
    for index in namespace["_STEP_SLOTS"]:
        namespace[f"_s{index}"] = target.bind_step(decoded.views[index])
    for index in namespace["_PRE_SLOTS"]:
        namespace[f"_p{index}"] = target.pre_dispatch(
            decoded.views[index])
    degraded = set(namespace["_CLOSURE_BLOCKS"])
    # Sources generated before self-loop fusion lack _LOOP_BLOCKS; the
    # KeyError lands in _translate's corrupt-fallthrough and the
    # program is regenerated under the current format.
    loops = set(namespace["_LOOP_BLOCKS"])
    fns: List[Callable] = []
    loop_fns: List[Optional[Callable]] = []
    for number in range(len(decoded.blocks)):
        if number in degraded:
            fns.append(_closure_block(decoded, number))
            loop_fns.append(None)
        else:
            fn = namespace[f"_b{number}"]
            fns.append(fn)
            loop_fns.append(fn if number in loops else None)
    for key, value in namespace["_COUNTS"].items():
        _STATS[key] += value
    steps = tuple(block.steps for block in decoded.blocks)
    return JitProgram(fns, steps, decoded.entry, memsize, source,
                      loop_fns)


# ----------------------------------------------------------------------
# Caches: in-process (attached to the decoded program) + persistent
# source store
# ----------------------------------------------------------------------

_FALLBACK = object()

#: bumped by clear_jit_cache() -- attached translations from an older
#: generation are ignored (the decoded programs themselves live in the
#: decode cache, which we cannot enumerate here).
_GENERATION = 0

_STATS = {"hits": 0, "misses": 0, "fallbacks": 0,
          "blocks_emitted": 0, "blocks_closure": 0,
          "inline_steps": 0, "closure_steps": 0, "loop_blocks": 0,
          "source_cache_hits": 0, "source_cache_misses": 0,
          "module_hits": 0, "module_misses": 0}

#: Compiled module code by generated source text, least recently used
#: first.  128 modules cover every distinct program of a Table 1 pass
#: (39) several times over.
_MODULE_LIMIT = 128
_MODULES: OrderedDict[str, CodeType] = OrderedDict()
#: Guards the memo and its two counters.  ``serve`` simulates on
#: executor threads, where a get, insert, reorder and evict sequence
#: would otherwise interleave.
_MODULES_LOCK = threading.Lock()


def _module_code(source: str) -> CodeType:
    """The compiled code of a generated module, through the memo.

    ``compile()`` runs outside the lock; source that fails to compile
    raises before it is stored.
    """
    with _MODULES_LOCK:
        code = _MODULES.get(source)
        if code is not None:
            _MODULES.move_to_end(source)
            _STATS["module_hits"] += 1
            return code
        _STATS["module_misses"] += 1
    code = compile(source, "<repro-jit>", "exec")
    with _MODULES_LOCK:
        _MODULES[source] = code
        while len(_MODULES) > _MODULE_LIMIT:
            _MODULES.popitem(last=False)
    return code


def source_key(target: "TargetModel", decoded: DecodedProgram,
               memsize: int) -> str:
    """Persistent-cache key: format + target + code version + the
    decoded instruction views (so fault-injection wrappers, which swap
    opcodes in ``decode_instr``, never share a translation) + labels."""
    from repro.cache.version import code_version
    hasher = hashlib.sha256()
    hasher.update(f"jit:{SOURCE_FORMAT}:{target.name}:"
                  f"{code_version()}:{memsize}\n".encode())
    for view in decoded.views:
        hasher.update(repr(view).encode())
        hasher.update(b"\n")
    hasher.update(repr(sorted(decoded.labels.items())).encode())
    hasher.update(repr(decoded.entry).encode())
    return hasher.hexdigest()


def _translate(target: "TargetModel",
               decoded: DecodedProgram) -> JitProgram:
    from repro.cache import active_cache
    memsize = len(target.initial_state().mem)
    cache = active_cache()
    key = source_key(target, decoded, memsize) if cache else None
    if cache is not None:
        source = cache.get_source(key)
        if source is not None:
            try:
                program = _load(source, target, decoded, memsize)
                _STATS["source_cache_hits"] += 1
                return program
            except Exception as exc:                   # noqa: BLE001
                # Stale or corrupt: regenerate below, which overwrites
                # the entry.
                logger.warning("cached jit source %s does not load "
                               "(%s: %s); regenerating", key,
                               type(exc).__name__, exc)
    _STATS["source_cache_misses"] += 1
    source = _generate(target, decoded, memsize)
    if cache is not None:
        cache.put_source(key, source)
    return _load(source, target, decoded, memsize)


def translate_cached(target: "TargetModel", code: CodeSeq,
                     decoded: DecodedProgram) -> Optional[JitProgram]:
    """Translated form of ``code`` for ``target``; ``None`` when
    translation failed wholesale (the verdict is cached and the caller
    runs the FastMachine block loop instead).

    The translation rides on ``decoded.jit_entry`` -- the decoded
    program is already cached per (target, code) by the decode cache,
    so this keeps the warm path to one attribute read instead of two
    weak-dictionary probes.
    """
    entry = decoded.jit_entry
    if entry is not None and entry[0] == _GENERATION:
        _STATS["hits"] += 1
        cached = entry[1]
        return None if cached is _FALLBACK else cached
    _STATS["misses"] += 1
    try:
        program = _translate(target, decoded)
    except Exception:
        _STATS["fallbacks"] += 1
        decoded.jit_entry = (_GENERATION, _FALLBACK)
        return None
    decoded.jit_entry = (_GENERATION, program)
    return program


def clear_jit_cache() -> None:
    """Drop every translated program and compiled module and reset the
    stat counters."""
    global _GENERATION
    _GENERATION += 1
    with _MODULES_LOCK:
        _MODULES.clear()
        for key in _STATS:
            _STATS[key] = 0


def jit_cache_stats() -> Dict[str, int]:
    """Copy of the translation/cache counters (diagnostics)."""
    return dict(_STATS)


# ----------------------------------------------------------------------
# The machine front-end
# ----------------------------------------------------------------------

class JitMachine:
    """Executes finalized code via generated per-block functions.

    Drop-in replacement for :class:`FastMachine` (same constructor,
    same ``run`` contract, bit-identical results and cycle counts);
    degrades to the fast simulator's closure blocks, and through it to
    the reference interpreter, whenever specialization is unsound.
    """

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
        program = translate_cached(self.target, code, decoded)
        if program is None or len(state.mem) != program.memsize:
            return FastMachine(self.target, self.max_steps).run_decoded(
                decoded, state)
        return self.run_translated(program, state)

    def run_translated(self, program: JitProgram,
                       state: MachineState) -> MachineState:
        """The block-chaining inner loop over generated functions."""
        fns = program.fns
        loop_fns = program.loop_fns
        steps = program.steps
        budget = self.max_steps
        max_steps = self.max_steps
        index = program.entry
        while index is not None:
            budget -= steps[index]
            if budget < 0:
                raise SimulationError(
                    f"exceeded {max_steps} steps; runaway loop?")
            lf = loop_fns[index]
            if lf is None:
                index = fns[index](state)
            else:
                # Self-loop block: the generated ``while`` covers every
                # iteration after the first (the runner already charged
                # iteration one above).
                index, budget = lf(state, budget, max_steps)
        return state
