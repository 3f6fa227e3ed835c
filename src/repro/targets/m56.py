"""M56: a Motorola DSP56000-flavoured dual-bank DSP.

The second target of the reproduction, chosen because it exercises the
three Sec. 3.3 optimizations the TC25 cannot:

- **parallel moves / compaction**: an ALU instruction carries up to two
  move slots, one on the X bus and one on the Y bus ("the Motorola
  MC 56000 allows parallel move operations ... Not taking advantage of
  this parallelism means loosing a factor of two");
- **memory-bank assignment** (Sudarsanam): data memory splits into X
  and Y banks; a multiply wants one operand from each;
- **offset assignment** (Bartley/Liao): scalars are reached through
  AGU pointers r0 (X) / r4 (Y) with free unit post-increment, or by a
  2-word absolute move -- the data layout decides which.

Machine model (documented deviations from the real 56000 in DESIGN.md):
16-bit data words with a 32-bit integer accumulator ``a`` (the real
56k is 24/56-bit and fractional); input registers x0 and y0 (x1/y1
omitted); address registers r0/r4 for scalar walks, r1-r3/r5-r7 for
loop array streams; ``DO``-style zero-overhead hardware loops.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.codegen.addressing import AddressAssigner, transform_instr_mems
from repro.codegen.asm import (
    AsmInstr, CodeSeq, Imm, Label, LabelRef, Mem, Reg,
)
from repro.codegen.compaction import SlotModel, compact_code
from repro.codegen.compiled import MemoryMap
from repro.codegen.grammar import (
    Cost, EmitContext, Nt, Pat, Rule, Term, TreeGrammar,
)
from repro.codegen.membank import (
    annealed_assignment, greedy_assignment, normalize_pairs,
    single_bank_assignment,
)
from repro.codegen.offset import (
    assignment_cost, general_offset_assignment, liao_order, naive_order,
)
from repro.codegen.structure import LoopNode, Run, flatten, iter_loops, parse
from repro.ir.ops import OpKind
from repro.ir.trees import Tree
from repro.sim.machine import MachineState, SimulationError
from repro.targets.model import (
    TargetCapabilities, TargetModel, emitter, semantics,
)

_MASK32 = (1 << 32) - 1
_MASK16 = (1 << 16) - 1

X_BANK_BASE = 0
Y_BANK_BASE = 512
BANK_SIZE = 512


def _wrap32(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


def _wrap16(value: int) -> int:
    value &= _MASK16
    return value - (1 << 16) if value >= (1 << 15) else value


def _ins(opcode: str, *operands, words: int = 1, cycles: int = 1,
         comment: str = "") -> AsmInstr:
    return AsmInstr(opcode=opcode, operands=tuple(operands), words=words,
                    cycles=cycles, comment=comment)


def _is_zero(tree: Tree) -> bool:
    return tree.value == 0


class M56(TargetModel):
    """Motorola 56000-flavoured dual-bank DSP (see module docstring)."""

    name = "m56"
    word_bits = 16
    capabilities = TargetCapabilities(
        address_registers=8,
        max_post_modify=2,
        direct_addressing=False,      # absolute moves cost an extra word
        memory_banks=("x", "y"),
        parallel_slots=2,
        modes={},
        has_repeat=False,
        has_hardware_loop=True,
    )

    # Streams prefer r1-r3 / r5-r7; r0 / r4 are taken last so they
    # usually remain free to serve the scalar pointer walks (when a
    # loop needs all eight, scalar accesses in that program fall back
    # to absolute moves).
    SCALAR_POINTER_CANDIDATES = {"x": ["r0", "r1", "r2", "r3"],
                                 "y": ["r4", "r5", "r6", "r7"]}
    STREAM_ADDRESS_REGISTERS = ["r1", "r2", "r3", "r5", "r6", "r7",
                                "r0", "r4"]
    LOOP_ADDRESS_REGISTERS: List[str] = []     # hardware loops need none
    MOVE_OPCODES = frozenset({"MOVE", "MOVEI", "LUA"})
    ALU_OPCODES = frozenset({
        "ADD", "SUB", "MPY", "MAC", "MACN", "MPYF", "MACF", "MACNF",
        "NEG", "ABS", "ASL", "ASR", "AND", "OR", "EOR", "NOT", "CLR",
        "SATA",
    })

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------

    def _build_grammar(self) -> TreeGrammar:
        rules: List[Rule] = []
        add = rules.append

        add(Rule("mem", Term("ref"), Cost(0, 0),
                 emit=lambda ctx, args: args[0], name="mem-ref"))

        def load(register, nonterm):
            def emit(ctx, args):
                ctx.emit(_ins("MOVE", Reg(register), args[0]))
                return nonterm
            return emit

        for register, nonterm in (("x0", "xr"), ("y0", "yr"),
                                  ("a", "acc")):
            add(Rule(nonterm, Nt("mem"), Cost(1, 1),
                     emit=load(register, nonterm),
                     name=f"MOVE {register},mem",
                     clobbers=frozenset({register})))

            def load_imm(reg=register, nt=nonterm):
                def emit(ctx, args):
                    ctx.emit(_ins("MOVEI", Reg(reg), Imm(args[0]),
                                  words=2, cycles=2))
                    return nt
                return emit

            add(Rule(nonterm, Term("const"), Cost(2, 2),
                     emit=load_imm(),
                     name=f"MOVEI {register},#",
                     clobbers=frozenset({register})))

        def emit_clr(ctx, args):
            ctx.emit(_ins("CLR", Reg("a")))
            return "acc"

        add(Rule("acc", Term("const", _is_zero, "#0"), Cost(1, 1),
                 emit=emit_clr, name="CLR", clobbers=frozenset({"a"})))

        def alu2(opcode, source):
            def emit(ctx, args):
                ctx.emit(_ins(opcode, Reg(source), Reg("a")))
                return "acc"
            return emit

        for op_name, opcode in (("add", "ADD"), ("sub", "SUB"),
                                ("and", "AND"), ("or", "OR"),
                                ("xor", "EOR")):
            for nonterm, source in (("xr", "x0"), ("yr", "y0")):
                add(Rule("acc", Pat(op_name, (Nt("acc"), Nt(nonterm))),
                         Cost(1, 1), emit=alu2(opcode, source),
                         name=f"{opcode} {source},a",
                         clobbers=frozenset({"a"})))

        def emit_mpy(ctx, args):
            ctx.emit(_ins("MPY", Reg("x0"), Reg("y0"), Reg("a")))
            return "acc"

        def emit_mac(ctx, args):
            ctx.emit(_ins("MAC", Reg("x0"), Reg("y0"), Reg("a")))
            return "acc"

        def emit_macn(ctx, args):
            ctx.emit(_ins("MACN", Reg("x0"), Reg("y0"), Reg("a")))
            return "acc"

        add(Rule("acc", Pat("mul", (Nt("xr"), Nt("yr"))), Cost(1, 1),
                 emit=emit_mpy, name="MPY", clobbers=frozenset({"a"})))
        add(Rule("acc", Pat("mul", (Nt("yr"), Nt("xr"))), Cost(1, 1),
                 emit=lambda ctx, args: emit_mpy(ctx, args),
                 name="MPYr", clobbers=frozenset({"a"})))
        add(Rule("acc", Pat("add", (Nt("acc"),
                                    Pat("mul", (Nt("xr"), Nt("yr"))))),
                 Cost(1, 1), emit=emit_mac, name="MAC",
                 clobbers=frozenset({"a"})))
        add(Rule("acc", Pat("sub", (Nt("acc"),
                                    Pat("mul", (Nt("xr"), Nt("yr"))))),
                 Cost(1, 1), emit=emit_macn, name="MACN",
                 clobbers=frozenset({"a"})))

        frac = Pat("shr", (Pat("mul", (Nt("xr"), Nt("yr"))),
                           Term("const", lambda t: t.value == 15,
                                "#15")))
        add(Rule("acc", frac, Cost(1, 1),
                 emit=lambda ctx, args: (ctx.emit(
                     _ins("MPYF", Reg("x0"), Reg("y0"), Reg("a"))),
                     "acc")[1],
                 name="MPYF", clobbers=frozenset({"a"})))
        add(Rule("acc", Pat("add", (Nt("acc"), frac)), Cost(1, 1),
                 emit=lambda ctx, args: (ctx.emit(
                     _ins("MACF", Reg("x0"), Reg("y0"), Reg("a"))),
                     "acc")[1],
                 name="MACF", clobbers=frozenset({"a"})))
        add(Rule("acc", Pat("sub", (Nt("acc"), frac)), Cost(1, 1),
                 emit=lambda ctx, args: (ctx.emit(
                     _ins("MACNF", Reg("x0"), Reg("y0"), Reg("a"))),
                     "acc")[1],
                 name="MACNF", clobbers=frozenset({"a"})))

        def alu1(opcode):
            def emit(ctx, args):
                ctx.emit(_ins(opcode, Reg("a")))
                return "acc"
            return emit

        for op_name, opcode in (("neg", "NEG"), ("abs", "ABS"),
                                ("not", "NOT"), ("sat", "SATA")):
            add(Rule("acc", Pat(op_name, (Nt("acc"),)), Cost(1, 1),
                     emit=alu1(opcode), name=opcode,
                     clobbers=frozenset({"a"})))

        def shifter(opcode, amount):
            def emit(ctx, args):
                for _ in range(amount):
                    ctx.emit(_ins(opcode, Reg("a")))
                return "acc"
            return emit

        for amount in range(1, 16):
            pred = (lambda k: lambda t: t.value == k)(amount)
            add(Rule("acc", Pat("shl", (Nt("acc"),
                                        Term("const", pred,
                                             f"#{amount}"))),
                     Cost(amount, amount), emit=shifter("ASL", amount),
                     name=f"ASLx{amount}", clobbers=frozenset({"a"})))
            add(Rule("acc", Pat("shr", (Nt("acc"),
                                        Term("const", pred,
                                             f"#{amount}"))),
                     Cost(amount, amount), emit=shifter("ASR", amount),
                     name=f"ASRx{amount}", clobbers=frozenset({"a"})))

        def store_from(register):
            def emit(ctx, args):
                ctx.emit(_ins("MOVE", args[0], Reg(register)))
                return None
            return emit

        add(Rule("stmt", Pat("store", (Term("ref"), Nt("acc"))),
                 Cost(1, 1), emit=store_from("a"), name="MOVE mem,a"))
        add(Rule("stmt", Pat("store", (Term("ref"), Nt("xr"))),
                 Cost(1, 1), emit=store_from("x0"), name="MOVE mem,x0"))

        return TreeGrammar("m56", rules, nt_resources={
            "acc": "a", "xr": "x0", "yr": "y0", "mem": None,
        })

    # ------------------------------------------------------------------
    # Address assignment hook (banks + offset assignment + repricing)
    # ------------------------------------------------------------------

    def assign_addresses(self, code: CodeSeq, program, extra_scalars,
                         options) -> Tuple[CodeSeq, MemoryMap]:
        """Banked address assignment: bank assignment, offset
        assignment (SOA/GOA), stream registers, pointer walks and
        absolute-move repricing (pipeline addressing hook)."""
        banks = self._assign_banks(code, program, extra_scalars,
                                   strategy=options.bank_assignment)
        scalar_orders = self._offset_orders(
            code, program, banks, strategy=options.offset_assignment)
        memory_map = self._build_banked_map(program, extra_scalars,
                                            banks, scalar_orders)
        code = self._tag_banks(code, banks)
        code = AddressAssigner(self, memory_map).run(code)
        pointers = self._free_scalar_pointers(code)
        code = self._scalar_pointer_walks(
            code, memory_map, banks, pointers,
            enabled=options.offset_assignment != "absolute")
        code = self._reprice_absolute(code)
        return code, memory_map

    # -- bank assignment ---------------------------------------------------

    def _symbols_of(self, code: CodeSeq, program, extra_scalars
                    ) -> List[str]:
        names = list(program.symbols)
        names.extend(name for name in extra_scalars
                     if name not in program.symbols)
        return names

    def _multiply_pairs(self, code: CodeSeq) -> List[Tuple[str, str]]:
        """Operand pairs that want opposite banks: the memory symbols
        feeding x0 and y0 of each multiply.

        Approximation of Sudarsanam's constraint collection: walk the
        linear code; remember which symbol each of x0/y0 last loaded;
        each MPY/MAC/MACN contributes the current (x0-symbol,
        y0-symbol) pair.
        """
        pairs: List[Tuple[str, str]] = []
        last: Dict[str, Optional[str]] = {"x0": None, "y0": None}
        for item in code:
            if not isinstance(item, AsmInstr):
                last = {"x0": None, "y0": None}
                continue
            if item.opcode == "MOVE" and len(item.operands) == 2 \
                    and isinstance(item.operands[0], Reg) \
                    and item.operands[0].name in last \
                    and isinstance(item.operands[1], Mem):
                last[item.operands[0].name] = item.operands[1].symbol
            elif item.opcode in ("MPY", "MAC", "MACN"):
                if last["x0"] and last["y0"]:
                    pairs.append((last["x0"], last["y0"]))
        return pairs

    def _assign_banks(self, code: CodeSeq, program, extra_scalars,
                      strategy: str) -> Dict[str, str]:
        symbols = self._symbols_of(code, program, extra_scalars)
        weights = normalize_pairs(self._multiply_pairs(code))
        if strategy == "single":
            assignment = single_bank_assignment(weights, symbols)
        elif strategy == "greedy":
            assignment = greedy_assignment(weights, symbols)
        elif strategy == "anneal":
            assignment = annealed_assignment(weights, symbols, seed=0)
        else:
            from repro.codegen.pipeline import CompileError
            raise CompileError(
                f"unknown bank_assignment strategy {strategy!r}; "
                "choose from anneal, greedy, single")
        for name in symbols:
            assignment.setdefault(name, "x")
        return assignment

    # -- offset assignment ---------------------------------------------------

    def _scalar_sequences(self, code: CodeSeq, program,
                          banks: Dict[str, str]
                          ) -> Dict[str, List[str]]:
        """Per-bank scalar access sequences, in instruction order."""
        arrays = {name for name, sym in program.symbols.items()
                  if sym.is_array}
        sequences: Dict[str, List[str]] = {"x": [], "y": []}
        for item in code:
            if not isinstance(item, AsmInstr):
                continue
            for operand in item.memory_operands():
                if operand.mode != "symbolic" or operand.symbol in arrays:
                    continue
                if operand.index is not None and operand.index.coeff != 0:
                    continue
                bank = banks.get(operand.symbol, "x")
                sequences[bank].append(operand.symbol)
        return sequences

    def _offset_orders(self, code: CodeSeq, program,
                       banks: Dict[str, str],
                       strategy: str) -> Dict[str, List[str]]:
        sequences = self._scalar_sequences(code, program, banks)
        if strategy == "goa":
            # GOA with one register per bank degenerates to SOA; the
            # point of exposing it is the layout: partitions are laid
            # out contiguously so a second pointer *could* serve the
            # second partition.  With our single scalar pointer per
            # bank the concatenated layout is what matters.
            return {bank: general_offset_assignment(sequence, 2).layout
                    for bank, sequence in sequences.items()}
        solvers = {"liao": liao_order, "naive": naive_order,
                   "absolute": naive_order}
        solver = solvers.get(strategy)
        if solver is None:
            from repro.codegen.pipeline import CompileError
            raise CompileError(
                f"unknown offset_assignment strategy {strategy!r}; "
                f"choose from goa, {', '.join(sorted(solvers))}")
        return {bank: solver(sequence)
                for bank, sequence in sequences.items()}

    def _build_banked_map(self, program, extra_scalars,
                          banks: Dict[str, str],
                          scalar_orders: Dict[str, List[str]]
                          ) -> MemoryMap:
        memory_map = MemoryMap()
        bases = {"x": X_BANK_BASE, "y": Y_BANK_BASE}
        cursors = dict(bases)
        for bank in ("x", "y"):
            for name in scalar_orders.get(bank, []):
                if name not in memory_map.addresses:
                    memory_map.addresses[name] = cursors[bank]
                    memory_map.sizes[name] = 1
                    cursors[bank] += 1
        # Remaining scalars (never accessed or not in the SOA sequence),
        # then arrays.
        names = list(program.symbols)
        names.extend(name for name in extra_scalars
                     if name not in program.symbols)
        for name in names:
            if name in memory_map.addresses:
                continue
            symbol = program.symbols.get(name)
            size = symbol.size if symbol is not None and symbol.is_array \
                else 1
            bank = banks.get(name, "x")
            memory_map.addresses[name] = cursors[bank]
            memory_map.sizes[name] = size
            cursors[bank] += size
        for bank, cursor in cursors.items():
            if cursor - bases[bank] > BANK_SIZE:
                raise ValueError(f"bank {bank} overflows "
                                 f"({cursor - bases[bank]} words)")
        memory_map.total = max(cursors.values())
        return memory_map

    def _tag_banks(self, code: CodeSeq, banks: Dict[str, str]) -> CodeSeq:
        def tag(operand: Mem) -> Mem:
            if operand.bank is None and operand.mode == "symbolic":
                return replace(operand,
                               bank=banks.get(operand.symbol, "x"))
            return operand

        items = [transform_instr_mems(item, tag)
                 if isinstance(item, AsmInstr) else item
                 for item in code]
        return CodeSeq(items)

    def _free_scalar_pointers(self, code: CodeSeq) -> Dict[str, str]:
        """Pick, per bank, a pointer register the stream allocator left
        untouched (absent entry: no pointer free, stay absolute)."""
        used: Set[str] = set()
        for item in code:
            if not isinstance(item, AsmInstr):
                continue
            for operand in item.operands:
                if isinstance(operand, Reg) and operand.name.startswith("r"):
                    used.add(operand.name)
                if isinstance(operand, Mem) and operand.areg:
                    used.add(operand.areg)
        pointers: Dict[str, str] = {}
        for bank, candidates in self.SCALAR_POINTER_CANDIDATES.items():
            for register in candidates:
                if register not in used:
                    pointers[bank] = register
                    break
        return pointers

    def _scalar_pointer_walks(self, code: CodeSeq, memory_map: MemoryMap,
                              banks: Dict[str, str],
                              pointers: Dict[str, str],
                              enabled: bool) -> CodeSeq:
        """Rewrite direct scalar accesses into r0/r4 pointer walks where
        the (SOA-optimized) layout makes consecutive accesses adjacent.

        Per straight-line run and per bank: the first access loads the
        pointer (LUA, 2 words); subsequent accesses within +/-1 of the
        previous one use free post-modification, others reload the
        pointer.  When ``enabled`` is false every access stays an
        absolute move (the ablation baseline).
        """
        if not enabled:
            return code
        items = list(code.items)

        # Pass 1: per straight-line run and per bank, the ordered list
        # of direct scalar access sites: (item index, address).
        runs: List[List[int]] = [[]]
        for index, item in enumerate(items):
            if isinstance(item, AsmInstr):
                runs[-1].append(index)
            else:
                runs.append([])

        # site plans: item index -> (pointer, post_modify, needs_load)
        plans: Dict[int, Tuple[str, int, bool]] = {}
        scalar_names = {
            name for name, size in memory_map.sizes.items() if size == 1}
        for run in runs:
            sites: Dict[str, List[Tuple[int, int]]] = {"x": [], "y": []}
            for index in run:
                instr = items[index]
                for operand in instr.operands:
                    if isinstance(operand, Mem) \
                            and operand.mode == "direct" \
                            and operand.symbol in scalar_names \
                            and operand.bank is not None:
                        sites[operand.bank].append(
                            (index, operand.address))
            for bank, accesses in sites.items():
                pointer = pointers.get(bank)
                if pointer is None:
                    continue
                bank_plans = {}
                loads = 0
                for position, (index, address) in enumerate(accesses):
                    if position == 0:
                        needs_load = True
                    else:
                        previous = accesses[position - 1][1]
                        needs_load = abs(address - previous) > 1
                    loads += 1 if needs_load else 0
                    post = 0
                    if position + 1 < len(accesses):
                        delta = accesses[position + 1][1] - address
                        if abs(delta) <= 1:
                            post = delta
                    bank_plans[index] = (pointer, post, needs_load)
                # Profitability: pointer walking costs 2 words per LUA;
                # staying absolute costs 1 extension word per access.
                if 2 * loads < len(accesses):
                    plans.update(bank_plans)

        # Pass 2: rewrite.
        result: List = []
        for index, item in enumerate(items):
            plan = plans.get(index)
            if plan is None:
                result.append(item)
                continue
            pointer, post, needs_load = plan
            instr = item

            def per_mem(operand: Mem) -> Mem:
                if operand.mode != "direct" \
                        or operand.symbol not in scalar_names \
                        or operand.bank is None:
                    return operand
                return replace(operand, mode="indirect", areg=pointer,
                               post_modify=post)

            if needs_load:
                address = next(
                    op.address for op in instr.operands
                    if isinstance(op, Mem) and op.mode == "direct"
                    and op.symbol in scalar_names)
                result.append(_ins("LUA", Reg(pointer), Imm(address),
                                   words=2, cycles=2,
                                   comment=f"point {pointer}"))
            result.append(transform_instr_mems(instr, per_mem))
        return CodeSeq(result)

    def _reprice_absolute(self, code: CodeSeq) -> CodeSeq:
        """Absolute (direct) memory operands need an extension word."""
        items: List = []
        for item in code:
            if isinstance(item, AsmInstr) \
                    and any(isinstance(op, Mem) and op.mode == "direct"
                            for op in item.operands):
                items.append(replace(item, words=item.words + 1,
                                     cycles=item.cycles + 1))
            else:
                items.append(item)
        return CodeSeq(items)

    # -- AddressAssigner hooks (array streams in loops) ---------------------

    def make_address_register_load(self, register: str,
                                   address: int) -> AsmInstr:
        return _ins("LUA", Reg(register), Imm(address), words=2,
                    cycles=2, comment=f"point {register}")

    def make_pointer_bump(self, register: str, stride: int) -> AsmInstr:
        return _ins("LEA", Mem(symbol=f"<{register}>", mode="indirect",
                               areg=register, post_modify=stride),
                    words=1, cycles=1,
                    comment=f"advance {register} by {stride}")

    # ------------------------------------------------------------------
    # Compaction hook
    # ------------------------------------------------------------------

    def compact(self, code: CodeSeq, options) -> CodeSeq:
        """Pack parallel moves (pipeline compaction hook)."""
        return compact_code(code, M56SlotModel(), options.compaction)

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------

    def finalize_loop(self, count: int, body: List, loop_id: int,
                      depth: int) -> Tuple[List, List]:
        start = f"D{loop_id}"
        prologue = [_ins("DO", Imm(count), words=2, cycles=2),
                    Label(start)]
        epilogue = [_ins("LOOPEND", LabelRef(start), words=0, cycles=0)]
        return prologue, epilogue

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def initial_state(self) -> MachineState:
        regs = {"a": 0, "x0": 0, "x1": 0, "y0": 0, "y1": 0}
        for index in range(8):
            regs[f"r{index}"] = 0
        return MachineState(regs=regs, mem=[0] * 1024)

    def _address(self, state: MachineState, operand: Mem) -> int:
        if operand.mode == "direct":
            return operand.address
        if operand.mode == "indirect":
            return state.reg(operand.areg)
        raise SimulationError(f"unresolved operand {operand}")

    def _read_operand(self, state: MachineState, operand,
                      post: List[Tuple[str, int]]) -> int:
        if isinstance(operand, Reg):
            return state.reg(operand.name)
        if isinstance(operand, Imm):
            return operand.value
        if isinstance(operand, Mem):
            address = self._address(state, operand)
            if operand.mode == "indirect" and operand.post_modify:
                post.append((operand.areg, operand.post_modify))
            return state.load(address)
        raise SimulationError(f"cannot read operand {operand}")

    def execute(self, state: MachineState,
                instr: AsmInstr) -> Optional[str]:
        # Parallel semantics: gather every read and every write target
        # first, then commit all writes.
        post: List[Tuple[str, int]] = []
        reg_writes: List[Tuple[str, int]] = []
        mem_writes: List[Tuple[int, int]] = []
        branch = self._execute_one(state, instr, post, reg_writes,
                                   mem_writes)
        for move in instr.parallel:
            self._execute_one(state, move, post, reg_writes, mem_writes)
        for name, value in reg_writes:
            state.set_reg(name, value)
        for address, value in mem_writes:
            state.store(address, _wrap16(value))
        for areg, step in post:
            state.set_reg(areg, state.reg(areg) + step)
        return branch

    def _execute_one(self, state: MachineState, instr: AsmInstr,
                     post, reg_writes, mem_writes) -> Optional[str]:
        handler = self.dispatch_table().get(instr.opcode)
        if handler is None:
            raise SimulationError(f"m56: unknown opcode "
                                  f"{instr.opcode!r}")
        return handler(state, instr, post, reg_writes, mem_writes)

    # -- instruction semantics (gather halves; execute() commits) -------
    #
    # M56 handlers take ``(state, instr, post, reg_writes, mem_writes)``:
    # they *gather* reads and pending writes, and the :meth:`execute`
    # driver commits everything afterwards -- the parallel-move
    # discipline.  The registry still feeds both simulators.

    @semantics("MOVE")
    def _exec_move(self, state, instr, post, reg_writes,
                   mem_writes) -> None:
        dst, src = instr.operands
        value = self._read_operand(state, src, post)
        if isinstance(dst, Reg):
            width = _wrap32 if dst.name == "a" else _wrap16
            reg_writes.append((dst.name, width(value)))
        else:
            address = self._address(state, dst)
            if dst.mode == "indirect" and dst.post_modify:
                post.append((dst.areg, dst.post_modify))
            mem_writes.append((address, value))

    @semantics("MOVEI", "LUA")
    def _exec_movei(self, state, instr, post, reg_writes,
                    mem_writes) -> None:
        dst, imm = instr.operands
        reg_writes.append((dst.name, imm.value))

    @semantics("CLR")
    def _exec_clr(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", 0))

    @semantics("ADD", "SUB")
    def _exec_add_sub(self, state, instr, post, reg_writes,
                      mem_writes) -> None:
        source = self._read_operand(state, instr.operands[0], post)
        acc = state.reg("a")
        value = acc + source if instr.opcode == "ADD" else acc - source
        reg_writes.append(("a", _wrap32(value)))

    @semantics("AND", "OR", "EOR")
    def _exec_logic(self, state, instr, post, reg_writes,
                    mem_writes) -> None:
        # word-width logic unit: the accumulator passes through at
        # 16 bits (see FixedPointContext semantics)
        source = self._read_operand(state, instr.operands[0], post)
        acc = _wrap16(state.reg("a"))
        value = {"AND": acc & source, "OR": acc | source,
                 "EOR": acc ^ source}[instr.opcode]
        reg_writes.append(("a", value))

    @semantics("MPY", "MAC", "MACN", "MPYF", "MACF", "MACNF")
    def _exec_multiply(self, state, instr, post, reg_writes,
                       mem_writes) -> None:
        op = instr.opcode
        x = self._read_operand(state, instr.operands[0], post)
        y = self._read_operand(state, instr.operands[1], post)
        product = x * y
        if op.endswith("F"):
            product >>= 15      # fractional (Q15) multiplier mode
        if op in ("MPY", "MPYF"):
            value = product
        elif op in ("MAC", "MACF"):
            value = state.reg("a") + product
        else:
            value = state.reg("a") - product
        reg_writes.append(("a", _wrap32(value)))

    @semantics("SATA")
    def _exec_sata(self, state, instr, post, reg_writes,
                   mem_writes) -> None:
        reg_writes.append(("a", max(-(1 << 15),
                                    min((1 << 15) - 1,
                                        state.reg("a")))))

    @semantics("NEG")
    def _exec_neg(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", _wrap32(-state.reg("a"))))

    @semantics("ABS")
    def _exec_abs(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", _wrap32(abs(state.reg("a")))))

    @semantics("NOT")
    def _exec_not(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", ~_wrap16(state.reg("a"))))

    @semantics("ASL")
    def _exec_asl(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", _wrap32(state.reg("a") << 1)))

    @semantics("ASR")
    def _exec_asr(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        reg_writes.append(("a", state.reg("a") >> 1))

    @semantics("DO")
    def _exec_do(self, state, instr, post, reg_writes,
                 mem_writes) -> None:
        state.loop_stack.append(instr.operands[0].value - 1)

    @semantics("LOOPEND", branch=True)
    def _exec_loopend(self, state, instr, post, reg_writes,
                      mem_writes) -> Optional[str]:
        if not state.loop_stack:
            raise SimulationError("LOOPEND without DO")
        if state.loop_stack[-1] > 0:
            state.loop_stack[-1] -= 1
            return instr.operands[0].name
        state.loop_stack.pop()
        return None

    @semantics("LEA")
    def _exec_lea(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        operand = instr.operands[0]
        post.append((operand.areg, operand.post_modify))

    @semantics("NOP")
    def _exec_nop(self, state, instr, post, reg_writes,
                  mem_writes) -> None:
        pass

    # -- fast-simulator decode ------------------------------------------

    def bind_step(self, instr: AsmInstr):
        """Gather/commit step with handlers resolved at decode time.

        The fast tier's step for every instruction, bare or carrying
        parallel moves: the :meth:`execute` discipline over the same
        @semantics handlers, minus the per-step dispatch.
        """
        table = self.dispatch_table()
        primary = table.get(instr.opcode)
        bad = instr.opcode if primary is None else next(
            (move.opcode for move in instr.parallel
             if move.opcode not in table), None)
        if bad is not None:
            # Defer to run time: an unknown opcode behind a never-taken
            # branch must behave exactly like the reference interpreter.
            def unknown(state: MachineState) -> Optional[str]:
                raise SimulationError(f"m56: unknown opcode {bad!r}")
            return unknown
        moves = tuple((table[move.opcode], move)
                      for move in instr.parallel)

        def step(state: MachineState) -> Optional[str]:
            post: List[Tuple[str, int]] = []
            reg_writes: List[Tuple[str, int]] = []
            mem_writes: List[Tuple[int, int]] = []
            branch = primary(state, instr, post, reg_writes, mem_writes)
            for handler, move in moves:
                handler(state, move, post, reg_writes, mem_writes)
            for name, value in reg_writes:
                state.set_reg(name, value)
            for address, value in mem_writes:
                state.store(address, _wrap16(value))
            for areg, bump in post:
                state.set_reg(areg, state.reg(areg) + bump)
            return branch

        return step

    # -- JIT source templates ------------------------------------------
    #
    # One gather/commit emitter covers every data instruction including
    # its parallel move slots, mirroring :meth:`execute`: all reads land
    # in temporaries in gather order, then register writes, memory
    # writes (16-bit wrapped) and pointer bumps commit in the reference
    # order -- with operands and addresses resolved at generation time.
    # Shapes the gather cannot express decline to the gather/commit
    # step of :meth:`bind_step`.

    _LOGIC_CHARS = {"AND": "&", "OR": "|", "EOR": "^"}

    def _jit_read(self, operand, ctx, post) -> Optional[str]:
        """Gather one source operand into a temp (or an immediate
        literal); ``None`` declines the instruction."""
        if isinstance(operand, Reg):
            tmp = ctx.tmp()
            ctx.line(f"{tmp} = {ctx.reg(operand.name)}")
            return tmp
        if isinstance(operand, Imm):
            return repr(operand.value)
        if isinstance(operand, Mem):
            if operand.mode == "direct":
                tmp = ctx.tmp()
                ctx.line(f"{tmp} = {ctx.load(operand.address)}")
                return tmp
            if operand.mode == "indirect":
                if operand.post_modify:
                    post.append((operand.areg, operand.post_modify))
                tmp = ctx.tmp()
                ctx.line(
                    f"{tmp} = {ctx.load(ctx.reg(operand.areg))}")
                return tmp
        return None

    def _jit_gather(self, part: AsmInstr, ctx, post, reg_writes,
                    mem_writes) -> bool:
        op = part.opcode
        ops = part.operands
        if op == "MOVE":
            dst, src = ops
            value = self._jit_read(src, ctx, post)
            if value is None:
                return False
            if isinstance(dst, Reg):
                wrap = ctx.wrap32 if dst.name == "a" else ctx.wrap16
                tmp = ctx.tmp()
                ctx.line(f"{tmp} = {wrap(value)}")
                reg_writes.append((dst.name, tmp))
                return True
            if isinstance(dst, Mem) and dst.mode == "direct":
                mem_writes.append((dst.address, value))
                return True
            if isinstance(dst, Mem) and dst.mode == "indirect":
                address = ctx.tmp()
                ctx.line(f"{address} = {ctx.reg(dst.areg)}")
                if dst.post_modify:
                    post.append((dst.areg, dst.post_modify))
                mem_writes.append((address, value))
                return True
            return False
        if op in ("MOVEI", "LUA"):
            reg_writes.append((ops[0].name, repr(ops[1].value)))
            return True
        if op == "CLR":
            reg_writes.append(("a", "0"))
            return True
        if op in ("ADD", "SUB"):
            source = self._jit_read(ops[0], ctx, post)
            if source is None:
                return False
            sign = "+" if op == "ADD" else "-"
            tmp = ctx.tmp()
            ctx.line(f"{tmp} = " + ctx.wrap32(
                f"{ctx.reg('a')} {sign} ({source})"))
            reg_writes.append(("a", tmp))
            return True
        if op in ("AND", "OR", "EOR"):
            source = self._jit_read(ops[0], ctx, post)
            if source is None:
                return False
            tmp = ctx.tmp()
            ctx.line(f"{tmp} = {ctx.wrap16(ctx.reg('a'))} "
                     f"{self._LOGIC_CHARS[op]} ({source})")
            reg_writes.append(("a", tmp))
            return True
        if op in ("MPY", "MAC", "MACN", "MPYF", "MACF", "MACNF"):
            x = self._jit_read(ops[0], ctx, post)
            y = self._jit_read(ops[1], ctx, post)
            if x is None or y is None:
                return False
            product = ctx.tmp()
            ctx.line(f"{product} = ({x}) * ({y})")
            if op.endswith("F"):
                ctx.line(f"{product} >>= 15")
            kind = op[:-1] if op.endswith("F") else op
            if kind == "MPY":
                expr = product
            else:
                sign = "+" if kind == "MAC" else "-"
                expr = f"{ctx.reg('a')} {sign} {product}"
            tmp = ctx.tmp()
            ctx.line(f"{tmp} = {ctx.wrap32(expr)}")
            reg_writes.append(("a", tmp))
            return True
        if op in ("SATA", "NEG", "ABS", "NOT", "ASL", "ASR"):
            acc = ctx.reg("a")
            expr = {
                "SATA": f"max(-32768, min(32767, {acc}))",
                "NEG": ctx.wrap32(f"-{acc}"),
                "ABS": ctx.wrap32(f"abs({acc})"),
                "NOT": f"~{ctx.wrap16(acc)}",
                "ASL": ctx.wrap32(f"{acc} << 1"),
                "ASR": f"{acc} >> 1",
            }[op]
            tmp = ctx.tmp()
            ctx.line(f"{tmp} = {expr}")
            reg_writes.append(("a", tmp))
            return True
        if op == "DO":
            ctx.line(
                f"state.loop_stack.append({ops[0].value - 1})")
            return True
        if op == "LEA":
            operand = ops[0]
            if not (isinstance(operand, Mem)
                    and operand.mode == "indirect"):
                return False
            post.append((operand.areg, operand.post_modify))
            return True
        if op == "NOP":
            return True
        return False

    @emitter("MOVE", "MOVEI", "LUA", "CLR", "ADD", "SUB", "AND", "OR",
             "EOR", "MPY", "MAC", "MACN", "MPYF", "MACF", "MACNF",
             "SATA", "NEG", "ABS", "NOT", "ASL", "ASR", "DO", "LEA",
             "NOP")
    def _emit_data(self, instr: AsmInstr, ctx) -> bool:
        post: List[Tuple[str, int]] = []
        reg_writes: List[Tuple[str, str]] = []
        mem_writes: List[Tuple[object, str]] = []
        for part in (instr,) + tuple(instr.parallel):
            if not self._jit_gather(part, ctx, post, reg_writes,
                                    mem_writes):
                return False
        for name, value in reg_writes:
            ctx.set_reg(name, value)
        for address, value in mem_writes:
            ctx.store(address, ctx.wrap16(value))
        for areg, bump in post:
            ctx.set_reg(areg, f"{ctx.reg(areg)} + {bump}")
        return True

    @emitter("LOOPEND")
    def _emit_loopend(self, instr: AsmInstr, ctx) -> bool:
        if instr.parallel:
            return False
        label = instr.operands[0].name
        taken = ctx.tmp()
        ctx.line("_ls = state.loop_stack")
        ctx.line("if not _ls:")
        with ctx.indented():
            ctx.line("_no_do()")
        ctx.line(f"{taken} = False")
        ctx.line("if _ls[-1] > 0:")
        with ctx.indented():
            ctx.line("_ls[-1] -= 1")
            ctx.line(f"{taken} = True")
        ctx.line("else:")
        with ctx.indented():
            ctx.line("_ls.pop()")
        ctx.jump_if(taken, label)
        return True


class M56SlotModel(SlotModel):
    """Compaction model: one X-bus move + one Y-bus move per ALU op."""

    slots = ("xmove", "ymove")

    def slot_of(self, instr: AsmInstr) -> Optional[str]:
        if instr.opcode != "MOVE":
            return None
        for operand in instr.operands:
            if isinstance(operand, Mem):
                if operand.mode == "direct":
                    return None   # absolute moves are not packable
                return "ymove" if operand.bank == "y" else "xmove"
        return "xmove"       # register-to-register rides the X bus

    def can_host(self, instr: AsmInstr) -> bool:
        return instr.opcode in M56.ALU_OPCODES

    def _mem_tokens(self, operand: Mem) -> Set[str]:
        bank = operand.bank or "x"
        tokens: Set[str] = set()
        if operand.mode == "direct":
            tokens.add(f"m:{bank}:{operand.address}")
        elif operand.mode == "indirect":
            tokens.add(f"m:{bank}")
            tokens.add(operand.areg)
        else:
            tokens.add(f"m:{bank}")
        return tokens

    def defs(self, instr: AsmInstr) -> Set[str]:
        tokens: Set[str] = set()
        op = instr.opcode
        if op == "MOVE":
            dst = instr.operands[0]
            if isinstance(dst, Reg):
                tokens.add(dst.name)
            else:
                tokens |= self._mem_tokens(dst)
                if dst.mode == "indirect" and dst.post_modify:
                    tokens.add(dst.areg)
            src = instr.operands[1]
            if isinstance(src, Mem) and src.mode == "indirect" \
                    and src.post_modify:
                tokens.add(src.areg)
        elif op in ("MOVEI", "LUA"):
            tokens.add(instr.operands[0].name)
        elif op in M56.ALU_OPCODES:
            tokens.add("a")
        elif op in ("DO", "LOOPEND"):
            tokens.add("loop")
        return tokens

    def uses(self, instr: AsmInstr) -> Set[str]:
        tokens: Set[str] = set()
        op = instr.opcode
        if op == "MOVE":
            src = instr.operands[1]
            if isinstance(src, Reg):
                tokens.add(src.name)
            else:
                tokens |= self._mem_tokens(src)
            dst = instr.operands[0]
            if isinstance(dst, Mem) and dst.mode == "indirect":
                tokens.add(dst.areg)
        elif op in ("ADD", "SUB", "AND", "OR", "EOR"):
            tokens.add(instr.operands[0].name)
            tokens.add("a")
        elif op in ("MPY", "MAC", "MACN", "MPYF", "MACF", "MACNF"):
            tokens.add(instr.operands[0].name)
            tokens.add(instr.operands[1].name)
            if op in ("MAC", "MACN", "MACF", "MACNF"):
                tokens.add("a")
        elif op in ("NEG", "ABS", "NOT", "ASL", "ASR", "SATA"):
            tokens.add("a")
        elif op in ("DO", "LOOPEND"):
            tokens.add("loop")
        return tokens
