"""High-level convenience API.

Most of the library is usable directly (targets, compilers, simulator);
this module wires the common end-to-end path into two calls::

    from repro import compile_kernel, compile_source

    result = compile_kernel("fir", target="tc25", compiler="record")
    print(result.listing())
    outputs, cycles = result.run({"x0": 100, "h": [...], "x": [...]})

    result = compile_source(my_minidfl_text, target="m56")
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.baseline.compiler import BaselineCompiler, BaselineOptions
from repro.codegen.compiled import CompiledProgram
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.dfl import compile_dfl
from repro.dspstone import KERNEL_NAMES, hand_reference, kernel
from repro.ir.program import Program
from repro.sim.harness import run_compiled
from repro.targets.model import TargetModel


def available_kernels() -> Tuple[str, ...]:
    """The DSPStone kernel names (Table 1 row order)."""
    return tuple(KERNEL_NAMES)


def available_targets() -> Tuple[str, ...]:
    """Names accepted by the ``target=`` arguments."""
    return ("tc25", "m56", "risc16", "asip")


def _new_target(name: str) -> TargetModel:
    if name == "tc25":
        from repro.targets.tc25 import TC25
        return TC25()
    if name == "m56":
        from repro.targets.m56 import M56
        return M56()
    if name == "risc16":
        from repro.targets.risc import Risc16
        return Risc16()
    if name == "asip":
        from repro.targets.asip import Asip
        return Asip()
    raise ValueError(f"unknown target {name!r}; "
                     f"available: {available_targets()}")


#: One model per target name for the whole process.  A model is never
#: mutated after construction (its grammar, rule plans and dispatch
#: tables are memos of immutable configuration), so every compile and
#: simulation may share it.
_TARGET_POOL: Dict[str, TargetModel] = {}
_TARGET_POOL_LOCK = threading.Lock()


def _resolve_target(target: Union[str, TargetModel, None]) -> TargetModel:
    """The pooled model for a target name (``None`` means ``"tc25"``);
    a :class:`TargetModel` instance passes through untouched."""
    if target is None:
        target = "tc25"
    if not isinstance(target, str):
        return target
    with _TARGET_POOL_LOCK:
        model = _TARGET_POOL.get(target)
        if model is None:
            model = _TARGET_POOL[target] = _new_target(target)
    return model


def _clear_target_pool() -> None:
    """Drop the pooled models: the next resolve builds new ones."""
    with _TARGET_POOL_LOCK:
        _TARGET_POOL.clear()


@dataclass
class CompilationResult:
    """A compiled program plus its source-level Program for running."""

    program: Program
    compiled: CompiledProgram

    def listing(self) -> str:
        """Annotated assembly listing of the compiled program."""
        return self.compiled.listing()

    def words(self) -> int:
        """Static code size in instruction words."""
        return self.compiled.words()

    def run(self, inputs: Mapping[str, object]
            ) -> Tuple[Dict[str, object], int]:
        """Simulate one invocation; returns (outputs, cycles)."""
        outputs, state = run_compiled(self.compiled, inputs)
        result = {
            name: outputs[name]
            for name, symbol in self.program.symbols.items()
            if symbol.role == "output" and name in outputs
        }
        return result, state.cycles


def compile_program(program: Program,
                    target: Union[str, TargetModel, None] = None,
                    compiler: str = "record",
                    options=None,
                    tuning_db=None) -> CompilationResult:
    """Compile an already-lowered Program.

    ``compiler="tuned"`` is the record pipeline steered by a tuning
    database (see :mod:`repro.tune`): ``tuning_db`` may be a
    :class:`~repro.tune.db.TuningDB`, a path to one, or ``None`` for
    the conventional ``.repro-tune.json``; ``options`` becomes the
    fallback for programs the database has no entry for.
    """
    target_model = _resolve_target(target)
    if compiler == "record":
        built = RecordCompiler(target_model, options).compile(program)
    elif compiler == "tuned":
        from repro.tune.db import TuningDB
        from repro.tune.tuned import TunedCompiler
        if tuning_db is None or isinstance(tuning_db, (str, bytes)) \
                or hasattr(tuning_db, "__fspath__"):
            tuning_db = TuningDB.load(tuning_db)
        built = TunedCompiler(target_model, db=tuning_db,
                              default_options=options).compile(program)
    elif compiler == "baseline":
        built = BaselineCompiler(target_model, options).compile(program)
    elif compiler == "hand":
        built = hand_reference(program.name, target_model)
    else:
        raise ValueError(f"unknown compiler {compiler!r}; expected "
                         "'record', 'tuned', 'baseline' or 'hand'")
    return CompilationResult(program=program, compiled=built)


def compile_source(source: str,
                   target: Union[str, TargetModel, None] = None,
                   compiler: str = "record",
                   options=None,
                   tuning_db=None) -> CompilationResult:
    """Compile MiniDFL source text end to end."""
    return compile_program(compile_dfl(source), target, compiler,
                           options, tuning_db=tuning_db)


def compile_kernel(name: str,
                   target: Union[str, TargetModel, None] = None,
                   compiler: str = "record",
                   options=None,
                   tuning_db=None) -> CompilationResult:
    """Compile one of the DSPStone kernels by name."""
    return compile_program(kernel(name).program, target, compiler,
                           options, tuning_db=tuning_db)
