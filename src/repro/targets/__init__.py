"""Target processor models.

Each target is an *explicit* machine description (the paper's definition
of retargetability, Sec. 4.1): a tree grammar for the code selector, an
``execute`` method for the simulator, resource metadata for the
optimizers, and loop/addressing hooks for the back-end stages.  Both
compilers in this repository -- the RECORD-style retargetable pipeline
and the conventional baseline -- consume only these objects.

Shipped targets:

- :class:`repro.targets.tc25.TC25` -- a TI TMS320C25-flavoured
  accumulator DSP (the processor of the paper's Table 1).
- :class:`repro.targets.m56.M56` -- a Motorola 56000-flavoured dual-bank
  DSP with parallel move slots (exercises compaction and memory-bank
  assignment).
- :class:`repro.targets.risc.Risc16` -- a small general-purpose RISC
  core with a homogeneous register file (the MiniRISC/ARM corner of the
  processor cube).
- :class:`repro.targets.asip.Asip` -- a parameterizable ASIP generator
  (generic parameters: register count, optional MAC/shift hardware,
  address registers), as discussed in Sec. 4.2.
"""

from repro.targets.model import TargetModel, TargetCapabilities

__all__ = ["TargetModel", "TargetCapabilities"]
