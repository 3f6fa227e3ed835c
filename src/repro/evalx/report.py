"""One-shot report: every experiment's current numbers as markdown.

``python -m repro report`` regenerates the measured side of
EXPERIMENTS.md from scratch -- Table 1, the DSPStone overhead band, the
optimization ablations, the retargeting matrix, the processor cube and
the self-test coverage curve -- so the documentation can never drift
from the code.
"""

from __future__ import annotations

from typing import List

from repro.evalx.table1 import compute_table1, format_table1


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def table1_section() -> str:
    """The headline Table 1 reproduction (one input seed per row)."""
    return _section("Table 1 — size relative to hand assembly",
                    format_table1(compute_table1(seeds=1)))


def overhead_section() -> str:
    """Sec. 3.1 DSPStone overhead factors."""
    import benchmarks.bench_dspstone_overhead as bench
    return _section("Sec. 3.1 — DSPStone overhead",
                    bench.report(bench.measure()))


def ablation_section() -> str:
    """Sec. 3.3 optimization ablations."""
    import benchmarks.bench_ablation_opts as bench
    return _section("Sec. 3.3 — optimization ablations",
                    bench.report(*bench.sweep()))


def retarget_section() -> str:
    """Sec. 4.2 retargeting matrix."""
    import benchmarks.bench_retarget as bench
    return _section("Sec. 4.2 — retargeting matrix",
                    bench.report(bench.retarget_all()))


def cube_section() -> str:
    """Fig. 1 processor cube."""
    from repro.targets.asip import Asip
    from repro.targets.cube import cube_table
    from repro.targets.m56 import M56
    from repro.targets.risc import Risc16
    from repro.targets.tc25 import TC25
    return _section("Fig. 1 — processor cube",
                    cube_table([TC25(), M56(), Risc16(), Asip()]))


def selftest_section() -> str:
    """Sec. 4.5 self-test coverage."""
    import benchmarks.bench_selftest as bench
    return _section("Sec. 4.5 — self-test coverage",
                    bench.report(bench.sweep()))


def conformance_section(count: int = 20, seed: int = 0) -> str:
    """Differential conformance: generated programs x the full
    {compiler} x {target} x {simulator} matrix vs. the IR oracle."""
    from repro.verify.diff import run_conformance
    report = run_conformance(count=count, seed=seed)
    return _section("Conformance — differential matrix vs. IR oracle",
                    report.summary())


def full_report() -> str:
    """All sections concatenated (markdown)."""
    sections: List[str] = [
        "# Measured results (regenerated)\n",
        table1_section(),
        overhead_section(),
        ablation_section(),
        retarget_section(),
        cube_section(),
        selftest_section(),
        conformance_section(),
    ]
    return "\n".join(sections)
