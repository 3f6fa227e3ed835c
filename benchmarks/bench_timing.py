"""Sec. 3.2 requirement 4: compilers that calculate their code's speed.

The paper argues real-time constraints should be checked by the
compiler, not by "error-prone, time-consuming simulations".  This bench
runs the static cycle analysis over every kernel x compiler x target
and proves the predictions *exact* against simulation -- then times the
analysis itself (it must be cheap enough to run on every compile).

Run:  pytest benchmarks/bench_timing.py --benchmark-only -s
or :  python benchmarks/bench_timing.py
"""

from repro.codegen.timing import predict_cycles
from repro.dspstone import all_kernels
from repro.evalx.farm import CompileJob, run_many
from repro.sim.harness import run_compiled

# The kernel x compiler x target matrix, one farm job per cell (the
# "hand" producer is the checked-in reference assembly, not a compile,
# but the farm serves it through the same interface).
_CELLS = (("record", "tc25"), ("baseline", "tc25"), ("hand", "tc25"),
          ("record", "m56"), ("record", "risc16"))


def build_everything():
    specs = list(all_kernels())
    jobs = [CompileJob(kernel=spec.name, compiler=compiler, target=target)
            for spec in specs
            for compiler, target in _CELLS]
    results = run_many(jobs)
    by_name = {spec.name: spec for spec in specs}
    compiled = []
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"{result.job.kernel}/{result.job.compiler}/"
                f"{result.job.target}: [{result.error_type}] "
                f"{result.error}")
        compiled.append((by_name[result.job.kernel], result.payload))
    return compiled


def predict_all(compiled):
    return [predict_cycles(entry.code).total_cycles
            for _spec, entry in compiled]


def report(compiled, predictions) -> str:
    lines = [f"{'kernel':26s} {'producer':10s} {'target':8s} "
             f"{'predicted':>10s} {'simulated':>10s}",
             "-" * 70]
    exact = 0
    for (spec, entry), predicted in zip(compiled, predictions):
        _outputs, state = run_compiled(entry, spec.inputs(seed=0))
        match = predicted == state.cycles
        exact += match
        lines.append(
            f"{spec.name:26.26s} {entry.compiler:10s} "
            f"{entry.target.name:8.8s} {predicted:>10d} "
            f"{state.cycles:>10d}{'' if match else '   MISMATCH'}")
    lines.append("-" * 70)
    lines.append(f"{exact}/{len(compiled)} predictions exact")
    return "\n".join(lines)


def test_timing(benchmark):
    compiled = build_everything()
    predictions = benchmark(predict_all, compiled)
    text = report(compiled, predictions)
    print()
    print(text.splitlines()[-1])      # the tally; full table is long
    assert text.splitlines()[-1] == \
        f"{len(compiled)}/{len(compiled)} predictions exact"


if __name__ == "__main__":
    compiled = build_everything()
    print(report(compiled, predict_all(compiled)))
