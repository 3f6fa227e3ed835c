"""The caching fast path is transparent: covers, code and costs are
identical with every cache layer on or off.

Three layers are crossed here -- tree interning (``repro.ir.trees``),
the persistent BURS label cache (``repro.codegen.burg``) and the
compiler-level matcher pool (``repro.codegen.pipeline``) -- against
every DSPStone kernel on every shipped target, the ASIP included (its
grammar is the TC25 one rebuilt according to the ASIP parameters).
"""

import pytest

from repro.codegen.burg import BurgMatcher
from repro.codegen.grammar import EmitContext
from repro.codegen.pipeline import RecordCompiler, RecordOptions
from repro.codegen.selector import Selector, wrap_store
from repro.dspstone import all_kernels
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.trees import decompose, set_tree_caching
from repro.targets.asip import Asip
from repro.targets.m56 import M56
from repro.targets.risc import Risc16
from repro.targets.tc25 import TC25

TARGETS = (TC25, M56, Risc16, Asip)


def _kernel_assignments(spec, fpc):
    """Every tree assignment of a kernel, from all blocks/loops."""
    from repro.ir.program import Block, Loop

    assignments = []
    counter = [0]

    def walk(items):
        for item in items:
            if isinstance(item, Block):
                block = decompose(item.dfg, temp_counter_start=counter[0],
                                  fpc=fpc)
                counter[0] += sum(1 for a in block if a.is_temp)
                assignments.extend(block)
            elif isinstance(item, Loop):
                walk(item.body)

    walk(spec.program.body)
    return assignments


@pytest.mark.parametrize("target_cls", TARGETS,
                         ids=lambda cls: cls.__name__)
def test_cached_labeling_identical_covers(target_cls):
    """One shared (cached) matcher across all kernels vs a cold matcher
    per assignment: same cover costs, same emitted instructions."""
    target = target_cls()
    grammar = target.grammar()
    shared = BurgMatcher(grammar, "size")          # warm across kernels
    for spec in all_kernels():
        assignments = _kernel_assignments(spec, target.fpc)
        warm_selector = Selector(grammar, fpc=target.fpc, matcher=shared)
        for assignment in assignments:
            cold_selector = Selector(grammar, fpc=target.fpc,
                                     label_cache=False)
            warm_ctx, cold_ctx = EmitContext(), EmitContext()
            warm_cost = warm_selector.select_assignment(assignment,
                                                        warm_ctx)
            cold_cost = cold_selector.select_assignment(assignment,
                                                        cold_ctx)
            assert warm_cost == cold_cost, (spec.name, assignment)
            assert warm_ctx.code.items == cold_ctx.code.items, \
                (spec.name, assignment)


def test_cover_cost_stable_across_repeats():
    """Repeated queries against one matcher never change their answer
    (the label cache returns the same states object it computed)."""
    target = TC25()
    matcher = BurgMatcher(target.grammar(), "size")
    fpc = FixedPointContext(16)
    for spec in all_kernels():
        for assignment in _kernel_assignments(spec, fpc):
            wrapped = wrap_store(assignment.symbol, assignment.index,
                                 assignment.tree)
            first = matcher.cover_cost(wrapped, "stmt")
            again = matcher.cover_cost(wrapped, "stmt")
            assert first == again
    assert matcher.label_hits > 0


def test_label_cache_hit_rate_exceeds_half():
    """Across the DSPStone suite with algebraic selection on, more than
    half of all subtree labelings are answered by the cache (the
    variants of one tree overlap heavily in subtrees)."""
    compiler = RecordCompiler(TC25())    # pooled matcher, default opts
    hits = misses = 0
    for spec in all_kernels():
        stats = compiler.compile(spec.program).stats["selection"]
        assert compiler.options.algebraic
        hits += stats.label_hits
        misses += stats.label_misses
    rate = hits / (hits + misses)
    assert rate > 0.5, f"label-cache hit rate {rate:.1%}"


@pytest.mark.parametrize("target_cls", TARGETS,
                         ids=lambda cls: cls.__name__)
def test_listings_identical_with_caching_off(target_cls):
    """End to end: tree interning off + cold compilers must produce the
    exact same listings as the fully cached path."""
    target_cached = target_cls()
    cached_compiler = RecordCompiler(target_cached)
    cached = {spec.name: cached_compiler.compile(spec.program).listing()
              for spec in all_kernels()}

    previous = set_tree_caching(False)
    try:
        cold = {}
        for spec in all_kernels():
            compiler = RecordCompiler(
                target_cls(), RecordOptions(label_cache=False))
            cold[spec.name] = compiler.compile(spec.program).listing()
    finally:
        set_tree_caching(previous)

    assert cold == cached
