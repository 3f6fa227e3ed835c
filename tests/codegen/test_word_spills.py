"""Word spills whose wrap can reach the store.

When the selector must cut a subtree whose value may leave the word and
has no double-word slot for it, it spills the value through a word
cell, where it wraps.  ``SelectionStats.unsafe_spills`` counts the
spills whose wrap can change what the store writes: walking up from
the cut, the value meets a consumer other than ``add``/``sub``/``neg``/
``shl`` before a word port or a word store.  The counter makes the
hazard visible; refusing such a spill is a separate change (ROADMAP.md,
"No silent wrapping spills"), so the reproducer below is a strict xfail
until then.
"""

import pytest

from repro.api import compile_dfl, compile_source
from repro.codegen.selector import _wrap_reaches_store
from repro.ir.fixedpoint import FixedPointContext
from repro.ir.trees import Tree

#: Campaign seed 1 case 115, shrunk.  The shifted product leaves the
#: word, goes out through a word cell and comes back under ``sat``.
SOURCE = """
program spill;
input i1, i2;
output o0;
begin
  o0 := sat((i1 + (i1 << 1)) - ((46 * i2) << 4));
end.
"""
INPUTS = {"i1": 1000, "i2": -1000}
#: The columns that give 18104 where the oracle saturates to 32767.
WRONG_COLUMNS = (("record", "tc25"), ("baseline", "tc25"),
                 ("record", "asip"))


def _oracle_output() -> int:
    program = compile_dfl(SOURCE)
    env = program.initial_environment()
    env.update(INPUTS)
    program.run(env, FixedPointContext(16))
    return env["o0"]


@pytest.mark.parametrize("compiler,target", WRONG_COLUMNS)
def test_counter_sees_the_unsafe_spill(compiler, target):
    stats = compile_source(SOURCE, target=target, compiler=compiler) \
        .compiled.stats["selection"]
    assert stats.wide_spills == 1
    assert stats.unsafe_spills == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="unsafe word spills are counted, not yet "
                          "refused: the spilled value wraps before sat")
@pytest.mark.parametrize("compiler,target", WRONG_COLUMNS)
def test_unsafe_spill_agrees_with_the_oracle(compiler, target):
    result = compile_source(SOURCE, target=target, compiler=compiler)
    if result.compiled.stats["selection"].unsafe_spills != 1:
        # Not an AssertionError: a changed cut fails this xfail loudly.
        pytest.fail("the counter no longer sees the unsafe spill")
    outputs, _cycles = result.run(INPUTS)
    assert outputs["o0"] == _oracle_output() == 32767


A, B = Tree.ref("a"), Tree.ref("b")
CUT = Tree.compute("mul", A, B)


@pytest.mark.parametrize("tree,word_store,unsafe", [
    # ring operations keep the wrapped value congruent up to the store
    (Tree.compute("sub", Tree.compute("shl", CUT, Tree.const(4)), A),
     True, False),
    (Tree.compute("neg", CUT), True, False),
    # a word port wraps its operand anyway
    (Tree.compute("sat", Tree.compute("and", CUT, B)), True, False),
    (Tree.compute("wrap", Tree.compute("add", CUT, A)), True, False),
    # any other consumer sees the wrap
    (Tree.compute("sat", Tree.compute("add", CUT, A)), True, True),
    (Tree.compute("shr", CUT, Tree.const(1)), True, True),
    (Tree.compute("abs", CUT), True, True),
    # a shift amount is not a ring operand
    (Tree.compute("shl", A, CUT), True, True),
    # a double-word store keeps what a word store would wrap
    (Tree.compute("add", CUT, A), False, True),
    (Tree.compute("mul", Tree.compute("add", CUT, A), B), False, False),
])
def test_wrap_reaches_store(tree, word_store, unsafe):
    assert _wrap_reaches_store(tree, CUT, word_store) is unsafe
