"""Selection output on novel programs is pinned byte for byte.

The DSPStone kernels rarely reach the selector's harder paths: cuts,
double-word cuts, the variant limit and the ``algebraic=False`` rescue
of the baseline compiler.  Generated programs reach all of them, so
this test compiles a fixed set of progen programs on every column of
the conformance matrix and compares a SHA-256 of each listing with
``selection_pins.json``.  A change to the labeler, the variant
enumerator or tree interning that moves a single emitted word fails
here and names the program and column.

Regenerate the fixture only for a change that is meant to alter code:

    PYTHONPATH=src python tests/codegen/test_selection_pins.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.verify.diff import DEFAULT_TARGETS, VerifySession, compilers_for
from repro.verify.progen import ProgenConfig, generate_program

PIN_FILE = Path(__file__).with_name("selection_pins.json")
SEED = 1
COUNT = 20
CONFIG = ProgenConfig(sat_probability=0.0)
COLUMNS = tuple((compiler, target) for target in DEFAULT_TARGETS
                for compiler in compilers_for(target))


def pinned_program(index: int):
    """Program ``index`` of the pinned set, derived as a campaign does."""
    rng = random.Random(SEED * 1_000_000 + index)
    return generate_program(rng, index, CONFIG)


def listing_digests() -> dict:
    """``{"<program>/<compiler>/<target>": sha256 of the listing}``."""
    session = VerifySession()
    digests = {}
    for index in range(COUNT):
        program = pinned_program(index)
        for compiler, target in COLUMNS:
            listing = session.compiler(compiler, target) \
                .compile(program).listing()
            digests[f"{program.name}/{compiler}/{target}"] = \
                hashlib.sha256(listing.encode()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests():
    return listing_digests()


def test_fixture_covers_every_program_and_column(digests):
    pinned = json.loads(PIN_FILE.read_text())
    assert sorted(pinned) == sorted(digests)
    assert len(pinned) == COUNT * len(COLUMNS)


def test_listings_match_pins(digests):
    pinned = json.loads(PIN_FILE.read_text())
    diverged = [cell for cell, digest in digests.items()
                if pinned.get(cell) != digest]
    assert not diverged, f"listings changed: {', '.join(diverged)}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_selection_pins.py --write")
    PIN_FILE.write_text(json.dumps(listing_digests(), indent=1,
                                   sort_keys=True) + "\n")
    print(f"wrote {PIN_FILE}")
