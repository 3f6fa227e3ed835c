"""Memory-bank assignment (Sudarsanam/Malik [38]; Sec. 3.3).

"A few DSPs support multiple memory banks.  Whenever the arguments of a
binary operation are available in two different memory banks, the
operation executes faster.  Assigning variables to memory banks such
that as many operations as possible will find their operands in
different banks is an optimization that can be more easily performed by
a compiler than by an assembly language programmer."

Model: a *conflict graph* whose nodes are variables and whose edge
weights count how often two variables are wanted simultaneously (one
through the X bus, one through the Y bus).  Maximizing satisfied pairs
is MAX-CUT on this graph (NP-hard), so we provide:

- :func:`greedy_assignment` -- weighted greedy placement;
- :func:`annealed_assignment` -- seeded simulated annealing refinement;
- :func:`exhaustive_assignment` -- exact optimum for small instances
  (test oracle).

``cut_value`` is the shared objective: total weight of pairs whose
endpoints landed in different banks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Pair = Tuple[str, str]


def normalize_pairs(pairs: Iterable[Pair]) -> Dict[Pair, int]:
    """Aggregate an iterable of operand pairs into edge weights."""
    weights: Dict[Pair, int] = {}
    for first, second in pairs:
        if first == second:
            continue
        key = (first, second) if first < second else (second, first)
        weights[key] = weights.get(key, 0) + 1
    return weights


def cut_value(weights: Mapping[Pair, int],
              banks: Mapping[str, str]) -> int:
    """Total weight of pairs assigned to different banks."""
    return sum(weight for (u, v), weight in weights.items()
               if banks.get(u) != banks.get(v))


def _variables(weights: Mapping[Pair, int],
               extra: Sequence[str] = ()) -> List[str]:
    seen: Dict[str, None] = {}
    for (u, v) in weights:
        seen.setdefault(u, None)
        seen.setdefault(v, None)
    for name in extra:
        seen.setdefault(name, None)
    return list(seen)


def greedy_assignment(weights: Mapping[Pair, int],
                      variables: Sequence[str] = (),
                      banks: Tuple[str, str] = ("x", "y")
                      ) -> Dict[str, str]:
    """Place variables one at a time (by decreasing incident weight)
    into whichever bank currently separates more weight."""
    names = _variables(weights, variables)
    incident: Dict[str, int] = {name: 0 for name in names}
    for (u, v), weight in weights.items():
        incident[u] += weight
        incident[v] += weight
    assignment: Dict[str, str] = {}
    for name in sorted(names, key=lambda n: (-incident[n], n)):
        gain = {bank: 0 for bank in banks}
        for (u, v), weight in weights.items():
            other = None
            if u == name:
                other = v
            elif v == name:
                other = u
            if other is None or other not in assignment:
                continue
            for bank in banks:
                if assignment[other] != bank:
                    gain[bank] += weight
        best = max(banks, key=lambda bank: (gain[bank], bank == banks[0]))
        assignment[name] = best
    return assignment


def annealed_assignment(weights: Mapping[Pair, int],
                        variables: Sequence[str] = (),
                        banks: Tuple[str, str] = ("x", "y"),
                        seed: int = 0, steps: int = 2000,
                        start_temperature: float = 2.0
                        ) -> Dict[str, str]:
    """Simulated-annealing refinement of the greedy assignment."""
    rng = random.Random(seed)
    assignment = greedy_assignment(weights, variables, banks)
    names = list(assignment)
    if not names:
        return assignment
    best = dict(assignment)
    best_value = current_value = cut_value(weights, assignment)
    if best_value == sum(weights.values()):
        return best     # every pair is cut: no flip can beat it
    temperature = start_temperature
    cooling = 0.995
    other = {banks[0]: banks[1], banks[1]: banks[0]}
    for _ in range(steps):
        name = rng.choice(names)
        assignment[name] = other[assignment[name]]
        value = cut_value(weights, assignment)
        delta = value - current_value
        if delta >= 0 or rng.random() < pow(2.718281828,
                                            delta / max(temperature,
                                                        1e-9)):
            current_value = value
            if value > best_value:
                best_value = value
                best = dict(assignment)
        else:
            assignment[name] = other[assignment[name]]   # undo
        temperature *= cooling
    return best


def exhaustive_assignment(weights: Mapping[Pair, int],
                          variables: Sequence[str] = (),
                          banks: Tuple[str, str] = ("x", "y"),
                          max_variables: int = 14) -> Dict[str, str]:
    """Exact MAX-CUT by enumeration (test oracle; small instances)."""
    names = _variables(weights, variables)
    if len(names) > max_variables:
        raise ValueError(
            f"exhaustive bank assignment limited to {max_variables} "
            f"variables, got {len(names)}")
    best: Dict[str, str] = {name: banks[0] for name in names}
    best_value = cut_value(weights, best)
    for choice in product(banks, repeat=len(names)):
        candidate = dict(zip(names, choice))
        value = cut_value(weights, candidate)
        if value > best_value:
            best, best_value = candidate, value
    return best


def single_bank_assignment(weights: Mapping[Pair, int],
                           variables: Sequence[str] = (),
                           banks: Tuple[str, str] = ("x", "y")
                           ) -> Dict[str, str]:
    """Everything in one bank -- the ablation baseline (no parallel
    operand fetches ever)."""
    return {name: banks[0] for name in _variables(weights, variables)}
