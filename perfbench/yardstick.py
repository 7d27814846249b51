"""A fixed pure-Python task timed around every measured operation.

On a 2-core VM that shares its host (Intel Xeon at 2.1 GHz), the speed of
a core changes by up to 1.8x for minutes at a time, so the same compile
takes 0.42 s in one run and 0.80 s a few minutes later. The yardstick
builds and walks a tree of small objects, as bispec's parsers and engine
do, so it slows down with the host in about the same proportion. An
operation's time divided by the mean of the yardstick timed just before it
and the one timed just after it (``bracket``) is the operation's cost in
yardsticks, which stays put while the host's speed moves.

The yardstick uses nothing from bispec, so no change to the program can
change its time. It runs with the cyclic garbage collector paused and
frees everything it builds before it returns (the tree has no cycles), so
it never spends its time collecting the program's objects.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

NODES = 20_000
EXPECTED = 1_068_179  # reference_task()'s result; checked on every call


class _Node:
    __slots__ = ("name", "kids", "attrs")

    def __init__(self, name: str):
        self.name = name
        self.kids: list[_Node] = []
        self.attrs: dict[str, int] = {}


def reference_task(nodes: int = NODES) -> int:
    """Build a random tree of ``nodes`` objects and walk it; deterministic."""
    rng = random.Random(7)
    tree = [_Node(f"n{i}") for i in range(nodes)]
    for i in range(1, nodes):
        tree[rng.randrange(i)].kids.append(tree[i])
        tree[i].attrs[f"k{i % 13}"] = i
    stack, total = [tree[0]], 0
    while stack:
        node = stack.pop()
        total += len(node.name) + sum(node.attrs.values()) % 97
        stack.extend(node.kids)
    return total


def measure() -> float:
    """Seconds one yardstick task takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = perf_counter()
        total = reference_task()
        elapsed = perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    if total != EXPECTED:
        raise RuntimeError(f"yardstick computed {total}, expected {EXPECTED}")
    return elapsed


def bracket(befores: list[float], closing: float) -> list[float]:
    """Per operation, the mean of the yardstick timed just before it and the
    one just after it: the next operation's, or ``closing`` for the last."""
    afters = befores[1:] + [closing]
    return [(before + after) / 2 for before, after in zip(befores, afters)]
