"""Reference loop: a fixed piece of work that measures the machine's speed.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up to
2x over windows of seconds, as neighbours load it; a run can sit wholly in a
slow window.  Every pipeline is therefore timed next to this loop, which does
the same kinds of work as the library but none of its code, so no change to
the library moves it: a small file read and JSON round trip, a graph search
over Python sets and dicts, many small numpy calls, dense solves, and a
short-lived two-thread pool.  A pipeline's time divided by the mean of the two
reference times around it is its cost in reference units ("ref"): it follows
the library's speed and cancels most of the host's.  A loop of plain
arithmetic and dense solves alone tracked the CLI workload less well: its
ratios still rose by about 10 % in slow windows.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

_DOC_PATH = Path(__file__).resolve().parent.parent / ".perfbench" / "reference.json"
_DOC = {"cells": [[i, i + 1, i + 2] for i in range(300)], "weights": [1.0 + i / 7 for i in range(300)]}
_SIZE = 80
_MATRIX = np.random.default_rng(0).random((_SIZE, _SIZE)) + _SIZE * np.eye(_SIZE)
_RHS = np.ones(_SIZE)


def _solve(_item=None):
    return np.linalg.solve(_MATRIX, _RHS)


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop (about 7 ms unloaded on a
    2-vCPU x86-64 VM)."""
    if not _DOC_PATH.is_file():
        _DOC_PATH.parent.mkdir(parents=True, exist_ok=True)
        _DOC_PATH.write_text(json.dumps(_DOC), encoding="utf-8")
    t0 = time.perf_counter()
    json.dumps(json.loads(_DOC_PATH.read_text(encoding="utf-8")))
    adjacency: dict[int, set] = {}
    for i in range(3000):
        adjacency.setdefault(i % 500, set()).add((i * 7) % 500)
    seen, todo = {0}, [0]
    while todo:
        for w in adjacency.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    acc = np.zeros(8)
    for i in range(300):
        acc = acc + np.full(8, i) * 0.5
    for _ in range(10):
        _solve()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_solve, range(4)))
    return time.perf_counter() - t0
