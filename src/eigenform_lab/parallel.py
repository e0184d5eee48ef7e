"""Order-preserving serial map, with no caller in the library.

The uniqueness analysis once mapped its per-vertex and per-node work through
here; that work is now stacked matrix products and plain comprehensions.  The
module is kept only because the benchmark tracer (``perfbench/tracer.py``)
wraps ``parallel_map`` by name; it goes with the next change to the benchmark.
"""


def parallel_map(fn, items):
    """Apply ``fn`` over ``items`` in order and return the results as a list."""
    return [fn(x) for x in items]
