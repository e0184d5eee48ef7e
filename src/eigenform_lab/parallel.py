"""Order-preserving map over the per-vertex and per-node work of the
uniqueness analysis.

That work is small numpy calls that hold the interpreter lock, and a thread
pool ran it slower than a plain loop on every case measured, so the map is
serial.  It stays a named function because the benchmark tracer
(``perfbench/tracer.py``) wraps it by name.
"""


def parallel_map(fn, items):
    """Apply ``fn`` over ``items`` in order and return the results as a list."""
    return [fn(x) for x in items]
