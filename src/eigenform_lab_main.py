"""Console entry point of ``eigenform-lab``.

The networks the CLI solves have at most a few hundred interior vertices, and
at that size a second OpenBLAS thread costs far more than it saves: on a
2-vCPU host a 372x372 interior solve took 180 ms with two threads and 2-3 ms
with one.  OpenBLAS reads its thread count once, when numpy loads it, and the
package imports numpy first thing, so the default is set here, outside the
package, before ``eigenform_lab.cli`` is imported.  A value already in the
environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main() -> None:
    from eigenform_lab.cli import main as cli_main

    cli_main()
