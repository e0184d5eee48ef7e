"""Set-up probe: in a fresh interpreter, import eigenform_lab and run one
gasket pipeline through the gate.  Exits 0 when the pipeline passes.

Usage: python3 perfbench/warmup.py   (from the repository root)
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigenform_lab import builtin  # noqa: E402
from pipeline import Expected, check, run_pipeline  # noqa: E402

if __name__ == "__main__":
    gasket = builtin("gasket")
    reason, _ = check(run_pipeline(gasket, [1.0] * gasket.k), Expected(0.6, True))
    if reason is not None:
        sys.exit(f"warm-up gasket pipeline failed: {reason}")
