"""Entry point: ``python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]``.

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/`` directory; without it the benchmark exits with code 2.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "lexid" / "__init__.py").is_file():
        print(f"perfbench: no lexid sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import main

    sys.exit(main())
