"""Entry point: ``python -m benchmarks.interval`` from the repository
root, or this file by path (what ``BENCHMARK.json`` names).  Either way
the checkout's own ``src/`` is put first on ``sys.path``, so the command
needs no ``PYTHONPATH`` and never measures an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src' / 'repro'} not found: nothing to measure")
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)
    from benchmarks.interval.cli import main

    sys.exit(main())
