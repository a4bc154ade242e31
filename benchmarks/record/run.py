"""Entry point of the benchmark of record (the command in BENCHMARK.json).

Runs as a script from the root of a checkout; puts the checkout and its
``src/`` on ``sys.path`` so that ``benchmarks.record`` and ``repro``
import without installation, then hands over to ``cli.main``.
"""

import sys
from pathlib import Path


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():
        # never fall back to a ``repro`` installed elsewhere: the numbers
        # must come from the checkout the benchmark sits in
        print(f"record: {root} holds no src/repro to measure", file=sys.stderr)
        return 2
    for entry in (str(root / "src"), str(root)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.record import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
