"""``python -m bench``: the repository benchmark (see bench/README.md)."""

import sys
from pathlib import Path

# The package under test lives in src/ of the same checkout.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bench.cli import main  # noqa: E402

# GatewayCluster spawns workers that re-import this module as
# ``__mp_main__``; only the real entry point may run the benchmark.
if __name__ == "__main__":
    sys.exit(main())
