"""Put the repository sources and the benchmark package on the path."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT / "benchmarks", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
