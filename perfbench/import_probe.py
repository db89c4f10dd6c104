"""Time `import semiheap.cli` in this fresh interpreter, scaled to the reference speed.

    PYTHONPATH=src python3 perfbench/import_probe.py

Prints the raw and the scaled seconds.  The speed is read with the pure
interpreter kernel before and after the import (numpy is not loaded
before it, and loading it is most of what the import measures).
"""

import time

from speed import python_gauge

EXPECTED_S = 0.2    # sizes the first reading; the import takes about this long

gauge = python_gauge()
before = gauge.read(EXPECTED_S)
start = time.perf_counter()
import semiheap.cli  # noqa: E402,F401  (the import being timed)
seconds = time.perf_counter() - start
after = gauge.read(seconds)
print(seconds, gauge.scale(seconds, before, after))
