"""Time what a fresh ompbounds process does before its first trial or draw.

    python3 perfbench/setup_probe.py M DRAWS SEED

Imports the package, builds the ``[I, H/sqrt(m)]`` dictionary and, unless
DRAWS is 0, runs the ``unit_correlation_max`` pass a sweep makes on stream
``(SEED, 0)``.  Prints one JSON object: ``import_s``, ``build_s``, ``beta_s``
and ``unit_max`` (null without a beta pass).  The package import is timed
because tables computed at import time are set-up work too; numpy is
imported first, untimed, because its import is not the library's work.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    m, draws, seed = (int(a) for a in argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    import ompbounds

    t1 = time.perf_counter()
    d = ompbounds.build_identity_hadamard(m)
    t2 = time.perf_counter()
    unit_max = None
    if draws:
        unit_max = ompbounds.unit_correlation_max(d, draws, ompbounds.RngStream(seed, 0))
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "beta_s": t3 - t2, "unit_max": unit_max}))


if __name__ == "__main__":
    main(sys.argv[1:])
