"""One fresh-process set-up: import numpy and linkagekit, build a workload's
inputs, print one JSON line with the in-process timings, and exit.

    python3 bench/setup_probe.py <workload> <seed>

run.py starts it several times per run and times it from outside; under
`python3 -X importtime` the import breakdown is read from its stderr.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401

T1 = time.perf_counter()

import linkagekit.catalog  # noqa: E402,F401
import linkagekit.locus  # noqa: E402,F401
import linkagekit.poly  # noqa: E402,F401
import linkagekit.solver  # noqa: E402,F401

T2 = time.perf_counter()

import workloads  # noqa: E402

ops = workloads.build(sys.argv[1], int(sys.argv[2]))
T3 = time.perf_counter()

print(json.dumps({"import_numpy_s": T1 - T0, "import_linkagekit_s": T2 - T1,
                  "inputs_s": T3 - T2, "ops": len(ops)}), flush=True)
