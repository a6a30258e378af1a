"""Record the default-seed output digests that run.py checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs every input of each named workload (all by default) once at the
default seed and rewrites their entries in ``reference.json``. Run it only
on a commit whose outputs are known to be right: later commits must
reproduce these digests bit for bit.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(names: list[str]) -> None:
    path = HERE / "reference.json"
    try:
        data = json.loads(path.read_text())
    except OSError:
        data = {"seed": workloads.DEFAULT_SEED, "digests": {}}
    for name in names:
        wl = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        inputs = wl.build(workloads.DEFAULT_SEED)
        data["digests"][name] = [wl.summarize(wl.run_item(inputs, i), i).digest
                                 for i in range(wl.cycle)]
        print(f"{name}: {wl.cycle} digests in {time.perf_counter() - t0:.1f} s", flush=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:] or list(workloads.WORKLOADS))
