"""One set-up in a fresh process: imports, config, dataset generation.

    python3 benchmarks/setup_probe.py <config.json>

Prints one JSON line when the study could start its first trial; the
caller times the process from its start to that line.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import sparselab  # noqa: E402,F401  (every module a run imports)
from sparselab.config import load_config  # noqa: E402
from sparselab.harness import resolve_dataset  # noqa: E402

if __name__ == "__main__":
    cfg = load_config(sys.argv[1])
    t0 = time.perf_counter()
    resolve_dataset(cfg.workload, cfg.data_root)
    print(json.dumps({"resolve_dataset_ms": (time.perf_counter() - t0) * 1e3}), flush=True)
