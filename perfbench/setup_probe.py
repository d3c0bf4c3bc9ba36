"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints one
JSON object with ``import_s`` (importing ``repro``), ``construct_s``
(building ``DistributedJoinSystem``) and ``schedule_s``
(``schedule_workload()``, up to the first dispatched event).  ``run.py``
starts it several times per run and reports the medians, because an
import can only be timed once per process.
"""

import json
import sys
import time

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    ns = workloads.import_repro()
    imported = time.perf_counter()
    system = ns.DistributedJoinSystem(workloads.build_config(ns, name, seed), shards=1)
    constructed = time.perf_counter()
    system.schedule_workload()
    scheduled = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": imported - start,
                "construct_s": constructed - imported,
                "schedule_s": scheduled - constructed,
            }
        )
    )


if __name__ == "__main__":
    main()
