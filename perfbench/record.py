"""Record the reference digests and exact counts in ``references.json``.

Run from the repository root at the commit whose outputs are the
reference, then commit the file with the benchmark:

    python3 perfbench/record.py

Each workload and input seed gets one traced pass; its output digests and
the exact counts of ``tracing.EXACT_COUNTS`` become the reference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run  # sets up the import path for delaysnn
import tracing
import workloads


def record(workload: str, seed: int, workdir: Path) -> dict:
    tracer = tracing.Tracer()
    tracer.run_id = 0
    with tracing.installed(tracer):
        result = workloads.run_pass(workload, seed, workdir, tracer)
    counts = tracer.counts[0]
    return {
        "digests": result.digests,
        "counts": {name: counts.get(name, 0) for name in tracing.EXACT_COUNTS},
    }


def main() -> int:
    workdir = Path.cwd() / ".perfbench" / "record"
    references = {}
    for workload in workloads.WORKLOADS:
        references[workload] = {}
        for seed in range(run.REFERENCE_SEEDS):
            references[workload][str(seed)] = record(workload, seed, workdir)
            print(f"{workload} seed {seed}: {references[workload][str(seed)]['counts']}",
                  flush=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
