"""Cell benchmark for sparsegp.

Run from the root of a checkout:

    python3 bench/run.py --workload dense-cell --seed 1 --seconds 20 --trace 0

Prints one line per metric, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.  Records
and spans go to ``bench/out/``.  See bench/README.md.
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import cells, core  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = core.run(
            args.workload, args.seed, args.seconds, bool(args.trace), HERE.parent, HERE / "out"
        )
    except core.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = record["environment"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"cells={record['cells']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"blas={env['blas']!r} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} commit={env['git_commit']} src={env['src_sha256'][:16]}"
    )
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for name in ("cell_s_p50", "cell_s_tail", "cells_per_s", "reference_chunk_s"):
        if name in record:
            print(f"{name} {record[name]!r} (raw wall clock, not normalized)")
    print(f"error_rate {record['failed'] / record['attempted']!r} (failed/attempted)")
    print(f"rows_digest {record['rows_digest']} over {record['rows_digest_cells']} cells")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
