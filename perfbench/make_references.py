"""Write the reference final states the benchmark compares every job against.

Run from the root of a checkout whose trajectories are the accepted ones:

    python3 perfbench/make_references.py

For each workload and each grid point it runs the job once and stores the
final node arrays (every reference_stride-th node) in
references/<workload>.npz under k<point>_final<i> (i counts the runs of
one job: the certificate job has two).  A later
change must reproduce them to 1e-12, so rewrite them only together with
a change that is meant to alter trajectories, and say so.
"""

import os
import sys
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main():
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        arrays = {}
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
            for k in range(workloads.GRID_SIZE):
                ctx = workload.setup(workload.write_inputs(k, tmp))
                outcome = workload.job(ctx, tmp)
                if not outcome.ok:
                    sys.exit(f"{name} k={k}: {outcome.violations}")
                for i, nodes in enumerate(outcome.finals):
                    arrays[f"k{k}_final{i}"] = nodes[:, ::workload.reference_stride]
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.npz")
        np.savez_compressed(path, **arrays)
        print(f"wrote {path} ({os.path.getsize(path)} bytes)")


if __name__ == "__main__":
    main()
