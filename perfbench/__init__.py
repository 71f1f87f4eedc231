"""End-to-end and per-layer benchmark of the DAISM reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""

#: Environment variables that cap BLAS / OpenMP thread pools.  ``run.py``
#: pins them to the CPU affinity count before NumPy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
