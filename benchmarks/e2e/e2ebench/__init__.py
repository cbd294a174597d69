"""End-to-end benchmark of the Diffuse reproduction (see ../README.md).

The package holds everything the benchmark needs besides the program
under test: workload definitions and the session runner
(:mod:`workloads`), the seeded program generator and its NumPy oracle
(:mod:`churn`), the outside-in span recorder (:mod:`spans`), per-layer
attribution (:mod:`layers`) and the estimators (:mod:`stats`).
"""
