"""Composing cuPyNumeric and Legate Sparse: Krylov solvers under Diffuse.

Solves a 2-D Poisson problem with naturally-written CG and BiCGSTAB (the
paper's Figure 11 workloads), comparing three configurations:

* Unfused  — the task stream is forwarded to the runtime unchanged,
* Fused    — Diffuse fuses the AXPY/dot-product chains around the SpMV,
* PETSc    — the explicitly-parallel, hand-fused baseline library.

Run with:  python examples/krylov_solvers.py
"""

from __future__ import annotations

import numpy as np

import repro.frontend.cunumeric as cn
from repro.baselines.petsc import KSP, PetscMachineModel, Vec, poisson_2d_aij
from repro.experiments.harness import scaled_machine
from repro.frontend.legate import runtime_context
from repro.frontend.sparse import poisson_2d
from repro.frontend.sparse.linalg import bicgstab, cg

GRID = 64            # 64x64 grid -> 4096 unknowns
ITERATIONS = 20
NUM_GPUS = 4
BANDWIDTH_SCALE = 1e-5


def run_diffuse(solver_name: str, fusion: bool):
    """Run a naturally-written solver through the Diffuse stack."""
    machine = scaled_machine(NUM_GPUS, BANDWIDTH_SCALE)
    with runtime_context(num_gpus=NUM_GPUS, fusion=fusion, machine=machine) as context:
        matrix = poisson_2d(GRID)
        rhs = cn.ones(GRID * GRID)
        x0 = cn.zeros(GRID * GRID)
        solver = cg if solver_name == "cg" else bicgstab
        # Flush at every iteration boundary, as the application harness
        # does, so each iteration's work is charged to that iteration;
        # CG reads its residual once, in its last iteration, so that
        # iteration's epoch is flushed inside the solver like the others.
        options = {"check_interval": ITERATIONS} if solver is cg else {}
        solution, residual = solver(
            matrix, rhs, x0, ITERATIONS,
            on_iteration=lambda i: (context.flush(), context.begin_iteration()),
            **options,
        )
        context.flush()
        throughput = context.profiler.throughput(skip_warmup=2)
        return solution.to_numpy(), float(residual), throughput


def run_petsc(solver_name: str):
    """Run the PETSc-like baseline on the same problem."""
    model = PetscMachineModel(machine=scaled_machine(NUM_GPUS, BANDWIDTH_SCALE))
    matrix = poisson_2d_aij(GRID, model)
    rhs = Vec.create(GRID * GRID, model, 1.0)
    x0 = Vec.create(GRID * GRID, model)
    ksp = KSP(matrix, model)
    result = ksp.cg(rhs, x0, ITERATIONS) if solver_name == "cg" else ksp.bicgstab(rhs, x0, ITERATIONS)
    throughput = result.iterations / result.seconds if result.seconds else 0.0
    return result.solution.to_numpy(), result.residual_norm, throughput


def main() -> None:
    for solver_name in ("cg", "bicgstab"):
        print(f"=== {solver_name.upper()} on a {GRID}x{GRID} Poisson problem, "
              f"{NUM_GPUS} simulated GPUs ===")
        fused_x, fused_res, fused_tp = run_diffuse(solver_name, fusion=True)
        plain_x, plain_res, plain_tp = run_diffuse(solver_name, fusion=False)
        petsc_x, petsc_res, petsc_tp = run_petsc(solver_name)
        assert np.allclose(fused_x, plain_x, atol=1e-8)
        print(f"  residual (fused)  : {np.sqrt(max(fused_res, 0.0)):.3e}")
        print(f"  throughput unfused: {plain_tp:8.2f} it/s")
        print(f"  throughput fused  : {fused_tp:8.2f} it/s "
              f"({fused_tp / plain_tp:.2f}x over unfused)")
        print(f"  throughput PETSc  : {petsc_tp:8.2f} it/s "
              f"({fused_tp / petsc_tp:.2f}x for Diffuse vs PETSc)")
        print()


if __name__ == "__main__":
    main()
