"""Tests for the Legate-Sparse-like frontend and the PETSc baseline."""

import numpy as np
import pytest

import repro.frontend.cunumeric as cn
from repro.baselines.petsc import KSP, PetscMachineModel, Vec, poisson_2d_aij
from repro.frontend.sparse import csr as csr_module
from repro.frontend.sparse import csr_from_dense, poisson_2d
from repro.frontend.sparse.linalg import bicgstab, cg
from repro.runtime.machine import MachineConfig


class TestCSRMatrix:
    def test_poisson_structure(self, any_context):
        matrix = poisson_2d(4)
        assert matrix.shape == (16, 16)
        assert matrix.nnz == 5 * 16 - 4 * 4  # 5-point stencil minus boundary arms
        dense = matrix.to_dense()
        assert np.allclose(dense, dense.T)
        assert (np.diag(dense) == 4.0).all()

    def test_from_dense_round_trip(self, any_context):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((6, 6))
        dense[np.abs(dense) < 0.6] = 0.0
        matrix = csr_from_dense(dense)
        np.testing.assert_allclose(matrix.to_dense(), dense)

    def test_spmv_matches_scipy_reference(self, any_context):
        import scipy.sparse as sp

        rng = np.random.default_rng(2)
        dense = rng.standard_normal((20, 20))
        dense[np.abs(dense) < 1.0] = 0.0
        np.fill_diagonal(dense, 2.0)
        matrix = csr_from_dense(dense)
        x_host = rng.standard_normal(20)
        result = matrix.dot(cn.array(x_host))
        expected = sp.csr_matrix(dense) @ x_host
        np.testing.assert_allclose(result.to_numpy(), expected, rtol=1e-12)

    def test_matmul_operator_and_validation(self, any_context):
        matrix = poisson_2d(3)
        x = cn.ones(9)
        np.testing.assert_allclose((matrix @ x).to_numpy(), matrix.to_dense() @ np.ones(9))
        with pytest.raises(ValueError):
            matrix.dot(cn.ones(5))

    def test_diagonal(self, any_context):
        matrix = poisson_2d(4)
        np.testing.assert_allclose(matrix.diagonal().to_numpy(), np.full(16, 4.0))


class TestSpmvChunkCost:
    """The per-rank seconds of a replayed SpMV chunk are computed once."""

    def _chunk(self):
        indptr = np.array([0.0, 2.0, 2.0, 5.0, 9.0])
        bases = {0: indptr, 4: np.zeros(4)}
        rects = {4: [((0,), (2,)), ((2,), (2,)), ((2,), (4,))]}  # one empty rank
        return bases, rects, (4.0,), MachineConfig(num_gpus=3)

    def test_pinned_seconds_are_the_uncached_floats(self, flags):
        flags(REPRO_HOTPATH_CACHE=1)
        bases, rects, scalars, machine = self._chunk()
        expected = csr_module._spmv_chunk_cost_uncached(bases, rects, scalars, machine)
        assert csr_module._spmv_chunk_cost(bases, rects, scalars, machine) == expected
        # Same indptr array and rect list: served from the pin (visible
        # only because the test edits a structure real runs never do).
        bases[0][4] = 90.0
        pinned = csr_module._spmv_chunk_cost(bases, rects, scalars, machine)
        assert pinned == expected
        pinned.append(0.0)  # a caller's copy, not the pin
        assert csr_module._spmv_chunk_cost(bases, rects, scalars, machine) == expected
        # Anything in the key changing recomputes: the rect list's
        # identity, the machine, the index width.
        changed = csr_module._spmv_chunk_cost_uncached(bases, rects, scalars, machine)
        assert changed != expected
        equal_rects = {4: list(rects[4])}
        assert csr_module._spmv_chunk_cost(bases, equal_rects, scalars, machine) == changed
        for other in ((bases, rects, (8.0,), machine), (bases, rects, scalars, MachineConfig(num_gpus=1))):
            assert csr_module._spmv_chunk_cost(*other) == (
                csr_module._spmv_chunk_cost_uncached(*other)
            )

    def test_seed_path_recomputes(self, flags):
        flags(REPRO_HOTPATH_CACHE=0)
        bases, rects, scalars, machine = self._chunk()
        first = csr_module._spmv_chunk_cost(bases, rects, scalars, machine)
        bases[0][4] = 90.0
        assert csr_module._spmv_chunk_cost(bases, rects, scalars, machine) != first


class TestSparseSolvers:
    def test_cg_converges(self, any_context):
        matrix = poisson_2d(6)
        reference = np.linalg.solve(matrix.to_dense(), np.ones(36))
        solution, residual = cg(matrix, cn.ones(36), cn.zeros(36), iterations=40)
        np.testing.assert_allclose(solution.to_numpy(), reference, atol=1e-8)
        assert residual < 1e-12

    def test_bicgstab_converges(self, any_context):
        matrix = poisson_2d(6)
        reference = np.linalg.solve(matrix.to_dense(), np.ones(36))
        solution, residual = bicgstab(matrix, cn.ones(36), cn.zeros(36), iterations=40)
        np.testing.assert_allclose(solution.to_numpy(), reference, atol=1e-6)


class TestPetscBaseline:
    def _system(self, grid=6, gpus=4):
        model = PetscMachineModel(machine=MachineConfig(num_gpus=gpus))
        matrix = poisson_2d_aij(grid, model)
        rows = matrix.shape[0]
        dense = np.zeros(matrix.shape)
        for row in range(rows):
            for position in range(matrix.indptr[row], matrix.indptr[row + 1]):
                dense[row, matrix.indices[position]] = matrix.data[position]
        return model, matrix, dense

    def test_vec_kernels(self):
        model = PetscMachineModel(machine=MachineConfig(num_gpus=2))
        x = Vec(np.arange(8.0), model)
        y = Vec(np.ones(8), model)
        y.axpy(2.0, x)
        np.testing.assert_allclose(y.data, 1.0 + 2.0 * np.arange(8))
        y.scale(0.5)
        np.testing.assert_allclose(y.data, 0.5 * (1.0 + 2.0 * np.arange(8)))
        assert x.dot(x) == pytest.approx(float(np.arange(8) @ np.arange(8)))
        assert x.norm() == pytest.approx(np.linalg.norm(np.arange(8)))
        w = x.duplicate()
        w.waxpy(3.0, x, y)
        np.testing.assert_allclose(w.data, 3.0 * x.data + y.data)
        assert model.seconds > 0.0

    def test_mdot_single_pass(self):
        model = PetscMachineModel(machine=MachineConfig(num_gpus=2))
        a = Vec(np.arange(8.0), model)
        b = Vec(np.ones(8), model)
        ab, aa = a.mdot(b, a)
        assert ab == pytest.approx(float(np.arange(8).sum()))
        assert aa == pytest.approx(float(np.arange(8) @ np.arange(8)))

    def test_mat_mult_matches_dense(self):
        model, matrix, dense = self._system()
        x = Vec(np.linspace(0, 1, dense.shape[0]), model)
        y = Vec.create(dense.shape[0], model)
        matrix.mult(x, y)
        np.testing.assert_allclose(y.data, dense @ x.data, atol=1e-12)

    def test_ksp_cg_and_bicgstab_converge(self):
        model, matrix, dense = self._system()
        reference = np.linalg.solve(dense, np.ones(dense.shape[0]))
        ksp = KSP(matrix, model)
        rhs = Vec.create(dense.shape[0], model, 1.0)
        cg_result = ksp.cg(rhs, Vec.create(dense.shape[0], model), 60)
        np.testing.assert_allclose(cg_result.solution.data, reference, atol=1e-8)
        assert cg_result.seconds > 0.0
        bcgs_result = ksp.bicgstab(rhs, Vec.create(dense.shape[0], model), 60)
        np.testing.assert_allclose(bcgs_result.solution.data, reference, atol=1e-6)

    def test_more_gpus_is_not_slower_per_iteration(self):
        """Weak-scaled PETSc CG per-iteration time stays roughly flat."""
        times = []
        for gpus in (1, 4):
            model = PetscMachineModel(machine=MachineConfig(num_gpus=gpus))
            matrix = poisson_2d_aij(8 * int(np.sqrt(gpus)), model)
            rows = matrix.shape[0]
            ksp = KSP(matrix, model)
            result = ksp.cg(Vec.create(rows, model, 1.0), Vec.create(rows, model), 5)
            times.append(result.seconds / max(1, result.iterations))
        assert times[1] < times[0] * 3.0
