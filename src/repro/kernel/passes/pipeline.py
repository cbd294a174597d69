"""The kernel optimisation pass pipeline (paper Section 6.3).

The default pipeline mirrors the order described in the paper: compose
(performed by the compiler before the pipeline runs), then loop fusion,
temporary scalarisation, algebraic normalisation, CSE, DCE, and
parallelisation.  Individual passes can be disabled for the ablation
benchmarks; normalisation is additionally gated by ``config.NORMALIZE``
(a test lever).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import normalize_enabled
from repro.kernel.kir import Function
from repro.kernel.passes.compose import KernelBinding
from repro.kernel.passes.cse import eliminate_common_subexpressions
from repro.kernel.passes.dce import eliminate_dead_code
from repro.kernel.passes.loop_fusion import fuse_loops
from repro.kernel.passes.normalize import normalize_function
from repro.kernel.passes.parallelize import parallelize_loops
from repro.kernel.passes.temp_elimination import scalarize_temporaries


@dataclass
class PassPipeline:
    """Configuration of the kernel optimisation pipeline."""

    enable_loop_fusion: bool = True
    enable_temporary_elimination: bool = True
    enable_normalize: bool = True
    enable_cse: bool = True
    enable_dce: bool = True
    enable_parallelize: bool = True

    def run(self, function: Function, binding: KernelBinding) -> Function:
        """Run the enabled passes over a composed kernel."""
        if self.enable_loop_fusion:
            function = fuse_loops(function, binding)
        if self.enable_temporary_elimination:
            function = scalarize_temporaries(function, binding)
        if self.enable_normalize and normalize_enabled():
            function = normalize_function(function)
        if self.enable_cse:
            function = eliminate_common_subexpressions(function)
        if self.enable_dce:
            function = eliminate_dead_code(function)
        if self.enable_parallelize:
            function = parallelize_loops(function)
        return function


def default_pipeline() -> PassPipeline:
    """The pipeline used by Diffuse unless a benchmark overrides it."""
    return PassPipeline()
