"""Aggregated unfitted finite elements on Cartesian background grids.

Level-set cell classification, cell aggregation on any number of subdomains,
constrained aggregated FE spaces, Nitsche-Poisson assembly, and a
Jacobi-preconditioned CG solver, all reproducible on a deterministic
virtual-process runtime.
"""

from .aggregation import (AggregateSet, AggregationStalledError, DistRootMap,
                          RootMap, aggregate_parallel, aggregate_serial,
                          aggregates, gather_root_map)
from .assembly import (DistributedSystem, assemble_distributed, assemble_serial,
                       nitsche_tau_agg, nitsche_tau_std, poisson_elements)
from .distagg import build_direct_plan, build_inverse_plan, import_root_data
from .distspace import (DistNumbering, build_constraints_distributed,
                        number_dofs_distributed)
from .fespace import (AgConstraints, DofClassification, StdSpace,
                      build_constraints_serial, build_std_space, classify_dofs)
from .geometry import (CellClassification, QuadratureStore, classify_cells,
                       cut_quadrature)
from .grid import BackgroundGrid, build_grid, face_neighbors, unit_box_grid
from .levelset import HalfPlane, LevelSet, Popcorn, Sphere
from .partition import (Partition, SubdomainMesh, build_subdomain_meshes,
                        partition_weighted_sfc)
from .runtime import VirtualRuntime
from .solve import (ErrorNorms, SolveReport, condition_estimate, error_norms,
                    pcg_jacobi)

__version__ = "0.1.0"

__all__ = [
    "AgConstraints", "AggregateSet", "AggregationStalledError",
    "BackgroundGrid", "CellClassification", "DistNumbering", "DistRootMap",
    "DistributedSystem", "DofClassification", "ErrorNorms", "HalfPlane",
    "LevelSet", "Partition", "Popcorn", "QuadratureStore", "RootMap",
    "SolveReport", "Sphere", "StdSpace", "SubdomainMesh", "VirtualRuntime",
    "aggregate_parallel", "aggregate_serial", "aggregates",
    "assemble_distributed", "assemble_serial",
    "build_constraints_distributed", "build_constraints_serial",
    "build_direct_plan", "build_grid", "build_inverse_plan",
    "build_std_space", "build_subdomain_meshes", "classify_cells",
    "classify_dofs", "condition_estimate", "cut_quadrature", "error_norms",
    "face_neighbors", "gather_root_map", "import_root_data", "nitsche_tau_agg",
    "nitsche_tau_std", "number_dofs_distributed", "partition_weighted_sfc", "pcg_jacobi",
    "poisson_elements", "unit_box_grid",
]
