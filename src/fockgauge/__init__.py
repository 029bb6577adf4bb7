"""Lattice gauge theory model construction and exact diagonalization.

Builds Kogut-Susskind style Hamiltonians for finite gauge groups (D3, Z_N,
user-defined) and truncated Lie groups (SU(2), U(1)) on small square
lattices, with staggered fermionic matter, per-vertex Gauss-law operators,
physical-sector projection, and dense/iterative eigensolvers.
"""

from .group_core import (
    GroupSpec,
    Irrep,
    CharacterTable,
    GroupCatalogEntry,
    ValidationReport,
    build_builtin,
    validate,
    character_table,
    fourier_matrix,
    rep_basis_order,
    load_group_file,
    dump_group_file,
)
from .clebsch_gordan import ProductDecomposition, CGTensor, decompose, cg, verify_cg
from .operators import BasisMismatchError, Operator
from .link_space import (
    LinkSpace,
    UOperator,
    theta_left,
    theta_right,
    theta_group_basis,
    u_matrix,
    projector_rep,
    generators,
    trace_diagnostic,
)
from .matter_space import (
    VertexFock,
    number_operator,
    theta_q,
    charge_su2,
)
from .lattice_model import (
    LatticeSpec,
    ModelParams,
    GlobalBasis,
    Model,
    build_hamiltonian,
    hamiltonian_terms,
    gauss_operator,
    gauss_generators,
    physical_projector,
    physical_basis,
    vacuum_state,
)
from .spectra import (
    SpectrumResult,
    ObservableReport,
    eigensolve,
    vortex_masses,
    expectation,
)

__version__ = "0.1.0"
