"""Weak Hopf C*-algebras of Tambara-Yamagami categories.

Construction of the groupoid algebra from (G, chi, tau), numerical
verification of its defining axioms, builders and verifiers for (weak)
coideal subalgebras, and orbit enumeration of their isomorphism classes.
"""

from .algebra import AxiomReport, TYAlgebra
from .classify import (
    burnside_check,
    coideal_orbits,
    g_algebra_classes,
    realize_and_verify,
    weak_coideal_classes,
)
from .coideals import (
    CoidealSpec,
    WeakCoideal,
    assemble,
    build_from_spec,
    build_I_m_K,
    build_I_Omega_K,
    build_no_m,
    build_with_m,
    center,
    dims_match,
    fixed_point_algebra,
    is_coideal,
    is_indecomposable,
    spectral_dims,
    verify_weak_coideal,
)
from .errors import InvariantError, SizeError, StructuralError
from .groups import (
    Bicharacter,
    FiniteAbelianGroup,
    QuotientGroup,
    Subgroup,
    enumerate_subgroups,
    orthogonal,
    quotient,
)
from .linalg import DEFAULT_TOL, SparseVec, Subspace

__version__ = "0.1.0"
