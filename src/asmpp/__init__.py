"""asmpp: exact enumeration and machine verification of identities between
alternating sign matrices, totally symmetric self-complementary plane
partitions and their non-intersecting lattice path images."""

from .asm import (
    Asm,
    RefinedStat,
    asm_count_formula,
    enumerate_asms,
    genfun_doubly_refined,
    refined_stat,
)
from .genpoly import GenPoly
from .nilp import Nilp, enumerate_nilps, extra_step, genfun_U, u_statistic
from .schur import schur_staircase, dyck_specializations, zprime_residue_sum
from .sixvertex import (
    VertexGrid,
    asm_to_six_vertex,
    normalize_Z,
    refined_from_Z,
    six_vertex_to_asm,
    weighted_partition_sum,
)
from .tsscpp import Tsscpp, enumerate_tsscpps, nilp_to_tsscpp, tsscpp_to_nilp

__version__ = "0.1.0"

__all__ = [
    "Asm", "RefinedStat", "asm_count_formula", "enumerate_asms",
    "genfun_doubly_refined", "refined_stat",
    "GenPoly",
    "Nilp", "enumerate_nilps", "extra_step", "genfun_U", "u_statistic",
    "schur_staircase", "dyck_specializations", "zprime_residue_sum",
    "VertexGrid", "asm_to_six_vertex", "normalize_Z", "refined_from_Z",
    "six_vertex_to_asm", "weighted_partition_sum",
    "Tsscpp", "enumerate_tsscpps", "nilp_to_tsscpp", "tsscpp_to_nilp",
]
