"""Grigorchuk groups acting on a two-ended Schreier graph and the
CAT(0) cube complex built from commensurated half-lines."""

from .omega import OmegaSequence, OmegaParseError, passive_letter, fixing_letter
from .elements import (
    GroupElement,
    OmegaMismatchError,
    UnsupportedOmegaError,
    reduce_word,
    apply,
    decompose,
    is_trivial,
    canonical_key,
    enumerate_ball,
    element_order,
)
from .gamma import (
    Ray,
    ZERO_RAY,
    in_gamma_plus,
    in_gamma_plus_tilde,
    prepend,
    neighbors,
    ball,
    line_coordinate,
    edge_records,
    to_dot,
)
from .cubes import (
    CubeVertex,
    base_vertex,
    commensuration_delta,
    act,
    distance,
    orbit_growth,
)
from .stabilizers import (
    stabilizes_gamma_plus,
    stabilizes_gamma_plus_tilde,
    stabilizer_in_ball,
    subgroup_closure,
    fixed_vertex_for_subgroup,
    stabilizer_bound_check,
    verify_restriction_lemma,
)
from .checks import DEFAULT_OMEGAS, CheckReport, run_suite

__all__ = [
    "OmegaSequence",
    "OmegaParseError",
    "passive_letter",
    "fixing_letter",
    "Ray",
    "ZERO_RAY",
    "GroupElement",
    "OmegaMismatchError",
    "UnsupportedOmegaError",
    "reduce_word",
    "apply",
    "decompose",
    "is_trivial",
    "canonical_key",
    "enumerate_ball",
    "element_order",
    "in_gamma_plus",
    "in_gamma_plus_tilde",
    "prepend",
    "neighbors",
    "ball",
    "line_coordinate",
    "edge_records",
    "to_dot",
    "CubeVertex",
    "base_vertex",
    "commensuration_delta",
    "act",
    "distance",
    "orbit_growth",
    "stabilizes_gamma_plus",
    "stabilizes_gamma_plus_tilde",
    "stabilizer_in_ball",
    "subgroup_closure",
    "fixed_vertex_for_subgroup",
    "stabilizer_bound_check",
    "verify_restriction_lemma",
    "DEFAULT_OMEGAS",
    "CheckReport",
    "run_suite",
]

__version__ = "0.1.0"
