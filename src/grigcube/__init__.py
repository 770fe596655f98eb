"""Grigorchuk groups acting on a two-ended Schreier graph and the
CAT(0) cube complex built from commensurated half-lines.

Importing the package loads none of its modules: each exported name is
bound on first access by importing the one module that defines it
(PEP 562), so a CLI command pays only for the layers it runs.
"""

# each exported name and the module that defines it
_HOMES = {
    "OmegaSequence": "omega",
    "OmegaParseError": "omega",
    "UnsupportedOmegaError": "omega",
    "DEFAULT_OMEGAS": "omega",
    "passive_letter": "omega",
    "fixing_letter": "omega",
    "Ray": "gamma",
    "ZERO_RAY": "gamma",
    "in_gamma_plus": "gamma",
    "in_gamma_plus_tilde": "gamma",
    "prepend": "gamma",
    "neighbors": "gamma",
    "ball": "gamma",
    "line_coordinate": "gamma",
    "edge_records": "gamma",
    "to_dot": "gamma",
    "GroupElement": "elements",
    "OmegaMismatchError": "elements",
    "reduce_word": "elements",
    "apply": "elements",
    "decompose": "elements",
    "is_trivial": "elements",
    "canonical_key": "elements",
    "enumerate_ball": "elements",
    "element_order": "elements",
    "CubeVertex": "cubes",
    "base_vertex": "cubes",
    "commensuration_delta": "cubes",
    "act": "cubes",
    "distance": "cubes",
    "orbit_growth": "cubes",
    "stabilizes_gamma_plus": "stabilizers",
    "stabilizes_gamma_plus_tilde": "stabilizers",
    "stabilizer_in_ball": "stabilizers",
    "subgroup_closure": "stabilizers",
    "fixed_vertex_for_subgroup": "stabilizers",
    "stabilizer_bound_check": "stabilizers",
    "verify_restriction_lemma": "stabilizers",
    "CheckReport": "checks",
    "run_suite": "checks",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that defines an exported name and bind the name
    here, so later reads find it without this hook."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value
