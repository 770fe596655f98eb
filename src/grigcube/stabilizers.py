"""Ball-restricted stabilizers of the half-line sets and of cube vertices.

All computations here are restricted to an enumerated ball of elements;
nothing is claimed about elements beyond that ball.  The half-line and
its punctured variant are the cube vertices with delta ∅ and {0}.  In
the balls the suites read, their fixers are a dihedral group of order 8
and a Klein four group; that no longer element joins them is evidence
from the ball, not proved here.

Which ball elements fix a vertex is answered in cubes, by one walk of
the ball, cubes._ball_fixers, for a list of (vertex, length) requests at
once; stabilizer_in_ball, stabilizer_bound_check and
verify_restriction_lemma all read it.  Each works on its own, with a
walk of its own; within a check run, the one walk per sequence that
run_suite plans answers all three and the faithful suite, each vertex
tested only up to its own length.  A subset closed under products gets
a multiplication table, which is checked to be a group's; its type is
named from the orders that element_order gives its elements, a
computation that stops after 64 powers, so a wrong product makes a type
unnamed rather than a loop endless.

The membership tests read the sequence off their elements; only the
functions that walk a ball are given one.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple

from .elements import GroupElement, canonical_key, decompose, element_order
from .cubes import CubeVertex, _ball_fixers, base_vertex, commensuration_delta, fixes
from .gamma import ray_at
from .omega import OmegaSequence


def stabilizes_gamma_plus(g: GroupElement) -> bool:
    """Whether g preserves the right half-line setwise: δ(g) = ∅."""
    return not commensuration_delta(g)


def stabilizes_gamma_plus_tilde(g: GroupElement) -> bool:
    """Whether g preserves the punctured right half-line setwise.

    The punctured half-line Γ₊ Δ {0} is the cube vertex with delta {0},
    so g stabilizes it exactly when g fixes that vertex.
    """
    return fixes(g, _PUNCTURED)


_PUNCTURED = CubeVertex(frozenset({0}))

# Γ₊ and Γ₊ Δ {0}, whose fixers the stab and projections suites read
_HALF_LINES = (base_vertex(), _PUNCTURED)


class SmallGroupTable(NamedTuple):
    """A finite subset with the isomorphism type that its multiplication
    table shows.

    The type is trivial, Z2, Z4, Z2xZ2 or D8 when the subset has a table
    and its element orders are exactly those of that group (see
    _recognize), and other(n), n the order, in every other case.
    """

    elements: tuple
    recognized_type: str

    @property
    def order(self) -> int:
        return len(self.elements)


def _build_table(elements: tuple) -> tuple | None:
    index = {canonical_key(g): i for i, g in enumerate(elements)}
    rows = []
    for g in elements:
        row = []
        for h in elements:
            k = canonical_key(g * h)
            if k not in index:
                return None
            row.append(index[k])
        rows.append(tuple(row))
    return tuple(rows)


def _validate_table(table: tuple) -> None:
    """Raise AssertionError unless every row is a permutation and the
    table is associative, checked on every triple."""
    n = len(table)
    for row in table:
        if sorted(row) != list(range(n)):
            raise AssertionError("multiplication table row is not a permutation")
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise AssertionError("multiplication table is not associative")


# the sorted element orders of each group of order at most 4
_SMALL_TYPES = {
    (1,): "trivial",
    (1, 2): "Z2",
    (1, 2, 4, 4): "Z4",
    (1, 2, 2, 2): "Z2xZ2",
}


def _recognize(elements: tuple, table: tuple | None) -> str:
    """The type of a subset from its table and its element orders.

    The orders come from element_order, which gives None past 64, read
    here as 0, so such an element matches no rule.  The rules are exact:
    trivial, Z2, Z4 and Z2xZ2 need the sorted orders (1), (1, 2),
    (1, 2, 4, 4) and (1, 2, 2, 2); D8 needs five of order 2 and two of
    order 4 beside the identity, and a table that does not commute.
    Anything else, and any subset without a table, is other(n).
    """
    n = len(elements)
    if table is None:
        return f"other({n})"
    orders = tuple(sorted(element_order(g) or 0 for g in elements))
    abelian = all(
        table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n)
    )
    if orders == (1, 2, 2, 2, 2, 2, 4, 4) and not abelian:
        return "D8"
    return _SMALL_TYPES.get(orders, f"other({n})")


def _small_group_table(elements: tuple) -> SmallGroupTable:
    """The subset with its type: the multiplication table is built when
    the subset is closed within itself and checked to be a group's, and
    _recognize names the type from the element orders and whether the
    table commutes."""
    table = _build_table(elements)
    if table is not None:
        _validate_table(table)
    return SmallGroupTable(elements, _recognize(elements, table))


def stabilizer_in_ball(
    omega: OmegaSequence, vertices: list[CubeVertex], max_len: int
) -> list[SmallGroupTable]:
    """The ball elements that fix each cube vertex, one SmallGroupTable
    per vertex, in order, all found in one pass over the ball.

    The half-line Γ₊ is the base vertex and the punctured half-line
    Γ₊ Δ {0} the vertex with delta {0}, so their stabilizers are the
    tables of those two vertices.
    """
    return [_small_group_table(tuple(found))
            for found in _ball_fixers(omega, [(v, max_len) for v in vertices])]


def subgroup_closure(generators: Iterable[GroupElement]) -> tuple:
    """Close a set of elements under products; errors past 64 elements."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    omega = gens[0].omega
    identity = GroupElement.identity(omega)
    found = {canonical_key(identity): identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = g * s
                key = canonical_key(h)
                if key not in found:
                    if len(found) >= 64:
                        raise ValueError("subgroup exceeds 64 elements")
                    found[key] = h
                    new.append(h)
        frontier = new
    return tuple(found.values())


def fixed_vertex_for_subgroup(subgroup: Iterable[GroupElement]) -> CubeVertex:
    """A cube vertex fixed by every element of a finite subgroup.

    The vertex colours the union of the subgroup translates of the right
    half-line; its delta is the part of that union off the half-line,
    the coordinates t < 0 of the δ(h).  Raises ValueError if the input
    is empty or not closed under products, and AssertionError if the
    candidate is not fixed.

    Closure under products is the whole subgroup test.  The powers of an
    element g of a finite set closed under products lie in the set, so
    two of them agree, g^i = g^j with i < j.  Then g^(j-i) is the
    identity, and the inverse of g is g^(j-i-1), the identity again when
    j = i + 1; both are in the set.
    """
    elements = tuple(subgroup)
    if not elements or _build_table(elements) is None:
        raise ValueError("not a subgroup: empty or not closed under products")
    vertex = CubeVertex(frozenset(
        t for h in elements for t in commensuration_delta(h) if t < 0
    ))
    for h in elements:
        if not fixes(h, vertex):
            raise AssertionError(f"candidate vertex moved by {h.word!r}")
    return vertex


class BoundCheck(NamedTuple):
    order: int
    bound: int
    ok: bool


def stabilizer_bound_check(
    omega: OmegaSequence, vertices: Iterable[CubeVertex], max_len: int
) -> list[BoundCheck]:
    """Check the ball-restricted stabilizer of each vertex v against
    8 * 4 * 4^n, one BoundCheck per vertex, in order.

    n is the smallest even integer bounding the digit length of every
    ray in the delta of v.  The order counts the ball elements that fix
    v, found by the one pass of _ball_fixers, as stabilizer_in_ball
    finds them.
    """
    vertices = list(vertices)
    checks = []
    for v, found in zip(vertices, _ball_fixers(omega, [(v, max_len) for v in vertices])):
        depth = max((len(ray_at(t).digits) for t in v.delta), default=0)
        if depth % 2:
            depth += 1
        bound = 8 * 4 * 4**depth
        checks.append(BoundCheck(len(found), bound, len(found) <= bound))
    return checks


class RestrictionReport(NamedTuple):
    case_counts: dict
    violations: tuple


def verify_restriction_lemma(omega: OmegaSequence, max_len: int) -> RestrictionReport:
    """Check how half-line stabilization passes to subtree restrictions.

    For every ball element g with restrictions (g0, g1) over the shifted
    sequence, three cases are counted:

    * g fixes level 1 and stabilizes the half-line: g0 and g1 must
      stabilize the punctured half-line.
    * g fixes level 1 and stabilizes the punctured half-line: g0 must
      stabilize the half-line and g1 the punctured half-line.
    * g swaps level 1 and stabilizes the punctured half-line: g0 would
      have to carry the half-line onto the punctured half-line, which no
      element does, so every such g is a violation.

    Note the second case does not put g0 in the punctured stabilizer nor
    g1 in the plain one: the letter d over (012) repeated stabilizes both
    sets, yet its right restriction moves the all-zero ray off the
    half-line.

    The third case never occurs, on any sequence, so its count is 0.
    Each δ(s) has 0 or 2 points and δ(gh) = δ(g) Δ g·δ(h), so |δ(g)| is
    always even, while g0 carrying the half-line onto the punctured
    half-line means δ(g0) = {0}, which is odd.

    Both stabilizers come from one walk of _ball_fixers, as the fixers
    of the base vertex and of the vertex {0}, and only their elements
    are decomposed; an element of both is decomposed once per list.  So
    the violations come by case: the half_line ones in ball order, then
    the punctured and swapping ones in ball order.
    """
    counts = {"half_line": 0, "punctured": 0, "swapping": 0}
    violations = []
    plus, tilde = _ball_fixers(omega, [(v, max_len) for v in _HALF_LINES])
    for g in plus:
        swap, g0, g1 = decompose(g)
        if not swap:
            counts["half_line"] += 1
            if not (stabilizes_gamma_plus_tilde(g0) and stabilizes_gamma_plus_tilde(g1)):
                violations.append(f"{g.word or '1'}: half_line")
    for g in tilde:
        swap, g0, g1 = decompose(g)
        if swap:
            counts["swapping"] += 1
            violations.append(f"{g.word or '1'}: swapping")
        else:
            counts["punctured"] += 1
            if not (stabilizes_gamma_plus(g0) and stabilizes_gamma_plus_tilde(g1)):
                violations.append(f"{g.word or '1'}: punctured")
    return RestrictionReport(counts, tuple(violations))
