"""Vertices of the cube complex the group acts on.

A vertex is a two-colouring of the line Γ = ℤ that agrees with the right
half-line colouring Γ₊ (t ≥ 0) outside a finite set; only that symmetric
difference (delta) is stored, as line coordinates.  Two vertices span an
edge when their deltas differ in one point.

The group acts through the defect δ(g) = Γ₊ Δ gΓ₊, a finite set for
every g.  It is a cocycle, δ(gh) = δ(g) Δ g·δ(h), so it is fixed by its
values on the generators: δ(a) = ∅, and for s ∈ {b, c, d}, δ(s) is the
pair {−1, 0} of line coordinates that s swaps across the boundary when
ω₁ is not its symbol, and ∅ when it is.  A vertex v goes to the vertex
with delta δ(g) Δ g·v.delta, which is the same cocycle push through the
word started from v.delta in place of ∅: ``act`` is that push, and δ(g)
is the push started from ∅.

Whether g fixes v is asked far more often than where g sends it, so
``fixes`` answers that without building the image: g permutes ℤ, and a
size test on the cached δ(g) rejects most pairs before any point of the
delta is moved.

An element carries its sequence, so ``commensuration_delta``, ``act``
and ``fixes`` read it off g; only ``orbit_growth``, which enumerates a
ball, is given one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from .elements import GroupElement, enumerate_ball
from .gamma import Ray, _coordinate, _push, ray_at
from .omega import OmegaSequence


class CubeVertex(NamedTuple):
    """A finite colouring of the line, by the line coordinates of its delta.

    Rays name the points only in the text form and in flip.
    """

    delta: frozenset = frozenset()

    def flip(self, x: Ray) -> "CubeVertex":
        return CubeVertex(self.delta ^ {_coordinate(x.digits)})

    def text(self) -> str:
        if not self.delta:
            return "∅"
        rays = sorted((ray_at(t) for t in self.delta), key=lambda r: r.digits)
        return ",".join(x.text() for x in rays)

    @classmethod
    def parse(cls, text: str) -> "CubeVertex":
        """Comma-separated rays; an empty part or a repeated ray is an error."""
        if text in ("∅", "", "empty"):
            return cls()
        parts = text.split(",")
        if "" in parts:
            raise ValueError(f"empty ray in vertex {text!r}")
        delta = frozenset(_coordinate(Ray.parse(part).digits) for part in parts)
        if len(delta) != len(parts):
            raise ValueError(f"repeated ray in vertex {text!r}")
        return cls(delta)


def base_vertex() -> CubeVertex:
    """The vertex coloured exactly by the right half-line."""
    return CubeVertex()


@lru_cache(maxsize=None)
def _commensuration(omega: OmegaSequence, word: str) -> frozenset:
    """δ(word) as line coordinates: the cocycle push started from ∅.

    The suffix after each letter s has defect D, and the suffix from s
    on has δ(s) Δ s·D.  Only b, c and d move a coordinate across the
    boundary between −1 and 0, the pair at level 1, and they do so
    unless ω₁ is their symbol.  No window and no hypothesis on ω.
    """
    return frozenset(_push(omega, word, (), cocycle=True))


def commensuration_delta(g: GroupElement) -> frozenset:
    """δ(g) = Γ₊ Δ gΓ₊, the line coordinates g moves across the half-line
    boundary."""
    return _commensuration(g.omega, g.word)


def act(g: GroupElement, v: CubeVertex) -> CubeVertex:
    """Image of a vertex: the cocycle push started from v.delta.

    Started from ∅ the push builds δ(g); started from v.delta it builds
    δ(g) Δ g·v.delta, because δ(gh) = δ(g) Δ g·δ(h) letter by letter.
    """
    return CubeVertex(frozenset(_push(g.omega, g.word, v.delta, cocycle=True)))


def fixes(g: GroupElement, v: CubeVertex) -> bool:
    """Whether g fixes v: the answer of comparing v with its image under act.

    g·v has delta δ(g) Δ g·v.delta, so g fixes v exactly when
    g·v.delta = δ(g) Δ v.delta; g permutes ℤ, so |g·v.delta| = |v.delta|,
    and that needs |δ(g) Δ v.delta| = |v.delta| first.  Only then is
    the delta pushed through g; its |v.delta| images are distinct, so
    they make up the target exactly when they all lie in it.
    """
    target = commensuration_delta(g) ^ v.delta
    return len(target) == len(v.delta) and target.issuperset(_push(g.omega, g.word, v.delta))


def distance(v: CubeVertex, w: CubeVertex) -> int:
    """Hamming distance between the colourings."""
    return len(v.delta ^ w.delta)


class OrbitRow(NamedTuple):
    length: int
    max_distance: int
    witness_word: str


def orbit_growth(omega: OmegaSequence, v: CubeVertex, max_len: int) -> list[OrbitRow]:
    """Cumulative maximum displacement of v over balls of growing length.

    One row per length, carrying a witness word that attains the maximum.
    The ball comes sphere by sphere, and no sphere of an infinite group
    is empty, so one pass closes a row at the end of each sphere.
    """
    best, witness = 0, ""
    rows = []
    for length, sphere in groupby(enumerate_ball(omega, max_len), lambda g: g.length):
        for g in sphere:
            d = distance(v, act(g, v))
            if d > best:
                best, witness = d, g.word
        rows.append(OrbitRow(length, best, witness))
    return rows
