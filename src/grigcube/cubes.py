"""Vertices of the cube complex the group acts on.

A vertex is a two-colouring of the rays that agrees with the right
half-line colouring outside a finite set; only that symmetric difference
(delta) is stored.  Two vertices span an edge when their deltas differ in
one ray, and hyperplanes are labelled by rays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .elements import (
    GroupElement,
    OmegaMismatchError,
    Ray,
    apply,
    enumerate_ball,
)
from .gamma import in_gamma_plus, line_apply, ray_at
from .omega import OmegaSequence


class DimensionLimitError(ValueError):
    """Raised when a cube would be expanded past the configured dimension."""


@dataclass(frozen=True)
class CubeVertex:
    delta: frozenset = field(default_factory=frozenset)

    def color(self, x: Ray) -> bool:
        return in_gamma_plus(x) != (x in self.delta)

    def flip(self, x: Ray) -> "CubeVertex":
        return CubeVertex(self.delta ^ {x})

    def text(self) -> str:
        if not self.delta:
            return "∅"
        return ",".join(x.text() for x in sorted(self.delta, key=lambda r: r.digits))

    @classmethod
    def parse(cls, text: str) -> "CubeVertex":
        """Comma-separated rays; an empty part or a repeated ray is an error."""
        if text in ("∅", "", "empty"):
            return cls()
        parts = text.split(",")
        if "" in parts:
            raise ValueError(f"empty ray in vertex {text!r}")
        delta = frozenset(Ray.parse(part) for part in parts)
        if len(delta) != len(parts):
            raise ValueError(f"repeated ray in vertex {text!r}")
        return cls(delta)


def base_vertex() -> CubeVertex:
    """The vertex coloured exactly by the right half-line."""
    return CubeVertex()


@lru_cache(maxsize=None)
def _commensuration(omega: OmegaSequence, word: str) -> frozenset:
    inverse, n = word[::-1], len(word)
    return frozenset(
        ray_at(t)
        for t in range(-n, n + 1)
        if (t >= 0) != (line_apply(omega, inverse, t) >= 0)
    )


def commensuration_delta(omega: OmegaSequence, g: GroupElement) -> frozenset:
    """Rays moved across the half-line boundary by g.

    Each generator shifts a ray at most one step along the line, so every
    such ray has a coordinate t with |t| <= length(g), and the scan of
    that window, t >= 0 against g^-1 t >= 0, is exhaustive.
    """
    if omega != g.omega:
        raise OmegaMismatchError(f"{omega} vs {g.omega}")
    return _commensuration(omega, g.word)


def act(omega: OmegaSequence, g: GroupElement, v: CubeVertex) -> CubeVertex:
    """Image of a vertex: push the delta forward and add the boundary flips."""
    if omega != g.omega:
        raise OmegaMismatchError(f"{omega} vs {g.omega}")
    moved = frozenset(apply(g, x) for x in v.delta)
    return CubeVertex(_commensuration(omega, g.word) ^ moved)


def distance(v: CubeVertex, w: CubeVertex) -> int:
    """Hamming distance between the colourings."""
    return len(v.delta ^ w.delta)


@dataclass(frozen=True)
class Hyperplane:
    label: Ray


@dataclass(frozen=True)
class HalfSpace:
    label: Ray
    side: bool

    def contains(self, v: CubeVertex) -> bool:
        return v.color(self.label) == self.side


@dataclass(frozen=True)
class Cube:
    """The cube spanned by flipping any subset of the label rays."""

    base: CubeVertex
    labels: frozenset

    @property
    def dimension(self) -> int:
        return len(self.labels)


def cube_vertices(cube: Cube, max_dimension: int = 20) -> set[CubeVertex]:
    if cube.dimension > max_dimension:
        raise DimensionLimitError(
            f"cube of dimension {cube.dimension} exceeds the cap {max_dimension}"
        )
    vertices = {cube.base}
    for label in cube.labels:
        vertices |= {v.flip(label) for v in vertices}
    return vertices


def act_on_cube(omega: OmegaSequence, g: GroupElement, cube: Cube) -> Cube:
    return Cube(
        act(omega, g, cube.base),
        frozenset(apply(g, x) for x in cube.labels),
    )


def separating_hyperplanes(v: CubeVertex, w: CubeVertex) -> set:
    return {Hyperplane(x) for x in v.delta ^ w.delta}


class OrbitRow(NamedTuple):
    length: int
    max_distance: int
    witness_word: str


def orbit_growth(omega: OmegaSequence, v: CubeVertex, max_len: int) -> list[OrbitRow]:
    """Cumulative maximum displacement of v over balls of growing length.

    One row per length, carrying a witness word that attains the maximum.
    """
    by_length = defaultdict(list)
    for g in enumerate_ball(omega, max_len):
        by_length[g.length].append(g)
    best, witness = 0, ""
    rows = []
    for length in range(max_len + 1):
        for g in by_length.get(length, ()):
            d = distance(v, act(omega, g, v))
            if d > best:
                best, witness = d, g.word
        rows.append(OrbitRow(length, best, witness))
    return rows
