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

``fixes`` is its definition: g fixes v when act(g, v) == v.  The suites
that visit a whole ball ask it of every element and a list of
(vertex, length) requests at once, and ``_ball_fixers`` answers them in
one walk of ``ball_action``, the only one, up to the largest length,
testing each vertex only within its own, by a rule on integers: g
permutes ℤ, so g can fix v only when |δ(g) Δ v.delta| = |v.delta|, and
only then are the images of v.delta tested to lie in δ(g) Δ v.delta.
Whether the walk's byte tables reach a request is decided once for the
request, from its farthest point and its length; a request past that
reach is answered by the definition, which no command needs.
Within a check run, ``_planned_walk`` makes that one walk per sequence
serve the requests of every ball suite: the first suite to reach a
sequence walks for all of them, and the lists are dropped at the end
of the run.

``ball_action`` grows each element's δ and its byte table of line images
from its parent's by one letter, so the walk looks up no δ and pushes no
word; it walks the words that ``elements._ball_words`` reads, which the
ball table holds as one string per sphere and a read slices out, and it
builds no element.  In this module the byte form of a point t, the byte
t + 127 within the reach 126, appears only in ``ball_action`` and
``_ball_fixers``, and there the walk stays in it: δ and the targets are
sets of bytes, so no point is converted per element.  The δ table that
``commensuration_delta`` reads is bounded at 32 entries, and it saves a
default ``check`` next to nothing: the elements that come one at a time
are mostly distinct, and the locality scan judges each distinct word
once, so one default ``check`` in a fresh process leaves it at 10 hits
and 3,200 misses.  It stays because the benchmark's tracer reads it as
``cubes.delta_cache``.

An element carries its sequence, so ``commensuration_delta``, ``act``
and ``fixes`` read it off g; only ``ball_action``, ``_ball_fixers`` and
``orbit_growth``, which enumerate a ball, are given one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from .elements import GroupElement, _ball_words, enumerate_ball
from .gamma import (
    _IDENTITY,
    _OFFSET,
    _REACH,
    Ray,
    _byte_tables,
    _coordinate,
    _push,
    ray_at,
)
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
        if text in ("∅", ""):
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


@lru_cache(maxsize=32)
def _commensuration(omega: OmegaSequence, word: str) -> frozenset:
    """δ(word) as line coordinates: the cocycle push started from ∅.

    The suffix after each letter s has defect D, and the suffix from s
    on has δ(s) Δ s·D.  Only b, c and d move a coordinate across the
    boundary between −1 and 0, the pair at level 1, and they do so
    unless ω₁ is their symbol.  No window and no hypothesis on ω.

    The table is bounded at 32 entries: the suites that walk a whole
    ball read δ off ball_action, so it serves only the elements that
    come one at a time, and those are mostly distinct; one default check
    in a fresh process leaves it at 10 hits and 3,200 misses.  It is
    kept only because the benchmark's tracer reads it as its delta
    cache.
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
    """Whether g fixes v: v compared with its image under act."""
    return act(g, v) == v


def ball_action(omega: OmegaSequence,
                max_len: int) -> Iterator[tuple[str, frozenset, bytes]]:
    """The word of each element g of enumerate_ball(omega, max_len), in
    order, with δ(g) and its byte table, as (word, δ(g), images), both in
    byte form: δ(g) holds the byte t + 127 of each of its points t, and
    images sends the byte t + 127 to the byte of g·t, as _push would,
    wherever |t| + |g| <= 126.  The words are those of _ball_words: the
    grower's own list when the read grows the ball, else sliced from the
    strings of the table's spheres; no element is built.

    The parent of g is its word r without the last letter s, which
    enumerate_ball's proof shows to be a representative of the sphere
    before; so g = r·s, and g·t = r·(s·t).  Its table is s's letter
    table translated through r's, one ``bytes.translate``, and exact
    where |t| + |g| <= 126, since s moves t by at most 1.  Its δ is
    δ(r) Δ r·δ(s) by the cocycle law, and δ(s) is {−1, 0} or ∅, so δ(g)
    is δ(r) toggled at r's image bytes of −1 and 0 when s swaps that
    pair, read straight off r's table.  Those images are exact while
    |g| <= 126, and no ball that long can be grown, since ball(15) over
    :012 already holds 4,973 elements.

    Only the states of two spheres are kept, the parents' and the
    current one's, so the tables never outnumber two spheres.  The
    ball's checks, a sequence that is not repetition-free or a negative
    max_len, are those of enumerate_ball, made by the one reader of the
    ball table, and raise at the first word.
    """
    steps = _byte_tables(omega)
    parents: dict[str, tuple[frozenset, bytes]] = {}
    current: dict[str, tuple[frozenset, bytes]] = {}
    length = 0
    for word in _ball_words(omega, max_len):
        if not word:
            state = frozenset(), _IDENTITY
        else:
            if len(word) > length:
                parents, current, length = current, {}, len(word)
            delta, images = parents[word[:-1]]
            table, toggles = steps[word[-1]]
            if toggles:
                delta = delta ^ {images[_OFFSET - 1], images[_OFFSET]}
            state = delta, table.translate(images)
        current[word] = state
        yield word, *state


# One check run's fixer lists: the (vertex, max_len) requests that its
# ball suites make of each sequence, as keys, and by sequence the lists
# that the first walk found for all of them.  checks.run_suite fills the
# plan through _planned_walk, which empties both when the run ends.
_planned: dict = {}
_walked: dict[OmegaSequence, dict] = {}


@contextmanager
def _planned_walk(requests: Iterable[tuple[CubeVertex, int]]) -> Iterator[None]:
    """Within the block, one walk per sequence answers every request of
    requests; on leaving it, by return or raise, the lists are dropped."""
    _planned.update(dict.fromkeys(requests))
    try:
        yield
    finally:
        _planned.clear()
        _walked.clear()


def _ball_fixers(omega: OmegaSequence,
                 requests: Iterable[tuple[CubeVertex, int]]) -> list[list]:
    """For each request (v, n), the elements of enumerate_ball(omega, n)
    that fix v, as fixes(g, v) would, in ball order.

    The byte reach is decided once per request.  A request with
    max|t ∈ v.delta| + n <= 126 lies within it: every image that its
    test reads is exact on the walk's tables, and it is answered from
    one pass of ball_action up to the largest such n.  Any other request
    is answered by the definition, fixes on each element of
    enumerate_ball(omega, n); no command makes one, since a check asks
    only of points |t| <= 10, so that would need n >= 116.  The ball
    comes in length order, so a vertex tested only on the elements
    within its own n gets exactly the list that a walk of ball(n) would
    give.  Within a _planned_walk block, requests that all lie in the
    plan are answered from the one walk of the whole plan, made at the
    first such call for the sequence.

    g·v has delta δ(g) Δ g·v.delta, so g fixes v exactly when
    g·v.delta = δ(g) Δ v.delta; g permutes ℤ, so |g·v.delta| = |v.delta|,
    and that needs |δ(g) Δ v.delta| = |v.delta| first.  The images of
    v.delta are distinct, so they make up that target exactly when they
    all lie in it.

    Everything the pass compares is in byte form.  Each request's
    points are held once, as a frozenset of their bytes and as a bytes
    string.  The size test depends on δ(g) only, so the requests that
    pass it are listed once per δ seen in the pass (ball(8) over :012
    has 271 elements and 56 δ), each with its target δ Δ points; the
    lists are built again when a request's ball ends, so no request is
    screened past its n.  Each element then runs only the image test of
    its δ's list, one ``translate`` of the held string through g's table
    and a superset test.  A request given twice is tested once, and both
    places in the result hold the same list.  The walk yields words, and
    an element is built only for a word that fixes some vertex, when it
    is appended to that request's list.
    """
    requests = list(requests)
    planned = bool(_planned) and all(r in _planned for r in requests)
    if planned and omega in _walked:
        fixers = _walked[omega]
        return [fixers[r] for r in requests]
    fixers, live = {}, []
    for v, n in dict.fromkeys(_planned if planned else requests):
        if max(map(abs, v.delta), default=0) + n > _REACH:
            fixers[v, n] = [g for g in enumerate_ball(omega, n) if fixes(g, v)]
        else:
            held = bytes([t + _OFFSET for t in v.delta])
            live.append((n, frozenset(held), held, fixers.setdefault((v, n), [])))
    shortest = min((n for n, *_ in live), default=0)
    candidates: dict[frozenset, list] = {}
    for word, delta, images in ball_action(omega, max((n for n, *_ in live), default=0)):
        if len(word) > shortest:
            live = [request for request in live if request[0] >= len(word)]
            shortest = min(n for n, *_ in live)
            candidates = {}
        passing = candidates.get(delta)
        if passing is None:
            passing = candidates[delta] = [
                (found, held, target) for _, points, held, found in live
                if len(target := delta ^ points) == len(points)
            ]
        for found, held, target in passing:
            if target.issuperset(held.translate(images)):
                found.append(GroupElement._make((omega, word)))
    if planned:
        _walked[omega] = fixers
    return [fixers[r] for r in requests]


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
