"""The orbital graph of the all-zero ray: a labelled two-ended line, as ℤ.

Vertices are the rays with finitely many 1s.  Each ray x gets an integer
coordinate c(x), read off its digits in closed form:

    c(ε) = 0,   c(w0) = c(w),   c(w1) = J(n) − c(w)  for the 1 at position n,

    J(n) = (−1)^(n+1) · (2^n − (−1)^n) / 3 = (1 − (−2)^n) / 3
         = 1, −1, 3, −5, 11, −21, …

The coordinates of the rays with at most n digits form the interval
I_n = I_{n−1} ∪ (J(n) − I_{n−1}) of 2^n integers, the two halves disjoint
and adjacent, so c is a bijection from the rays onto ℤ.  In these
coordinates the generators act by a rule in which the sequence only
picks a letter:

* ``a`` swaps 2k and 2k + 1;
* b, c and d pair 2k − 1 with 2k.  The pair whose odd end is u sits at
  level L = ν₂(3u + 1); the letter whose symbol is ω_L fixes both ends
  and the other two swap them.

Every edge therefore joins neighbouring integers, and the graph is the
line ℤ with the all-zero ray at 0.  Its unlabelled shape does not depend
on the sequence, only the labels do.  The right half-line (gamma plus)
is t ≥ 0: the all-zero ray and the rays whose last 1 sits at an odd
position.  The punctured right half-line is t ≥ 1.

Inside the package a vertex is its coordinate, and one private function,
``_push``, is the generator action: it moves many coordinates through a
word letter by letter, by one of the two paths below.  Started from ∅
with the boundary flips of the cocycle it builds the defect δ(g) of the
cube complex, and started from a vertex's delta it acts on that vertex
(see cubes).  ``line_apply`` pushes one coordinate, ``ball_edges``
pushes the whole interval of a ball through each letter, and
``_window_signs`` takes the same two paths for a window of the line.

A push has two paths.  A letter moves a point by at most 1, so no
point gets further from 0 than max|t| + len(word), its reach.  When the
reach is at most 126, the points travel as one byte string, the byte
of t being t + 127, and each letter is one ``bytes.translate`` through
a 256-byte table of that letter's images over |t| ≤ 126.  In the
cocycle, a letter s that swaps the boundary pair {−1, 0} must give
s·D Δ {−1, 0}, which holds −1 exactly when 0 ∉ D and 0 exactly when
−1 ∉ D.  So s translates through a second table, its own with −1 and 0
held fixed, and the pair is removed when D held both and added when it
held neither; with one of them, that one is already right.  The tables
of a sequence are built from the level rule on first use and kept in a
small cache.  Every δ(g), ``act`` and ``fixes`` of the check suites
runs this way.  The locality scan of the ``commensuration`` suite asks
``_window_signs`` for the signs of a window's images: on this path the
images stay bytes, and one more ``translate`` turns them into sign
bytes, for every word of up to 61 letters.  A larger reach,
such as the radius-200 interval of ``schreier``, a far ray given to
``act`` or ``orbit`` or the window of a longer locality word, takes the
level rule point by point; it is the only path that reaches past ±126.

Rays appear at the edges: parsing and printing cube vertices, the
digit-prefix suite, ``apply`` and ``neighbors`` (thin wrappers that take
and return rays), and the DOT and JSON output, which is sorted by
coordinate.  The ball of radius r is the interval |t| ≤ r, and
``_interval_rays`` lists its rays in coordinate order in one pass of the
doubling of I_n; ``ball``, ``ball_edges`` and ``to_dot`` read that list,
``to_dot`` once for its vertices and its edges.  ``ray_at``
serves single points, such as the rays that ``act``, the checks and the
stabilizers print.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

from .omega import LETTER_SYMBOL, OmegaSequence

GENERATOR_COLORS = {"a": "red", "b": "blue", "c": "green", "d": "orange"}


class Ray(namedtuple("Ray", "digits")):
    """A boundary ray of the tree carrying finitely many 1s.

    Stored as the digit prefix up to and including the last 1; the empty
    string is the all-zero ray.
    """

    __slots__ = ()

    def __new__(cls, digits: str = "") -> "Ray":
        # strip() leaves something exactly when a digit is not 0 or 1
        if digits and (digits.strip("01") or digits[-1] != "1"):
            raise ValueError(f"not a canonical ray: {digits!r}")
        return super().__new__(cls, digits)

    @classmethod
    def from_digits(cls, digits: str) -> "Ray":
        """Build a ray from any finite 0/1 prefix, dropping trailing zeros."""
        return cls(digits.rstrip("0"))

    def text(self) -> str:
        return self.digits if self.digits else "0inf"

    @classmethod
    def parse(cls, text: str) -> "Ray":
        return cls("") if text == "0inf" else cls(text)


ZERO_RAY = Ray("")


def in_gamma_plus(x: Ray) -> bool:
    """Right half-line membership."""
    return not x.digits or len(x.digits) % 2 == 1


def in_gamma_plus_tilde(x: Ray) -> bool:
    """Right half-line with the all-zero ray removed."""
    return bool(x.digits) and len(x.digits) % 2 == 1


def prepend(bit: str, x: Ray) -> Ray:
    if bit not in ("0", "1"):
        raise ValueError(f"invalid digit {bit!r}")
    return Ray.from_digits(bit + x.digits)


class LabelledEdge(NamedTuple):
    source: Ray
    target: Ray
    label: str


def neighbors(omega: OmegaSequence, x: Ray) -> list[LabelledEdge]:
    """The four labelled edges at x, loops included."""
    t = _coordinate(x.digits)
    return [LabelledEdge(x, ray_at(line_apply(omega, s, t)), s) for s in "abcd"]


def _jump(n: int) -> int:
    """J(n) = (1 − (−2)^n) / 3, the reflection point of digit n."""
    return (1 - (-2) ** n) // 3


@lru_cache(maxsize=4096)
def line_coordinate(x: Ray) -> int:
    """Signed distance from the all-zero ray, positive on the gamma plus side.

    The digit formula: c(ε) = 0, a 0 at position n keeps c and a 1
    reflects it to J(n) − c.  The rays whose last 1 sits at position n
    get the block J(n) − I_{n−1}, just above I_{n−1} for odd n and just
    below it for even n, so c maps the rays onto ℤ with gamma plus on
    t ≥ 0.  Every edge joins t to t ± 1 (see _push), so |c(x)| is
    the edge distance from the all-zero ray.  The formula reads digits
    only, so it holds for every sequence; ω decides the edge labels, not
    the positions.  Memoised per ray in a bounded table, as ray_at is,
    because a traced run reports the counters of this table; only the
    sort of to_dot fills it.
    """
    return _coordinate(x.digits)


def _coordinate(digits: str) -> int:
    """The coordinate of a digit prefix; trailing zeros do not move it."""
    c = 0
    for n, digit in enumerate(digits, 1):
        if digit == "1":
            c = _jump(n) - c
    return c


@lru_cache(maxsize=4096)
def ray_at(t: int) -> Ray:
    """The ray with line coordinate t, the inverse of line_coordinate.

    Grows I_n = I_{n−1} ∪ (J(n) − I_{n−1}) from I_0 = {0} until it holds
    t; the last digit is then a 1 at position n.  Reading down, digit k
    is 0 when the remaining value lies in I_{k−1} and 1 otherwise, and a
    1 reflects the value back through J(k).  No sequence is involved, so
    the same ray answers for every ω.  The scans ask for the same few
    coordinates near 0 over and over, so a bounded table keeps them.
    """
    bounds = [(0, 0)]
    while not bounds[-1][0] <= t <= bounds[-1][1]:
        lo, hi = bounds[-1]
        j = _jump(len(bounds))
        bounds.append((min(lo, j - hi), max(hi, j - lo)))
    digits = []
    for k in range(len(bounds) - 1, 0, -1):
        lo, hi = bounds[k - 1]
        if lo <= t <= hi:
            digits.append("0")
        else:
            digits.append("1")
            t = _jump(k) - t
    return Ray("".join(reversed(digits)))


# the pair at level 1, which b, c or d swaps across the half-line boundary
# unless ω₁ is its symbol
_BOUNDARY = frozenset({-1, 0})

# coordinates |t| <= _REACH travel as the bytes t + _OFFSET, 1 to 253,
# and their images under one letter as bytes 0 to 254
_REACH = 126
_OFFSET = 127
# the bytes of −1 and 0, which a cocycle push holds fixed
_LOW, _HIGH = _OFFSET - 1, _OFFSET
_PAIR = bytes([_LOW, _HIGH])
# the byte table of the identity, which sends every byte to itself; its
# slice [_OFFSET - r, _OFFSET + r] is the window |t| <= r as bytes
_IDENTITY = bytes(range(256))


def _push(omega: OmegaSequence, word: str, points, cocycle: bool = False) -> list:
    """Images of coordinates under a word, letters right to left, in the
    order the points are given.

    Every edge joins t to t ± 1, so a letter moves a point by at most 1
    and the points stay within max|t| + len(word) of 0 while they travel.
    When that reach is at most _REACH (126), every point is a byte of
    one string and each letter is one ``bytes.translate`` through the
    letter's table from _byte_tables; with ``cocycle`` set, a letter that
    swaps the boundary pair translates through its held table and adds
    or removes the pair by the rule of _push_bytes.  Every δ(g), ``act``
    and ``fixes`` of the check suites takes that path; δ(g), pushed from
    no points, goes to the bytes directly.  A larger reach, as the
    radius-200 interval of ``schreier`` or a far ray given to ``act`` or
    ``orbit``, runs the level rule of _rule_push point by point, the only
    path that reaches past ±126.

    With ``cocycle`` set, the points are a set and the result is
    δ(s) Δ s·D after each letter s, for the set D pushed through the
    suffix: δ(s) is {−1, 0} for a letter of b, c, d whose symbol is not
    ω₁ and ∅ otherwise.  So started from ∅ the loop builds δ(word) and
    started from a vertex delta it builds the delta of the image vertex
    (see cubes).  The result then lists that set in no particular order.
    """
    if not points and len(word) <= _REACH:
        return [byte - _OFFSET for byte in _push_bytes(omega, word, b"", cocycle)]
    points = list(points)
    if max(map(abs, points), default=0) + len(word) > _REACH:
        return _rule_push(omega, word, points, cocycle)
    held = _push_bytes(omega, word, bytes([t + _OFFSET for t in points]), cocycle)
    return [byte - _OFFSET for byte in held]


def _push_bytes(omega: OmegaSequence, word: str, held: bytes,
                cocycle: bool = False) -> bytes:
    """The byte path of _push: points held as the bytes t + _OFFSET, of
    reach at most _REACH, and their images held the same way.

    With ``cocycle`` set, a letter s that swaps −1 and 0 must send the
    set D to s·D Δ {−1, 0}, and it does so with no search for the pair:
    s·D holds −1 exactly when 0 ∈ D and 0 exactly when −1 ∈ D, so
    s·D Δ {−1, 0} holds −1 exactly when 0 ∉ D and 0 exactly when −1 ∉ D.
    Off the pair it is s·(D ∖ {−1, 0}), which misses the pair, since s
    maps the pair onto itself.  So D goes through s's held table, which
    is s's table with the bytes of −1 and 0 fixed, and then, with both
    of the pair in D, both are removed, with neither, both are added,
    and with exactly one, that one is already right.
    """
    steps = _byte_tables(omega)
    if not cocycle:
        for letter in reversed(word):
            held = held.translate(steps[letter][0])
        return held
    for letter in reversed(word):
        table, held_table = steps[letter]
        if held_table is None:
            held = held.translate(table)
            continue
        low, high = _LOW in held, _HIGH in held
        if low and high:
            held = held.translate(held_table, _PAIR)
        elif low or high:
            held = held.translate(held_table)
        else:
            held = held.translate(held_table) + _PAIR
    return held


# the sign of each byte's coordinate: 1 where t = byte - _OFFSET >= 0;
# a literal, so nothing is computed at import
_SIGNS = b"\0" * 127 + b"\1" * 129


def _window_signs(omega: OmegaSequence, word: str, radius: int) -> bytes:
    """The signs of the images of the window |t| <= radius under a word,
    in the order of t: byte 1 where the image is >= 0, else 0.

    Within the byte reach the window is pushed by _push_bytes and its
    images, held as bytes, go through one more ``translate``, by
    _SIGNS; they never become ints.  A larger reach, radius + len(word)
    > _REACH, runs the level rule of _rule_push point by point.
    """
    if radius + len(word) > _REACH:
        window = range(-radius, radius + 1)
        return bytes([image >= 0 for image in _rule_push(omega, word, window)])
    window = _IDENTITY[_OFFSET - radius:_OFFSET + radius + 1]
    return _push_bytes(omega, word, window).translate(_SIGNS)


@lru_cache(maxsize=32)
def _byte_tables(omega: OmegaSequence) -> dict[str, tuple[bytes, bytes | None]]:
    """Per letter, its ``bytes.translate`` table over |t| <= _REACH and,
    when it swaps the boundary pair {−1, 0} under ω, its held table,
    which is the same table with the bytes of −1 and 0 fixed; None for
    a letter that does not swap the pair, so the second entry also
    answers whether it does.

    The table sends byte t + _OFFSET to the byte of the letter's image of
    t, as _rule_push computes it; the image lies in |t| <= 127.  The
    other bytes map to themselves, and _push keeps every point off them.
    The letter swaps the boundary pair exactly when its table sends −1
    to 0.  Built on first use, never at import.  The five default
    sequences and their shifts are 10 sequences, since 2:01 shifts to
    :01, and a default check builds tables for 9 of them, so the bound
    holds them all.
    """
    span = range(-_REACH, _REACH + 1)
    steps = {}
    for letter in "abcd":
        table = bytearray(_IDENTITY)
        table[_OFFSET - _REACH:_OFFSET + _REACH + 1] = bytes(
            [image + _OFFSET for image in _rule_push(omega, letter, span)])
        held_table = table.copy()
        held_table[_LOW:_HIGH + 1] = _PAIR
        steps[letter] = bytes(table), bytes(held_table) if table[_LOW] == _HIGH else None
    return steps


def _rule_push(omega: OmegaSequence, word: str, points, cocycle: bool = False) -> list:
    """The level rule: _push for points at any distance from 0, one
    point and one letter at a time.

    ``a`` flips the first digit, so it swaps two rays that agree after
    it.  Their coordinates start as {0, 1}, and each later 1 at position
    k maps the pair {2m, 2m + 1} to {J(k) − 2m − 1, J(k) − 2m}, again of
    that form as J(k) is odd: ``a`` is t ↦ t XOR 1.

    A letter of b, c, d keeps the prefix 1^(L−1) 0 up to the first 0 and
    flips digit L + 1 unless ω_L is its symbol.  The rays 1^(L−1) 0 and
    1^(L−1) 0 1 sit at the ends of {u₀, u₀ + 1}, u₀ odd, with
    3u₀ + 1 = (−2)^L.  A later 1 at position k > L + 1 sends the odd end
    u to u' = J(k) − u − 1, and 3u' + 1 = ±2^k − (3u + 1) keeps
    ν₂(3u + 1) = L.  So the pair {u, u + 1}, u odd, lies at level
    L = ν₂(3u + 1), and the two letters whose symbol is not ω_L swap it.
    The sequence only picks the fixing letter, so the rule holds for
    every ω; its two strings are read once per call and indexed by L.
    """
    pre, period = omega.preperiod, omega.period
    n_pre, n_period = len(pre), len(period)
    first = pre[0] if pre else period[0]
    points = list(points)
    for letter in reversed(word):
        if letter == "a":
            points = [t ^ 1 for t in points]
            continue
        symbol = LETTER_SYMBOL[letter]
        moved = []
        for t in points:
            u = t if t & 1 else t - 1
            v = 3 * u + 1
            level = (v & -v).bit_length() - 1
            if level <= n_pre:
                fixing = pre[level - 1]
            else:
                fixing = period[(level - n_pre - 1) % n_period]
            moved.append(t if fixing == symbol else 2 * u + 1 - t)
        points = moved
        if cocycle and first != symbol:
            points = list(_BOUNDARY.symmetric_difference(points))
    return points


def line_apply(omega: OmegaSequence, word: str, t: int) -> int:
    """Image of the coordinate t under a word: the push of [t]."""
    return _push(omega, word, (t,))[0]


def _interval_rays(radius: int) -> list[Ray]:
    """The rays of the coordinates −radius … radius, in coordinate order;
    empty for a negative radius.

    One pass of the doubling I_n = I_{n−1} ∪ (J(n) − I_{n−1}): the ray
    of J(n) − c is the ray of c padded with 0s to n − 1 digits, then a 1,
    and c ↦ J(n) − c reverses the order, so the new block is the old
    list reversed and extended.  It goes above I_{n−1} for odd n and
    below it for even n.  ray_at serves single points.
    """
    rays, low, n = [""], 0, 0
    # rays[i] is the ray of coordinate low + i
    while low > -radius or low + len(rays) <= radius:
        n += 1
        block = [digits.ljust(n - 1, "0") + "1" for digits in reversed(rays)]
        if n % 2:
            rays += block
        else:
            rays = block + rays
            low -= len(block)
    return [Ray(digits) for digits in rays[-radius - low:radius - low + 1]]


def ball(radius: int) -> set[Ray]:
    """Vertices within the given edge distance of the all-zero ray.

    The line is ℤ for every sequence, so the ball is the interval of
    coordinates |t| ≤ radius, built in one pass; it is empty for a
    negative radius.
    """
    return set(_interval_rays(radius))


def ball_edges(omega: OmegaSequence, radius: int) -> list[LabelledEdge]:
    """Edges with both endpoints in the ball, one per unordered pair and label.

    The ball is an interval, so each letter pushes the whole of it at
    once.  Each letter is an involution, so every edge shows up at both
    ends and is kept at its lower one, t ≤ image.  Sorted by endpoint
    line coordinates and label, so output is diffable.
    """
    return _edges(omega, radius, _interval_rays(radius))


def _edges(omega: OmegaSequence, radius: int, rays: list[Ray]) -> list[LabelledEdge]:
    """ball_edges on the ball's rays, _interval_rays(radius), once built."""
    interval = range(-radius, radius + 1)
    edges = sorted(
        (t, image, label)
        for label in "abcd"
        for t, image in zip(interval, _push(omega, label, interval))
        if t <= image <= radius
    )
    return [LabelledEdge(rays[s + radius], rays[t + radius], label) for s, t, label in edges]


def edge_records(omega: OmegaSequence, radius: int) -> list[dict]:
    """JSON-ready {source, target, label} records for the ball graph."""
    return [
        {"source": s.text(), "target": t.text(), "label": label}
        for s, t, label in ball_edges(omega, radius)
    ]


def to_dot(omega: OmegaSequence, radius: int) -> str:
    """Graphviz source for the ball graph, stable-sorted; the ball's rays
    are built once, for the vertices and the edges."""
    rays = _interval_rays(radius)
    vertices = sorted(rays, key=line_coordinate)
    lines = ["graph schreier {", "  node [shape=circle];"]
    lines += [f'  "{v.text()}";' for v in vertices]
    lines += [
        f'  "{s.text()}" -- "{t.text()}" [label="{label}", color="{GENERATOR_COLORS[label]}"];'
        for s, t, label in _edges(omega, radius, rays)
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
