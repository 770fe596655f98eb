"""Automorphisms of the rooted binary tree generated by a, b, c, d.

Elements are stored as reduced words over the four involutive generators.
Reduction rewrites modulo the relations x^2 = 1 and bc = cb = d (with its
cyclic renamings), so a reduced word alternates between "a" and a single
letter of {b, c, d}.  One recursion on subtree restrictions, which
contracts word length, gives each word its portrait key; the word problem
reads that key.
"""

from __future__ import annotations

import re
from collections import defaultdict, namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .gamma import Ray, _coordinate, line_apply, ray_at
from .omega import LETTER_SYMBOL, OmegaSequence, UnsupportedOmegaError, passive_letter

GENERATORS = "abcd"
BCD = "bcd"

# each adjacent pair of distinct letters of b, c, d and the third letter it
# merges into
_MERGE = {"bc": "d", "cb": "d", "cd": "b", "dc": "b", "bd": "c", "db": "c"}

# a foreign letter, or an adjacent pair that reduce_word would rewrite
_NOT_REDUCED = re.compile("[^abcd]|aa|[bcd][bcd]")


class OmegaMismatchError(ValueError):
    """Raised when combining elements defined over different sequences."""


def _require_distinct_letters(omega: OmegaSequence) -> None:
    """The gate of canonical_key and enumerate_ball, which need b, c and
    d to be nontrivial and pairwise distinct automorphisms over every
    shift of the sequence.  A repetition-free sequence guarantees that,
    so any other sequence raises UnsupportedOmegaError.
    """
    if not omega.is_repetition_free():
        raise UnsupportedOmegaError(
            f"sequence {omega} is not repetition-free; letters may coincide "
            "as automorphisms, so its elements cannot be told apart"
        )


def _append(word: str, letter: str) -> str:
    """The reduced form of word + letter, for a reduced word: only the
    last letter of word can cancel or merge with it.  This is the one
    statement of the rewriting rule; reduce_word and the product of
    GroupElement apply it, and no other rewrite."""
    if word:
        top = word[-1]
        if top == letter:
            return word[:-1]
        if top != "a" and letter != "a":
            return word[:-1] + _MERGE[top + letter]
    return word + letter


def reduce_word(word: str) -> str:
    """Rewrite a word to the alternating normal form.

    Equal adjacent letters cancel and an adjacent pair from {b, c, d}
    merges into the third letter; the result is the unique normal form
    with no such pair left.  The reduced prefix alternates, so after a
    merge its new last letter is "a" or nothing, and appending the
    letters one by one suffices.  The prefix is a stack of letters, and
    each letter is appended by _append to its top letter alone, so the
    time is linear in the length of the word.
    """
    stack: list[str] = []
    for letter in word:
        if letter not in GENERATORS:
            raise ValueError(f"invalid generator {letter!r}")
        stack.extend(_append(stack.pop() if stack else "", letter))
    return "".join(stack)


def require_reduced(word: str) -> None:
    """Raise ValueError unless word is reduced, as the constructor of
    GroupElement does; a caller that checks its words once may build
    their elements with GroupElement._make."""
    # a word is reduced exactly when no letter is foreign and no pair
    # cancels or merges; reduce_word names a foreign letter
    if _NOT_REDUCED.search(word) and word != reduce_word(word):
        raise ValueError(f"word {word!r} is not reduced; use from_word")


class GroupElement(namedtuple("GroupElement", "omega word")):
    """A group element over a fixed sequence, stored as a reduced word.

    An element is the bare pair (omega, word): it has no instance
    dictionary, and it compares equal to a plain tuple of the same two
    fields.  So len(g) is 2; the word length is g.length.
    """

    __slots__ = ()

    def __new__(cls, omega: OmegaSequence, word: str = "") -> "GroupElement":
        require_reduced(word)
        return super().__new__(cls, omega, word)

    @classmethod
    def from_word(cls, omega: OmegaSequence, word: str) -> "GroupElement":
        return cls(omega, reduce_word(word))

    @classmethod
    def identity(cls, omega: OmegaSequence) -> "GroupElement":
        return cls(omega, "")

    @property
    def length(self) -> int:
        return len(self.word)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """The product: other's letters are joined to self's word by
        _append while each one cancels or merges.  Once a letter joins
        without a rewrite, the word ends in a pair that does not rewrite
        and other's word from that letter on is reduced, so the rest of
        it joins unchanged."""
        if self.omega != other.omega:
            raise OmegaMismatchError(f"{self.omega} vs {other.omega}")
        word, rest = self.word, other.word
        while rest and len(joined := _append(word, rest[0])) <= len(word):
            word, rest = joined, rest[1:]
        return GroupElement(self.omega, word + rest)


def apply(g: GroupElement, ray: Ray) -> Ray:
    """Image of a ray, letters applied right to left, through its line coordinate."""
    return ray_at(line_apply(g.omega, g.word, _coordinate(ray.digits)))


@lru_cache(maxsize=None)
def _level(omega: OmegaSequence) -> tuple[OmegaSequence, frozenset[str]]:
    """The shifted sequence and the letters of b, c, d that act as "a" on
    the left subtree.  Shifting cycles through at most
    len(preperiod) + len(period) sequences, so the table stays that small
    for each sequence in use."""
    return omega.shift(), frozenset(x for x in BCD if passive_letter(omega, x) == "a")


def _extend(active: frozenset[str], swap: bool, left: str, right: str,
            letter: str) -> tuple[bool, str, str]:
    """The swap flag and reduced restriction words of word + letter, from
    those of word, for the letters active as "a" on the left subtree:
    "a" swaps the two subtrees, and a letter of b, c, d acts on the right
    subtree as itself and on the left one as "a" if active, else not."""
    if letter == "a":
        return not swap, right, left
    if letter in active:
        left = _append(left, "a")
    return swap, left, _append(right, letter)


def _sections(omega: OmegaSequence, word: str) -> tuple[bool, OmegaSequence, str, str]:
    """One step of the wreath recursion on a word.

    Returns the level-1 swap flag, the shifted sequence and the reduced
    words of the left and right restrictions, which live over it.
    """
    shifted, active = _level(omega)
    swap, left, right = False, "", ""
    for letter in word:
        swap, left, right = _extend(active, swap, left, right, letter)
    return swap, shifted, left, right


def decompose(g: GroupElement) -> tuple[bool, GroupElement, GroupElement]:
    """Split g into a level-1 swap flag and the two subtree restrictions.

    g acts by first applying the restrictions inside the left and right
    subtrees and then swapping the subtrees iff the flag is set.  Both
    restrictions live over the shifted sequence and their reduced words
    are at most (length(g) + 1) / 2 long.
    """
    swap, shifted, w0, w1 = _sections(g.omega, g.word)
    return swap, GroupElement(shifted, w0), GroupElement(shifted, w1)


_A_KEY = (True, "1", "1")


def _combine(omega: OmegaSequence, swap: bool, k0, k1):
    """The key of an element from its swap flag and the keys of its two
    restrictions: the triple, or the leaf it collapses to."""
    if not swap and k1.__class__ is str:
        if k1 == "1":
            if k0 == "1":
                return "1"
        elif k0 == (_A_KEY if passive_letter(omega, k1) == "a" else "1"):
            return k1
    return swap, k0, k1


@lru_cache(maxsize=None)
def _canonical_key(omega: OmegaSequence, word: str):
    """The portrait key of a reduced word, over any sequence.

    A letter x of b, c, d decomposes as (1, x) over the shifted sequence
    when ω₁ is the symbol of x and as (a, x) otherwise, so x is trivial
    exactly when every symbol of the sequence is its symbol: over ``:s``
    the leaf of the letter whose symbol is s is "1".  A reduced word of
    length >= 2 splits into two strictly shorter restrictions, so the
    recursion terminates.  _combine gives "1" exactly when the swap flag
    is off and both restriction keys are "1", so by induction on word
    length the key is "1" exactly on the trivial words, over every
    sequence.  That its other leaves tell automorphisms apart needs the
    gate of canonical_key.
    """
    if len(word) <= 1:
        if word == "a":
            return _A_KEY
        if not word or (not omega.preperiod and omega.period == LETTER_SYMBOL[word]):
            return "1"
        return word
    swap, shifted, w0, w1 = _sections(omega, word)
    return _combine(omega, swap, _canonical_key(shifted, w0), _canonical_key(shifted, w1))


@lru_cache(maxsize=None)
def _is_trivial(omega: OmegaSequence, word: str) -> bool:
    return _canonical_key(omega, word) == "1"


def is_trivial(g: GroupElement) -> bool:
    """Decide the word problem, over any sequence: g is trivial exactly
    when the portrait key of its word is "1", which needs no gate.

    Results are memoised per (sequence, word).
    """
    return _is_trivial(g.omega, g.word)


def canonical_key(g: GroupElement):
    """A finite token equal across exactly the words of one automorphism.

    The key is read off the words by the wreath recursion: the empty word
    is the leaf "1", the word "a" is (True, "1", "1"), a letter b, c, d
    is its own leaf (or "1" over ``:s`` for the letter whose symbol is
    s), and any longer word yields the triple (swap flag, key of left
    restriction, key of right restriction).  Two triples collapse to the
    leaf of the element they portray: (False, "1", "1") to "1", and
    (False, key of passive_letter(omega, x), x) to x, since that is how
    x itself decomposes.

    The key is "1" exactly on the trivial words over every sequence;
    is_trivial reads it so.  By induction on word length the key equals
    the semantic portrait in which x marks exactly the elements equal to
    the letter x, so it depends on the automorphism only and tells
    automorphisms apart.  That induction needs b, c and d to be
    nontrivial and pairwise distinct over every shift of the sequence,
    which _require_distinct_letters asks of it.
    """
    _require_distinct_letters(g.omega)
    return _canonical_key(g.omega, g.word)


def _extensions(word: str) -> str:
    if not word:
        return GENERATORS
    return BCD if word[-1] == "a" else "a"


# per sequence, the longest ball enumerated so far as one string per
# sphere, its words in ball order joined (every word of sphere k is k
# letters long), and the span of each word, one byte each; no element
# and no word is kept
_longest: dict[OmegaSequence, tuple[tuple[str, ...], bytes]] = {}


def enumerate_ball(omega: OmegaSequence, max_len: int) -> tuple[GroupElement, ...]:
    """The distinct elements of length at most max_len, grown sphere by
    sphere.

    Each element is represented by the first of its shortest reduced
    words in breadth-first order, deduplicated by canonical key, so the
    sequence passes the key's gate first.  The ball contains the
    identity and is closed under inverses.

    The candidates of length n are r + s for each representative r of
    the sphere of length n - 1 and each letter s that keeps r + s
    alternating, in that order; a candidate whose key is new becomes a
    representative.  This picks the same words, in the same order, as
    extending every alternating word of length n - 1.  Let u + s be the
    first of those words found for an element of length n; then u is a
    shortest word of length n - 1.  If an earlier word u' named u's
    element, u' + s would name the same element as u + s, and reduced it
    is either shorter than n, so the element was found before, or an
    alternating word that comes before u + s.  Either way u + s would not
    be first, so u is a representative.  Every candidate alternates, so
    it is reduced, and the elements are built from the words of
    _ball_words by _make, without the check of the constructor, anew on
    each call: the ball table holds one string per sphere, a read slices
    its words from it, and no element or word outlives the tuple
    returned.

    Each representative of the current sphere is kept with its swap flag
    and its two restriction words, so a candidate's key costs one
    letter, not a pass over its word.  _sections folds _extend over a
    word left to right, so the state of r + s is _extend of r's state by
    s.  Reduction is confluent, so reducing the restriction words at
    each letter gives the normal form of all their letters, and a
    reduced word with one more letter can only cancel or merge at the
    join.  The candidate's key combines the keys of its restrictions by
    the rule of _canonical_key, which for the empty word and single
    letters gives their leaves as well.  _grow_ball holds each
    restriction word as an index, interned once per ball with the id of
    its key, and deduplicates a candidate on its swap flag and the key
    ids of its two words, which tells apart exactly the keys that the
    combination gives.  The top-level keys are not memoised, and only
    the shorter restriction words are keyed, once each.

    A negative max_len raises ValueError, before the gate: no ball has
    a negative length, and a slice would read one from the end.
    """
    return tuple([GroupElement._make((omega, word)) for word in _ball_words(omega, max_len)])


def _ball_words(omega: OmegaSequence, max_len: int) -> list[str]:
    """The words of enumerate_ball(omega, max_len), in order, read off
    the longest ball enumerated so far, which is the only ball table.

    The loop over lengths of _grow_ball builds sphere n from sphere
    n - 1 and from the keys seen in spheres 0 to n, and nothing in it
    reads max_len but its bound; so the ball of length n is exactly the
    part of the ball of any length m >= n whose words have length at
    most n, the same words in the same order.  A ball that the longest
    one covers is read from the strings of its spheres 0 to n, each
    sliced into its words of k letters; a longer one is grown, its
    spheres become the longest, and the grower's list of words is
    returned as it is, with no slicing.  A default check asks for
    lengths 12, 10 and 8 in that order, so it grows one ball per
    sequence.  enumerate_ball and cubes.ball_action both read the ball
    here, so the negative length check and the gate are made in this one
    place.
    """
    if max_len < 0:
        raise ValueError(f"ball length {max_len} is negative")
    _require_distinct_letters(omega)
    if omega not in _longest or max_len >= len(_longest[omega][0]):
        words, spheres, spans = _grow_ball(omega, max_len)
        _longest[omega] = spheres, spans
        return words
    words = [""]
    for k, sphere in enumerate(_longest[omega][0][1:max_len + 1], 1):
        words += [sphere[i:i + k] for i in range(0, len(sphere), k)]
    return words


def _grow_ball(omega: OmegaSequence,
               max_len: int) -> tuple[list[str], tuple[str, ...], bytes]:
    """The words of the ball of enumerate_ball, grown sphere by sphere,
    the same words joined into one string per sphere, and the span of
    each word: the length of its longer restriction word when it fixes
    level 1, and 0 when it swaps.

    Each restriction word is interned once per grow: the first time it
    is met it gets the next index, and per index are kept its word, its
    key id and, per letter x of b, c, d, the indices of its left and
    right steps, the restriction words that _extend(active, False, w, w,
    x) gives.  A key id is a dense int per distinct _canonical_key of a
    restriction word, so every key still comes from that recursion, once
    per word.  The steps of an index are filled the first time a
    candidate reads them.  A sphere state is (word, swap, left index,
    right index): "a" swaps the two indices, and x takes the left step
    of the left index and the right step of the right one, which is
    _extend of the state by x, since _extend acts on the two words apart.
    A candidate costs a few list lookups; its word is built only when it
    is a new representative, and no element is built at all.

    Sphere k is its words in ball order, joined: each is k letters long,
    so the string cuts back into them, and sphere 0 is the empty word
    alone.  _ball_words keeps the spheres and the spans, and hands the
    list of words to the read that grew them; so a word is held only
    while a caller walks it.  The 16 spheres of ball(15) over :012 take
    65,548 bytes; a string per word would take 308,441.

    Candidates are deduplicated on (swap, left key id, right key id),
    which is exact: the key of a candidate is _combine of the swap flag
    and its two restriction keys, and _combine is injective on such
    triples.  It returns the triple itself except for two shapes:
    (False, "1", "1") collapses to the leaf "1", and (False,
    key(passive x), x) to the leaf x.  A leaf equals no triple, and each
    leaf has one preimage, since x is read off the triple and fixes its
    left key; so distinct triples give distinct keys.

    The triples seen are kept by left key id, each as the int 2 * right
    key id + swap flag in the set of its left key id: the same exact key
    for any number of key ids, with no tuple per element for the
    collector to track.  ball(15) over :012 interns 401 restriction
    words with 271 key ids, and its restriction words are at most 8
    letters.

    Each letter of a word adds at most one letter to one of its
    restriction words, so a span is at most the length of its word, and
    so at most max_len.  A byte holds every span up to 255, and a
    bytearray raises ValueError on a larger one rather than wrap it; no
    ball that long can be grown, since ball(15) over :012 already holds
    4,973 elements.
    """
    shifted, active = _level(omega)
    index: dict[str, int] = {}
    words: list[str] = []
    key_ids: list[int] = []
    steps: dict[str, list[tuple[int, int] | None]] = {x: [] for x in BCD}
    ids: dict = {}

    def intern(word: str) -> int:
        """The index of a restriction word, given when first met."""
        i = index.get(word)
        if i is None:
            i = index[word] = len(words)
            words.append(word)
            key_ids.append(ids.setdefault(_canonical_key(shifted, word), len(ids)))
            for table in steps.values():
                table.append(None)
        return i

    empty = intern("")
    seen: defaultdict[int, set[int]] = defaultdict(set)
    seen[key_ids[empty]].add(2 * key_ids[empty])
    grown = [""]
    spheres = [""]
    spans = bytearray(1)
    sphere = [("", False, empty, empty)]
    for _ in range(max_len):
        parents, sphere, start = sphere, [], len(grown)
        for r, swap, left, right in parents:
            for s in _extensions(r):
                if s == "a":
                    flag, i0, i1 = not swap, right, left
                else:
                    table = steps[s]
                    for j in (left, right):
                        if table[j] is None:
                            _, w0, w1 = _extend(active, False, words[j], words[j], s)
                            table[j] = intern(w0), intern(w1)
                    flag, i0, i1 = swap, table[left][0], table[right][1]
                pair = 2 * key_ids[i1] + flag
                rights = seen[key_ids[i0]]
                if pair not in rights:
                    rights.add(pair)
                    word = r + s
                    grown.append(word)
                    spans.append(0 if flag else max(len(words[i0]), len(words[i1])))
                    sphere.append((word, flag, i0, i1))
        spheres.append("".join(grown[start:]))
    return grown, tuple(spheres), bytes(spans)


def ball_sections(omega: OmegaSequence, max_len: int) -> Iterator[tuple[GroupElement, int]]:
    """Each element g of enumerate_ball(omega, max_len), in order, with
    its span, as (g, span): the length of the longer restriction word
    of decompose(g) when g fixes level 1, and 0 when it swaps.

    _grow_ball records the spans as it grows the ball, and the ball
    table keeps them beside its spheres; the spans of the longest ball
    begin with those of every shorter one, so they are read off, not
    derived again.
    """
    return zip(enumerate_ball(omega, max_len), _longest[omega][1])


def element_order(g: GroupElement) -> int | None:
    """Order of g, or None if it exceeds 64."""
    power = g
    for k in range(1, 65):
        if is_trivial(power):
            return k
        power = power * g
    return None
