"""Permutation groups: stabilizer chains, classes, centralizers, normalizers,
Sylow subgroups, derived series.

Points are 0-based internally and 1-based in all text I/O (cycle notation).
Group products compose left to right: ``(p * q)(i) = q(p(i))`` and
``x ** g = g^-1 x g``.  All algorithms are deterministic: base points are
the smallest moved points, orbits are explored breadth-first in insertion
order, and class representatives are the lexicographically smallest
members, so repeated runs produce identical data.

Performance-sensitive internals (the stabilizer chain, normal closures)
work on raw image tuples rather than Perm objects.

Every subgroup this module derives (generated subgroups, extensions,
normal closures, stabilizers, hence centralizers and normalizers) is built
by inserting candidates into one stabilizer chain, and its generators are
exactly the candidates that enlarged the chain, in the order they did so.
So no derived generator list is redundant, and no caller needs to prune one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import factorial, lcm
from operator import itemgetter

from .config import ENUM_BOUND, SYLOW_BOUND
from .errors import EngineDefect, InvalidArgument, ParseError, ScaleExceeded
from .exactnum import is_prime, p_part

# ----------------------------------------------------------------------
# Raw image-tuple helpers.

def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    # itemgetter with a single index returns a scalar; the only permutation
    # of degree 1 is the identity, so q is then the product.
    return itemgetter(*p)(q) if len(p) > 1 else q


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _conj(x: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """g^-1 * x * g."""
    out = [0] * len(x)
    for b in range(len(x)):
        out[g[b]] = g[x[b]]
    return tuple(out)


@cache
def _identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def _is_identity(p: tuple[int, ...]) -> bool:
    return p == _identity(len(p))


def _cycle_type(p: tuple[int, ...]) -> tuple[int, ...]:
    """Lengths of the nontrivial cycles, descending."""
    seen = [False] * len(p)
    lens = []
    for i, j in enumerate(p):
        if seen[i] or j == i:
            continue
        n = 1
        while j != i:
            seen[j] = True
            j = p[j]
            n += 1
        lens.append(n)
    lens.sort(reverse=True)
    return tuple(lens)


class Perm:
    """A permutation of {1..n}, stored as the 0-based image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(_identity(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Perm":
        """Build from 1-based cycles, applied left to right."""
        images = list(range(degree))
        for cyc in cycles:
            pts = [c - 1 for c in cyc]
            if len(set(pts)) != len(pts):
                raise ParseError(f"repeated point in cycle {cyc}")
            if any(p < 0 or p >= degree for p in pts):
                raise ParseError(f"point out of range in cycle {cyc}")
            cyc_map = list(range(degree))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                cyc_map[a] = b
            images = [cyc_map[i] for i in images]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(_mul(self.images, other.images))

    def inverse(self) -> "Perm":
        return Perm(_inv(self.images))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = _identity(len(self.images))
        base = self.images
        while n:
            if n & 1:
                result = _mul(result, base)
            base = _mul(base, base)
            n >>= 1
        return Perm(result)

    def conj(self, g: "Perm") -> "Perm":
        """self ** g = g^-1 * self * g."""
        return Perm(_conj(self.images, g.images))

    def is_identity(self) -> bool:
        return _is_identity(self.images)

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_type(self, include_fixed: bool = False) -> tuple[int, ...]:
        """Cycle lengths, descending; optionally padded with fixed points."""
        lens = _cycle_type(self.images)
        if include_fixed:
            lens += (1,) * (len(self.images) - sum(lens))
        return lens

    def order(self) -> int:
        return lcm(*_cycle_type(self.images))

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm{self.cycle_string()}"


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*[, ]\s*[0-9]+)*)?\s*\)")


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse disjoint-cycle notation like ``(1,2,3)(4,5)`` (1-based)."""
    text = text.strip()
    if not text:
        raise ParseError("empty permutation")
    cycles = []
    pos = 0
    maxpt = 0
    while pos < len(text):
        m = _CYCLE_RE.match(text, pos)
        if not m:
            raise ParseError(f"malformed permutation {text!r} at position {pos}")
        body = m.group(1)
        if body:
            pts = [int(t) for t in re.split(r"\s*[, ]\s*", body.strip())]
            if any(p < 1 for p in pts):
                raise ParseError(f"points must be >= 1 in {text!r}")
            cycles.append(pts)
            maxpt = max(maxpt, max(pts))
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
    n = degree if degree is not None else maxpt
    if maxpt > n:
        raise ParseError(f"point {maxpt} exceeds degree {n}")
    return Perm.from_cycles(cycles, max(n, 1))


# ----------------------------------------------------------------------
# Stabilizer chain (deterministic Schreier-Sims).

class _Level:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        # point -> (transversal u with u[base] = point, u inverse)
        self.orbit: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}


class _Chain:
    """Base and strong generating set with sifting and element enumeration."""

    __slots__ = ("degree", "levels")

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []

    def copy(self) -> "_Chain":
        c = _Chain(self.degree)
        for lvl in self.levels:
            nl = _Level(lvl.base)
            nl.gens = list(lvl.gens)
            nl.orbit = dict(lvl.orbit)
            c.levels.append(nl)
        return c

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def _sift(self, g: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        for lvl in self.levels[start:]:
            pt = g[lvl.base]
            if pt == lvl.base:
                continue
            entry = lvl.orbit.get(pt)
            if entry is None:
                return g
            g = _mul(g, entry[1])
        return g

    def contains(self, g: tuple[int, ...]) -> bool:
        return _is_identity(self._sift(g))

    def insert(self, g: tuple[int, ...], stop_at: int | None = None) -> bool:
        """Add a generator; returns True if it was not already a member.

        Level i's orbit lies inside the orbit of its base point under the
        stabilizer of the first i base points in the group generated so
        far, so ``order()`` never exceeds that group's order at any point
        of a build.  With ``stop_at`` the build returns as soon as
        ``order()`` reaches it:

        * ``stop_at`` the order of a group known to contain every inserted
          element: reaching it means the chain generates that group and is
          complete.  Every Schreier generator left unexamined would have
          sifted to the identity, so the chain is the unstopped one.
        * ``stop_at`` a bound plus one: reaching it shows that the group
          exceeds the bound.  Such a chain is partial (its order is only a
          lower bound and its membership test is wrong), so it is read for
          its order and dropped, never grown further or enumerated.
        """
        if _is_identity(g):
            return False
        if self.contains(g):
            return False
        self._insert(g, 0, stop_at)
        return True

    def _insert(self, g: tuple[int, ...], i: int, stop_at: int | None) -> bool:
        """Returns True if the build stopped at ``stop_at``."""
        if _is_identity(g):
            return False
        if i < len(self.levels) and _is_identity(self._sift(g, i)):
            return False
        if i == len(self.levels):
            base = next(p for p in range(self.degree) if g[p] != p)
            self.levels.append(_Level(base))
        lvl = self.levels[i]
        lvl.gens.append(g)
        self._rebuild_orbit(lvl)
        if stop_at is not None and self.order() >= stop_at:
            return True
        # Re-examine every Schreier generator of the enlarged level.
        for pt in list(lvl.orbit):
            u, _ = lvl.orbit[pt]
            for h in list(lvl.gens):
                target = h[pt]
                s = _mul(_mul(u, h), lvl.orbit[target][1])
                if self._insert(s, i + 1, stop_at):
                    return True
        return False

    def _rebuild_orbit(self, lvl: _Level):
        ident = _identity(self.degree)
        lvl.orbit = {lvl.base: (ident, ident)}
        queue = [lvl.base]
        qi = 0
        while qi < len(queue):
            pt = queue[qi]
            qi += 1
            u = lvl.orbit[pt][0]
            for h in lvl.gens:
                target = h[pt]
                if target not in lvl.orbit:
                    v = _mul(u, h)
                    lvl.orbit[target] = (v, _inv(v))
                    queue.append(target)

    def iter_elements(self):
        """Yield every element once, in a deterministic order."""
        ident = _identity(self.degree)
        transversals = [
            [lvl.orbit[pt][0] for pt in sorted(lvl.orbit)] for lvl in self.levels
        ]
        # Deepest level first so that each element is stab-part * transversal.
        return _transversal_products(transversals, len(transversals) - 1, ident)


def _transversal_products(transversals, i: int, acc: tuple[int, ...]):
    """acc * u_i * u_(i-1) * ... * u_0 for every choice of u_j in
    transversals[j], with j = 0 varying fastest.  A module-level
    generator, so that no closure refers to itself and each walk is freed
    without the cyclic collector."""
    if i < 0:
        yield acc
        return
    for u in transversals[i]:
        yield from _transversal_products(transversals, i - 1, _mul(acc, u))


class PermGroup:
    """A finite permutation group given by generators.

    Immutable once constructed.  Derived data (order, elements, conjugacy
    classes, character table, Sylow structure) is computed lazily and
    cached on the instance; all of it is deterministic.
    """

    def __init__(self, generators, degree: int | None = None):
        gens = [g if isinstance(g, Perm) else Perm(g) for g in generators]
        if degree is None:
            if not gens:
                raise InvalidArgument("degree required for a generator-free group")
            degree = gens[0].degree
        points = list(range(degree))
        for g in gens:
            if g.degree != degree:
                raise InvalidArgument("generators act on different point sets")
            if not all(type(i) is int for i in g.images) or sorted(g.images) != points:
                raise InvalidArgument(f"generator {g.images} is not a permutation of 0..{degree - 1}")
        seen = set()
        uniq = []
        for g in gens:
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                uniq.append(g)
        self._init_fields(degree, tuple(uniq), None)

    @classmethod
    def _from_chain(cls, chain: _Chain, generators) -> "PermGroup":
        """Wrap an already built chain; ``generators`` must generate it."""
        G = cls.__new__(cls)
        G._init_fields(chain.degree, tuple(generators), chain)
        return G

    def _init_fields(self, degree: int, generators: tuple[Perm, ...], chain: _Chain | None):
        self.degree = degree
        self.generators = generators
        self._chain = chain
        self._elements: tuple[Perm, ...] | None = None
        self._classes = None
        self._class_of = None
        self._cache: dict = {}

    # -- structure ---------------------------------------------------------

    @property
    def chain(self) -> _Chain:
        if self._chain is None:
            self._chain = _generated_chain(self)
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain.contains(g.images)

    def is_trivial(self) -> bool:
        return self.order == 1

    def elements(self) -> tuple[Perm, ...]:
        """All elements, sorted lexicographically by image tuple."""
        if self._elements is None:
            check_order_bound(self, ENUM_BOUND, "enumeration")
            elems = sorted(self.chain.iter_elements())
            self._elements = tuple(Perm(t) for t in elems)
        return self._elements

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(g in other for g in self.generators)

    def same_group(self, other: "PermGroup") -> bool:
        """Equality as subgroups of Sym(n): equal orders + mutual membership."""
        return (
            self.degree == other.degree
            and self.order == other.order
            and self.is_subgroup_of(other)
        )

    def conjugate_subgroup(self, g: Perm) -> "PermGroup":
        return PermGroup([h.conj(g) for h in self.generators], self.degree)

    def element_fingerprint(self) -> frozenset:
        """Canonical identity of the subgroup: the frozen set of image tuples."""
        return frozenset(p.images for p in self.elements())

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            (a * b).images == (b * a).images for i, a in enumerate(gens) for b in gens[i + 1:]
        )

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"


def _generated_chain(G: PermGroup, stop_at: int | None = None) -> _Chain:
    """G's generators inserted in order with ``stop_at`` (see
    ``_Chain.insert``), until the chain's order reaches it."""
    ch = _Chain(G.degree)
    for g in G.generators:
        if stop_at is not None and ch.order() >= stop_at:
            break
        ch.insert(g.images, stop_at)
    return ch


def check_order_bound(G: PermGroup, bound: int, what: str) -> None:
    """Raise ScaleExceeded if |G| > bound, without building the chain of a
    group that large: an unbuilt chain is grown by ``_generated_chain`` with
    ``stop_at = bound + 1``.  It is kept on G only if it never stopped (its
    order stayed within the bound), and is then the chain ``G.chain`` would
    have built."""
    ch = G._chain
    if ch is None:
        ch = _generated_chain(G, bound + 1)
        if ch.order() <= bound:
            G._chain = ch
    if ch.order() > bound:
        raise ScaleExceeded(f"|G| exceeds the {what} bound {bound}")


def find_same_subgroup(K: PermGroup, items, group=lambda item: item):
    """The first of ``items`` whose group is K, or None.  Every item's group
    must have K's degree and order: then containment means equal element
    sets.  Each test sifts K's generators through a candidate's chain; no
    element set is listed."""
    return next((item for item in items if K.is_subgroup_of(group(item))), None)


def extended_group(base: PermGroup, extra, stop_at: int | None = None) -> PermGroup:
    """The group generated by ``base`` and extra permutations; reuses the
    base group's stabilizer chain.  ``stop_at`` is passed to
    ``_Chain.insert``: the order of a group known to contain the result."""
    extra = [g if isinstance(g, Perm) else Perm(g) for g in extra]
    ch = base.chain.copy()
    added = [g for g in extra if ch.insert(g.images, stop_at)]
    return PermGroup._from_chain(ch, base.generators + tuple(added))


def group_generated_by(perms, degree: int) -> PermGroup:
    """Group generated by an iterable of Perms, keeping only the ones that
    enlarge the group as its generator list."""
    ch = _Chain(degree)
    return PermGroup._from_chain(ch, [g for g in perms if ch.insert(g.images)])


# ----------------------------------------------------------------------
# Orbits.  ``act(point, g)`` is the image of a point under the generator
# tuple g; points are anything hashable (elements, element sets).

def _orbit(gens, start, act) -> list:
    """The orbit of ``start`` under ``gens``, in breadth-first order."""
    orbit = [start]
    seen = {start}
    for pt in orbit:
        for g in gens:
            q = act(pt, g)
            if q not in seen:
                seen.add(q)
                orbit.append(q)
    return orbit


def _orbit_stabilizer(G: PermGroup, start, act, stab_gens=()) -> tuple[dict, PermGroup]:
    """Breadth-first orbit of ``start`` under G with its stabilizer.

    Returns the transversal (orbit point -> image tuple of an element of G
    taking ``start`` there, in discovery order) and the stabilizer.  Its
    chain is grown from ``stab_gens`` and then the Schreier generators in
    the order found; its generators are those among them that enlarged it.
    """
    gens = [g.images for g in G.generators]
    transversal = {start: _identity(G.degree)}
    queue = [start]
    ch = _Chain(G.degree)
    stab = [g for g in stab_gens if ch.insert(g.images)]
    for pt in queue:
        u = transversal[pt]
        for g in gens:
            q = act(pt, g)
            ug = _mul(u, g)
            v = transversal.get(q)
            if v is None:
                transversal[q] = ug
                queue.append(q)
            elif v != ug:  # else the Schreier generator is the identity
                s = _mul(ug, _inv(v))
                if ch.insert(s):
                    stab.append(Perm(s))
    S = PermGroup._from_chain(ch, stab)
    if len(transversal) * S.order != G.order:
        raise EngineDefect("orbit-stabilizer identity failed")
    return transversal, S


def _conj_set(key: frozenset, g: tuple[int, ...]) -> frozenset:
    return frozenset(_conj(t, g) for t in key)


# ----------------------------------------------------------------------
# Conjugacy classes.

@dataclass(frozen=True)
class ConjugacyClass:
    representative: Perm
    size: int
    element_order: int


class _ClassMap:
    """Element -> class index for the classes of the element walk.
    ``split`` holds the members of the cycle types that hold several
    classes; every other element's class is found from its cycle type by
    ``by_type``."""

    __slots__ = ("by_type", "split")

    def __init__(self, by_type: dict, split: dict):
        self.by_type = by_type
        self.split = split

    def __getitem__(self, t: tuple[int, ...]) -> int:
        idx = self.split.get(t)
        return self.by_type[_cycle_type(t)] if idx is None else idx


class _TypeClassMap:
    """Element -> class index for Sym(n) and Alt(n), from the cycle type.
    ``halves`` maps each cycle type that splits in Alt(n) to its two class
    indices: that of the representative for an even alignment parity, the
    other one for an odd parity."""

    __slots__ = ("by_type", "halves")

    def __init__(self, by_type: dict, halves: dict):
        self.by_type = by_type
        self.halves = halves

    def __getitem__(self, t: tuple[int, ...]) -> int:
        key = _cycle_type(t)
        idx = self.by_type.get(key)
        return self.halves[key][_alignment_parity(t)] if idx is None else idx


def _alignment_parity(t: tuple[int, ...]) -> int:
    """Parity of a permutation g with g^-1 * r * g = t, where r is the
    representative of t's cycle type (see ``_least_of_type``): g lists t's
    cycles, each from its least point, shortest cycle first.  For a type
    with distinct odd parts every such g has the same parity, because the
    centralizer of r is generated by its odd-length cycles.

    The cycles are walked once in order of their least points, building
    the sequence u of points in walking order; the parity of u is its
    inversion count, added up as each point arrives from the bit set of
    the points already walked.  Sorting the blocks of u by length then
    moves blocks of odd length past each other, one odd permutation per
    pair out of order."""
    walked = 0
    inversions = 0
    lengths = []
    for i in range(len(t)):
        if walked >> i & 1:
            continue
        j = i
        length = 0
        while True:
            inversions += (walked >> j).bit_count()
            walked |= 1 << j
            length += 1
            j = t[j]
            if j == i:
                break
        lengths.append(length)
    for a, la in enumerate(lengths):
        inversions += sum(1 for lb in lengths[a + 1:] if lb < la)
    return inversions & 1


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n, parts descending, in descending lexicographic
    order."""
    if n < 0:
        raise InvalidArgument("n must be nonnegative")
    return tuple(_partitions_below(n, n))


def _partitions_below(n: int, largest: int):
    """The partitions of n with no part above ``largest``, in descending
    lexicographic order."""
    if n == 0:
        yield ()
        return
    for part in range(min(largest, n), 0, -1):
        for rest in _partitions_below(n - part, part):
            yield (part,) + rest


def _least_of_type(lam: tuple[int, ...]) -> tuple[int, ...]:
    """The least image tuple with cycle type lam (parts of a partition of
    the degree): the fixed points first, then cycles of ascending length,
    each on consecutive points.  Point by point, a fixed point is the
    least image there is, the next point is the least image after the
    fixed points, and closing a shorter cycle first puts the smaller
    image earlier."""
    images: list[int] = []
    for length in sorted(lam):
        start = len(images)
        images.extend(range(start + 1, start + length))
        images.append(start)
    return tuple(images)


SYMMETRIC, ALTERNATING = "symmetric", "alternating"


def natural_kind(G: PermGroup) -> str | None:
    """SYMMETRIC if G is Sym(n) on its n points, ALTERNATING if it is
    Alt(n), else None.  G <= Sym(n) is all of it when |G| = n!, and Alt(n)
    is the only subgroup of index 2; that every generator is then even is
    kept as a cross-check."""
    n, order = G.degree, G.order
    if order == factorial(n):
        return SYMMETRIC
    if 2 * order != factorial(n):
        return None
    if any((n - len(g.cycle_type(include_fixed=True))) % 2 for g in G.generators):
        raise EngineDefect("a subgroup of index 2 in Sym(n) has an odd generator")
    return ALTERNATING


def _partition_classes(n: int, alternating: bool) -> tuple[list[tuple], _TypeClassMap]:
    """The classes of Sym(n) or Alt(n) from the partitions lam of n, with no
    element walked: the representative is ``_least_of_type(lam)``, the size
    n!/z_lam and the element order lcm(lam).  Alt(n) holds the even types;
    one splits into two classes of half the size exactly when its parts are
    distinct and odd (James and Kerber, *The Representation Theory of the
    Symmetric Group*, 1981).  The second class is that of the
    representative with its last two points swapped, the least element of
    the type whose alignment parity is odd: only the last cycle, of length
    at least 3, is rearranged, and its second least arrangement is that
    swap."""
    swap = tuple(range(n - 2)) + (n - 1, n - 2)
    raw = []  # (element order, size, representative, cycle type)
    for lam in partitions(n):
        if alternating and len(lam) % 2 != n % 2:
            continue  # an odd type
        z = 1
        for part in set(lam):
            mult = lam.count(part)
            z *= part**mult * factorial(mult)
        reps = [_least_of_type(lam)]
        if alternating and len(set(lam)) == len(lam) and all(p % 2 for p in lam):
            reps.append(_conj(reps[0], swap))
        key = tuple(p for p in lam if p > 1)
        raw += [(lcm(*lam), factorial(n) // z // len(reps), rep, key) for rep in reps]
    raw.sort()
    by_type: dict[tuple[int, ...], int] = {}
    halves: dict[tuple[int, ...], tuple[int, int]] = {}
    for idx, (*_, key) in enumerate(raw):
        if key in by_type:  # the second half of a split type sorts after the first
            halves[key] = (by_type.pop(key), idx)
        else:
            by_type[key] = idx
    return raw, _TypeClassMap(by_type, halves)


def _walk_classes(G: PermGroup) -> tuple[list[tuple], _ClassMap]:
    """The classes of G from its elements, for every group that is not
    Sym(n) or Alt(n) on its points (see ``conjugacy_classes``)."""
    gens = [g.images for g in G.generators]
    order = G.order
    first: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    met: dict[tuple[int, ...], int] = {}
    total = 0
    for t in G.chain.iter_elements():
        key = _cycle_type(t)
        met[key] = met.get(key, 0) + 1
        if key not in first:
            orbit = _orbit(gens, t, _conj)
            first[key] = (min(orbit), len(orbit))
            total += len(orbit)
            if total == order:
                break
    split_types = {key for key, (_, size) in first.items() if met[key] > size}
    # (element order, size, representative, cycle type if it decides the class)
    raw = [(lcm(*key), size, rep, key) for key, (rep, size) in first.items()
           if key not in split_types]
    split: dict[tuple[int, ...], int] = {}  # member -> its class's index
    if split_types:
        for t in G.chain.iter_elements():
            if t in split or _cycle_type(t) not in split_types:
                continue
            orbit = _orbit(gens, t, _conj)
            rep = min(orbit)
            split.update(dict.fromkeys(orbit, rep))  # replaced by the index below
            raw.append((lcm(*_cycle_type(rep)), len(orbit), rep, None))
    raw.sort()
    index = {rep: idx for idx, (_, _, rep, _) in enumerate(raw)}
    for t, rep in split.items():
        split[t] = index[rep]
    by_type = {key: idx for idx, (*_, key) in enumerate(raw) if key is not None}
    return raw, _ClassMap(by_type, split)


def conjugacy_classes(G: PermGroup) -> list[ConjugacyClass]:
    """Classes sorted by (element order, size, representative); every
    representative is the lexicographically smallest member of its class.

    Sym(n) and Alt(n) on their n points (see ``natural_kind``) take their
    classes from the partitions of n, with no element walked
    (``_partition_classes``), and find the class of an element from its
    cycle type and, for the Alt(n) types that split, from the parity of
    an alignment with the representative (``_alignment_parity``).

    Every other group walks the chain's elements in its own order
    (``_walk_classes``).  The cycle type is a class function of Sym(n),
    hence of G, so each cycle type holds one or more whole classes.  The
    first element of each new cycle type gives a class: its conjugation
    orbit is walked for the minimum and the size, then dropped.  The walk
    stops once these sizes add up to |G|: the classes found are then
    disjoint and cover G, one per cycle type, so they are all the classes
    and the cycle type decides each.  If the walk ends short, the cycle
    types met more often than their class's size split into several
    classes, and a second walk finds those classes, recording only their
    members in the element -> class map.  The sorted element list is
    never built.  The walk is also the test oracle of the partition
    classes."""
    if G._classes is None:
        check_order_bound(G, ENUM_BOUND, "enumeration")
        kind = natural_kind(G)
        if kind is None:
            raw, class_of = _walk_classes(G)
        else:
            raw, class_of = _partition_classes(G.degree, kind == ALTERNATING)
        G._classes = [ConjugacyClass(Perm(rep), size, m) for m, size, rep, *_ in raw]
        G._class_of = class_of
    return G._classes


def class_index_of(G: PermGroup, x: Perm) -> int:
    """Index of the conjugacy class of x in conjugacy_classes(G)."""
    if x not in G:
        raise InvalidArgument("element does not belong to the group")
    conjugacy_classes(G)
    return G._class_of[x.images]


def exponent(G: PermGroup) -> int:
    return lcm(*(c.element_order for c in conjugacy_classes(G)))


# ----------------------------------------------------------------------
# Orbit-stabilizer computations: centralizers and normalizers.

def centralizer(G: PermGroup, x: Perm) -> PermGroup:
    """C_G(x) via the conjugation orbit of x with Schreier generators."""
    if x not in G:
        raise InvalidArgument("element does not belong to the group")
    return _orbit_stabilizer(G, x.images, _conj)[1]


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) via the conjugation orbit of H (as an element set) with
    Schreier generators for the stabilizer."""
    if not H.is_subgroup_of(G):
        raise InvalidArgument("H is not a subgroup of G")
    if H.is_trivial() or H.same_group(G):
        return G
    return _orbit_stabilizer(G, H.element_fingerprint(), _conj_set, H.generators)[1]


def normal_closure_chain(
    gen_tuples, seed_tuples, degree: int, stop_at: int | None = None
) -> tuple[_Chain, list]:
    """Chain and generator tuples of the normal closure of the seeds under
    the group generated by ``gen_tuples``.  The generators are the seeds and
    conjugates that enlarged the closure, in the order they did so.

    ``stop_at`` is passed to ``_Chain.insert``, and the build ends as soon
    as the chain's order reaches it.  Such a chain is partial: it is read
    only for its order, a lower bound of the closure's."""
    ch = _Chain(degree)
    gens: list[tuple[int, ...]] = []

    def candidates():
        yield from seed_tuples
        for s in gens:  # gens grows while it is read: it is also the queue
            for g in gen_tuples:
                yield _conj(s, g)

    for t in candidates():
        if ch.insert(t, stop_at):
            gens.append(t)
            if stop_at is not None and ch.order() >= stop_at:
                break
    return ch, gens


def normal_closure(G: PermGroup, seeds) -> PermGroup:
    """Smallest subgroup containing the seeds that is normalized by G."""
    ch, gens = normal_closure_chain(
        [g.images for g in G.generators],
        [s.images if isinstance(s, Perm) else tuple(s) for s in seeds],
        G.degree,
    )
    return PermGroup._from_chain(ch, [Perm(t) for t in gens])


# ----------------------------------------------------------------------
# Derived series.

def derived_subgroup(G: PermGroup) -> PermGroup:
    gens = G.generators
    comms = []
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity():
                comms.append(c)
    return normal_closure(G, comms)


def derived_series(G: PermGroup) -> list[PermGroup]:
    """G >= G' >= G'' >= ... down to the first repetition."""
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return series


def derived_length(G: PermGroup) -> int | None:
    """Derived length, or None if G is not solvable (series stabilizes
    at a nontrivial perfect group)."""
    series = derived_series(G)
    if series[-1].order == 1:
        return len(series) - 1
    return None


# ----------------------------------------------------------------------
# Sylow machinery.

@dataclass
class SylowData:
    """A Sylow p-subgroup P with its conjugation orbit.

    ``transversal`` holds one conjugating element per Sylow subgroup, so
    the distinct Sylow p-subgroups are exactly ``P^g`` for g in it (the
    identity is first).  ``normalizer`` is N_G(P)."""

    prime: int
    subgroup: PermGroup
    transversal: tuple[Perm, ...]
    normalizer: PermGroup

    @property
    def count(self) -> int:
        return len(self.transversal)


def _p_power_part(x: Perm, p: int) -> Perm:
    """The p-part of the element x: x to the power of its p'-order."""
    m = x.order()
    return x ** (m // p_part(m, p))


def sylow_data(G: PermGroup, p: int) -> SylowData:
    key = ("sylow", p)
    if key in G._cache:
        return G._cache[key]
    if not is_prime(p):
        raise InvalidArgument(f"{p} is not a prime")
    check_order_bound(G, SYLOW_BOUND, "sylow")
    target = p_part(G.order, p)
    Q = PermGroup([], G.degree)
    while Q.order < target:
        N = G if Q.is_trivial() else normalizer(G, Q)
        for cand in N.chain.iter_elements():
            x = Perm(cand)
            if x.is_identity():
                continue
            y = _p_power_part(x, p)
            if y.is_identity() or y in Q:
                continue
            # y normalizes Q and has p-power order, so <Q, y> is a p-group.
            Q = extended_group(Q, [y])
            break
        else:  # pragma: no cover - Sylow theory guarantees progress
            raise EngineDefect("no p-element found in the normalizer of a proper p-subgroup")
    if Q.is_trivial():
        data = SylowData(p, Q, (Perm.identity(G.degree),), G)
    else:
        start = Q.element_fingerprint()
        transversal, N = _orbit_stabilizer(G, start, _conj_set, Q.generators)
        data = SylowData(p, Q, tuple(Perm(t) for t in transversal.values()), N)
    if data.count % p != 1:
        raise EngineDefect("Sylow count is not 1 mod p")
    G._cache[key] = data
    return data


def is_p_element(x: Perm, p: int) -> bool:
    m = x.order()
    return p_part(m, p) == m


def _sylow_containment(G: PermGroup, p: int, x: Perm) -> tuple[int, tuple[PermGroup, PermGroup]]:
    """One scan of the Sylow transversal for the p-element x: the number of
    g with x in P^g, and P^g for the first such g with its normalizer.
    Cached per (p, x)."""
    if not is_p_element(x, p):
        raise InvalidArgument("element order is not a power of p")
    key = ("sylow_containing", p, x.images)
    if key not in G._cache:
        data = sylow_data(G, p)  # its bound first: x in G builds G's whole chain
        if x not in G:
            raise InvalidArgument("element does not belong to the group")
        P, N = data.subgroup, data.normalizer
        # x in P^g  iff  x^(g^-1) in P
        found = [g for g in data.transversal if Perm(_conj(x.images, _inv(g.images))) in P]
        if not found:  # pragma: no cover - Sylow covering guarantees a hit
            raise EngineDefect("p-element lies in no Sylow p-subgroup")
        g = found[0]
        if not g.is_identity():
            P, N = P.conjugate_subgroup(g), N.conjugate_subgroup(g)
        G._cache[key] = (len(found), (P, N))
    return G._cache[key]


def sylow_count_containing(G: PermGroup, p: int, x: Perm) -> int:
    """Number of Sylow p-subgroups containing the p-element x."""
    return _sylow_containment(G, p, x)[0]


def sylow_containing(G: PermGroup, p: int, x: Perm) -> tuple[PermGroup, PermGroup]:
    """A Sylow p-subgroup containing the p-element x (the first in
    transversal order) together with its normalizer."""
    return _sylow_containment(G, p, x)[1]


def is_ti_sylow(G: PermGroup, p: int) -> bool:
    """Whether distinct Sylow p-subgroups intersect trivially.

    Cross-checked against the equivalent statement that every nontrivial
    element of P lies in a unique Sylow p-subgroup.  Cached per p."""
    key = ("ti_sylow", p)
    if key in G._cache:
        return G._cache[key]
    data = sylow_data(G, p)
    P = data.subgroup
    if P.is_trivial():
        return True
    p_elems = [x for x in P.elements() if not x.is_identity()]
    containment_counts = {x.images: 0 for x in p_elems}
    ti = True
    for g in data.transversal:
        ginv = _inv(g.images)
        inter = 0
        for x in p_elems:
            if Perm(_conj(x.images, ginv)) in P:
                inter += 1
                containment_counts[x.images] += 1
        if not g.is_identity() and inter != 0:
            ti = False
    every_picky = all(c == 1 for c in containment_counts.values())
    if ti != every_picky:
        raise EngineDefect("TI test disagrees with the every-element-picky test")
    G._cache[key] = ti
    return ti


# ----------------------------------------------------------------------
# Named constructors and text formats.

def _symmetric_gens(n: int) -> list[Perm]:
    if n <= 1:
        return []
    gens = [Perm.from_cycles([[1, 2]], n)]
    if n > 2:
        gens.append(Perm.from_cycles([list(range(1, n + 1))], n))
    return gens


def _named_group(kind: str, args: list[int]) -> PermGroup:
    if kind == "S":
        (n,) = args
        if n < 1:
            raise ParseError("S:n needs n >= 1")
        return PermGroup(_symmetric_gens(n), max(n, 1))
    if kind == "A":
        (n,) = args
        if n < 3:
            return PermGroup([], max(n, 1))
        gens = [Perm.from_cycles([[1, 2, k]], n) for k in range(3, n + 1)]
        return PermGroup(gens, n)
    if kind == "C":
        (n,) = args
        if n < 1:
            raise ParseError("C:n needs n >= 1")
        if n == 1:
            return PermGroup([], 1)
        return PermGroup([Perm.from_cycles([list(range(1, n + 1))], n)], n)
    if kind == "D":
        (m,) = args  # m = group order 2n, acting on n points
        if m < 6 or m % 2:
            raise ParseError("D:m needs an even order m >= 6")
        n = m // 2
        rot = Perm.from_cycles([list(range(1, n + 1))], n)
        refl = Perm([n - 1 - i for i in range(n)])
        return PermGroup([rot, refl], n)
    if kind == "Q":
        (m,) = args
        if m != 8:
            raise ParseError("only Q:8 is supported")
        return _quaternion8()
    raise ParseError(f"unknown named group kind {kind!r}")


def _quaternion8() -> PermGroup:
    # Regular action of Q8 = {1, i, -1, -i, j, k, -j, -k} on itself.
    names = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
    rules = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def neg(x):
        return x[1:] if x.startswith("-") else "-" + x

    def mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            r = b
        elif b == "1":
            r = a
        else:
            r = rules[(a, b)]
        return neg(r) if sign < 0 else r

    idx = {x: i for i, x in enumerate(names)}
    gens = []
    for g in ("i", "j"):
        gens.append(Perm([idx[mul(x, g)] for x in names]))
    return PermGroup(gens, 8)


def _wreath_c2(base: PermGroup) -> PermGroup:
    """base wr C2 acting imprimitively on two copies of the base points."""
    n = base.degree
    gens = []
    for g in base.generators:
        gens.append(Perm(tuple(g.images) + tuple(range(n, 2 * n))))
        gens.append(Perm(tuple(range(n)) + tuple(i + n for i in g.images)))
    swap = Perm(tuple(range(n, 2 * n)) + tuple(range(n)))
    gens.append(swap)
    return PermGroup(gens, 2 * n)


_NAMED_RE = re.compile(r"^([SACDQ]):(\d+)$")
_WREATH_RE = re.compile(r"^wr:(.+)~C:2$")


def named_group(source: str) -> PermGroup:
    """Parse named constructors: S:n, A:n, C:n, D:2n, Q:8, wr:S:n~C:2."""
    source = source.strip()
    m = _WREATH_RE.match(source)
    if m:
        return _wreath_c2(named_group(m.group(1)))
    m = _NAMED_RE.match(source)
    if m:
        return _named_group(m.group(1), [int(m.group(2))])
    raise ParseError(f"unrecognised group constructor {source!r}")


def parse_generator_text(text: str) -> PermGroup:
    """Group input format: one permutation per line in disjoint-cycle
    notation; blank lines and '#' comments are ignored."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("no generators in input")
    perms = [parse_perm(line) for line in lines]
    degree = max(p.degree for p in perms)
    padded = [
        Perm(tuple(p.images) + tuple(range(p.degree, degree))) for p in perms
    ]
    return PermGroup(padded, degree)


def group_from_source(source: str, read_file=None) -> PermGroup:
    """Resolve a group source: a named constructor, else a generator file
    (read through ``read_file``, which maps a path to its text)."""
    try:
        return named_group(source)
    except ParseError:
        pass
    if read_file is None:
        raise ParseError(f"cannot resolve group source {source!r}")
    return parse_generator_text(read_file(source))
