"""Finite frames, cluster posets, frame conditions, extremal relations.

A frame is a set of worlds 0..n-1 with a binary relation stored as
adjacency bit-rows: bit y of ``rows[x]`` means x relates to y.  On
quasiorders the mutual-reachability classes are called clusters; the
clusters carry a partial order whose longest-chain lengths give levels
and depth.  A depth-two quasiorder is *extremal* when its restriction
to each level is the identity or the universal relation; the four kinds
are named ii, iu, ui, uu by (lower level, upper level) restriction.
One colour-refined canonical labelling serves ``canonical_form``, the
quasiorder enumerator and ``duality.algebras_isomorphic``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .boolean import atom_indices, transpose
from .errors import DomainError, PreconditionError, Record, SizeError

MAX_WORLDS = 12
MAX_CANONICAL_WORLDS = 7
MAX_ENUM_QUASIORDER = 7
MAX_ENUM_GENERAL = 4

EXTREMAL_KINDS = ("ii", "iu", "ui", "uu")


class Frame(Record):
    """Worlds 0..n_worlds-1 with relation bit-rows (successor masks)."""

    n_worlds: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n_worlds <= MAX_WORLDS:
            raise SizeError(
                f"world count must be between 1 and {MAX_WORLDS}, got {self.n_worlds}"
            )
        if len(self.rows) != self.n_worlds:
            raise DomainError("one relation row per world required")
        top = (1 << self.n_worlds) - 1
        for row in self.rows:
            if not 0 <= row <= top:
                raise DomainError(f"relation row {row} out of range")

    def edges(self) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in range(self.n_worlds)
            for y in atom_indices(self.rows[x])
        ]

    def to_dict(self) -> dict:
        return {"worlds": self.n_worlds, "edges": [list(e) for e in self.edges()]}


def frame_from_dict(data: dict) -> Frame:
    try:
        n = data["worlds"]
        edges = [tuple(e) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"bad frame object: {exc}") from exc
    return make_frame(n, edges)


def make_frame(n_worlds: int, edges) -> Frame:
    """Build a frame from an explicit edge list."""
    if type(n_worlds) is not int or n_worlds < 1:
        raise DomainError(f"world count must be a positive integer, got {n_worlds!r}")
    if n_worlds > MAX_WORLDS:
        raise SizeError(f"world count must be at most {MAX_WORLDS}, got {n_worlds}")
    rows = [0] * n_worlds
    for edge in edges:
        # bools are ints in Python; refuse them with floats and strings
        if len(edge) != 2 or not all(type(w) is int and 0 <= w < n_worlds
                                     for w in edge):
            raise DomainError(
                f"edge {list(edge)!r} is not a pair of worlds in 0..{n_worlds - 1}"
            )
        rows[edge[0]] |= 1 << edge[1]
    return Frame(n_worlds, tuple(rows))


def converse_frame(frame: Frame) -> Frame:
    """Transpose the relation; an involution."""
    return Frame(frame.n_worlds, transpose(frame.rows))


# --- Clusters and depth ---


def _cluster_masks(frame: Frame) -> list[int]:
    """Mutual-reachability classes as world masks, ordered by least member.

    Only meaningful when the relation is a quasiorder.
    """
    n = frame.n_worlds
    seen = 0
    clusters = []
    for x in range(n):
        if seen >> x & 1:
            continue
        mask = 0
        for y in atom_indices(frame.rows[x]):
            if frame.rows[y] >> x & 1:
                mask |= 1 << y
        mask |= 1 << x  # reflexivity may be absent on raw input; keep x in
        clusters.append(mask)
        seen |= mask
    return clusters


class ClusterPoset(Record):
    """Partition of a quasiorder into clusters plus their partial order.

    ``leq[i]`` is the bitmask of cluster indices above cluster i
    (including i); ``levels[i]`` is the longest-chain length ending at
    cluster i, and ``depth`` the maximum level.
    """

    clusters: tuple[tuple[int, ...], ...]
    leq: tuple[int, ...]
    levels: tuple[int, ...]
    depth: int

    def is_simple(self, i: int) -> bool:
        return len(self.clusters[i]) == 1

    def level_worlds(self, level: int) -> int:
        """Bitmask of the worlds whose cluster sits at ``level``."""
        mask = 0
        for i, members in enumerate(self.clusters):
            if self.levels[i] == level:
                for w in members:
                    mask |= 1 << w
        return mask


def cluster_poset(frame: Frame) -> ClusterPoset:
    """Cluster partition, order, levels and depth of a quasiorder."""
    ok, witness = frame_condition(frame, "quasiorder")
    if not ok:
        raise PreconditionError(f"not a quasiorder, witness {witness}")
    masks = _cluster_masks(frame)
    k = len(masks)
    reps = [min(atom_indices(m)) for m in masks]
    leq = [0] * k
    for i in range(k):
        for j in range(k):
            if frame.rows[reps[i]] >> reps[j] & 1:
                leq[i] |= 1 << j
    levels = [0] * k

    # longest-chain length ending at each cluster, memoized in levels
    def level_of(i: int) -> int:
        if levels[i]:
            return levels[i]
        below = [j for j in range(k) if j != i and leq[j] >> i & 1]
        levels[i] = 1 + max((level_of(j) for j in below), default=0)
        return levels[i]

    for i in range(k):
        level_of(i)
    return ClusterPoset(
        clusters=tuple(tuple(atom_indices(m)) for m in masks),
        leq=tuple(leq),
        levels=tuple(levels),
        depth=max(levels),
    )


# --- First-order frame conditions ---


def _serial(f):
    for x in range(f.n_worlds):
        if not f.rows[x]:
            return False, (x,)
    return True, None


def _reflexive(f):
    for x in range(f.n_worlds):
        if not f.rows[x] >> x & 1:
            return False, (x,)
    return True, None


def _transitive(f):
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            if f.rows[y] & ~f.rows[x]:
                z = min(atom_indices(f.rows[y] & ~f.rows[x]))
                return False, (x, y, z)
    return True, None


def _symmetric(f):
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            if not f.rows[y] >> x & 1:
                return False, (x, y)
    return True, None


def _b2(f):
    # (xRy and yRz) implies (yRx or zRy): no strict three-step descent
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            for z in atom_indices(f.rows[y]):
                if not (f.rows[y] >> x & 1 or f.rows[z] >> y & 1):
                    return False, (x, y, z)
    return True, None


def _convergent(f):
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            for z in atom_indices(f.rows[x]):
                if not f.rows[y] & f.rows[z]:
                    return False, (x, y, z)
    return True, None


def _dot3(f):
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            for z in atom_indices(f.rows[x]):
                if not (f.rows[y] >> z & 1 or f.rows[z] >> y & 1):
                    return False, (x, y, z)
    return True, None


def _r1(f):
    for x in range(f.n_worlds):
        for y in atom_indices(f.rows[x]):
            if y == x:
                continue
            for z in atom_indices(f.rows[x]):
                if not f.rows[z] >> y & 1:
                    return False, (x, y, z)
    return True, None


def _directed(f):
    for x in range(f.n_worlds):
        for y in range(f.n_worlds):
            if not f.rows[x] & f.rows[y]:
                return False, (x, y)
    return True, None


def _quasiorder(f):
    ok, witness = _reflexive(f)
    if not ok:
        return False, witness
    return _transitive(f)


def _m_condition(f):
    # every world sees a world whose only successor is itself
    for x in range(f.n_worlds):
        if not any(f.rows[y] == 1 << y for y in atom_indices(f.rows[x])):
            return False, (x,)
    return True, None


def _grz(f):
    # finite reading: no proper cluster, i.e. the quasiorder is a partial order
    for mask in _cluster_masks(f):
        if mask & (mask - 1):
            members = list(atom_indices(mask))
            return False, (members[0], members[1])
    return True, None


def _dum(f):
    # for every proper cluster D, the set of worlds that can reach D is
    # closed under taking successors (on linear frames this is exactly
    # "every cluster except the last one is simple")
    for mask in _cluster_masks(f):
        if not mask & (mask - 1):
            continue
        seers = 0
        for w in range(f.n_worlds):
            if f.rows[w] & mask:
                seers |= 1 << w
        for w in atom_indices(seers):
            escape = f.rows[w] & ~seers
            if escape:
                return False, (w, min(atom_indices(escape)), min(atom_indices(mask)))
    return True, None


_CONDITIONS = {
    "serial": _serial,
    "reflexive": _reflexive,
    "transitive": _transitive,
    "symmetric": _symmetric,
    "b2": _b2,
    "convergent": _convergent,
    "dot3": _dot3,
    "r1": _r1,
    "directed": _directed,
    "quasiorder": _quasiorder,
    "m": _m_condition,
    "grz": _grz,
    "dum": _dum,
}

_CONDITION_ALIASES = {
    "g2": "convergent", ".2": "convergent", "g": "convergent",
    "h3": "dot3", ".3": "dot3", "h": "dot3",
    ".1": "m",
}

_NEEDS_QUASIORDER = {"m", "grz", "dum"}

CONDITION_NAMES = tuple(_CONDITIONS)


def frame_condition(frame: Frame, name: str):
    """Evaluate a named first-order condition exhaustively.

    Returns ``(holds, witness)`` where the witness is a tuple of worlds
    exhibiting the first failure in scan order, or None.  The m, grz
    and dum conditions only make sense on quasiorders and raise
    PreconditionError otherwise.
    """
    key = name.strip().lower()
    key = _CONDITION_ALIASES.get(key, key)
    if key not in _CONDITIONS:
        raise KeyError(
            f"unknown frame condition {name!r}; known: {', '.join(CONDITION_NAMES)}"
        )
    if key in _NEEDS_QUASIORDER:
        ok, witness = _quasiorder(frame)
        if not ok:
            raise PreconditionError(
                f"condition {key!r} requires a quasiorder, witness {witness}"
            )
    return _CONDITIONS[key](frame)


# --- Extremal relations of depth two ---


def extremal_rows(kind: str, u_mask: int, v_mask: int, n_worlds: int) -> tuple[int, ...]:
    """Relation rows for an extremal kind over levels U (lower), V (upper)."""
    if kind not in EXTREMAL_KINDS:
        raise KeyError(f"unknown extremal kind {kind!r}")
    full = u_mask | v_mask
    rows = []
    for x in range(n_worlds):
        in_u = bool(u_mask >> x & 1)
        if kind == "ii":
            row = (1 << x) | (v_mask if in_u else 0)
        elif kind == "iu":
            row = (1 << x) | v_mask
        elif kind == "ui":
            row = full if in_u else 1 << x
        else:  # uu
            row = full if in_u else v_mask
        rows.append(row)
    return tuple(rows)


def make_extremal(kind: str, u_size: int, v_size: int) -> Frame:
    """Frame on u_size + v_size worlds carrying the kind's relation."""
    if u_size < 1 or v_size < 1:
        raise DomainError("both levels need at least one world")
    n = u_size + v_size
    if n > MAX_WORLDS:
        raise SizeError(f"{n} worlds exceeds the cap of {MAX_WORLDS}")
    u_mask = (1 << u_size) - 1
    v_mask = ((1 << n) - 1) ^ u_mask
    return Frame(n, extremal_rows(kind, u_mask, v_mask, n))


def classify_extremal(frame: Frame) -> frozenset[tuple[str, int, int]]:
    """All extremal kinds whose relation equals the frame's, with levels.

    Returns (kind, u_mask, v_mask) triples; empty when the frame is not
    a quasiorder of depth exactly two.  Kinds whose defining relations
    coincide on the given level sizes are all reported.
    """
    ok, _ = frame_condition(frame, "quasiorder")
    if not ok:
        return frozenset()
    poset = cluster_poset(frame)
    if poset.depth != 2:
        return frozenset()
    u_mask = poset.level_worlds(1)
    v_mask = poset.level_worlds(2)
    matches = {
        (kind, u_mask, v_mask)
        for kind in EXTREMAL_KINDS
        if extremal_rows(kind, u_mask, v_mask, frame.n_worlds) == frame.rows
    }
    return frozenset(matches)


# --- Isomorphism and enumeration ---


def _apply_permutation(rows: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(rows)
    for x, mask in enumerate(rows):
        image = 0
        for y in atom_indices(mask):
            image |= 1 << perm[y]
        out[perm[x]] = image
    return tuple(out)


def _labelling(rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical relabeling of relation rows and a permutation giving it.

    World colours are refined until stable (McKay & Piperno, *Practical
    graph isomorphism II*): a world's next colour is the rank, among the
    distinct signatures, of (its colour, its successors' colours sorted,
    its predecessors' colours sorted).  The result is the least
    (relabeled rows, perm) over the permutations giving each colour cell
    one consecutive block of labels, cells in colour order; ``perm[x]``
    is the new label of world x.  Neither the cells nor their order
    depend on the input labels, so isomorphic rows get equal forms.
    """
    n = len(rows)
    if n > MAX_CANONICAL_WORLDS:
        raise SizeError(
            f"canonical labelling is bounded at {MAX_CANONICAL_WORLDS} worlds, got {n}"
        )
    preds = transpose(rows)
    colour, cells = [0] * n, 1
    while True:
        signatures = [
            (colour[x], tuple(sorted(colour[y] for y in atom_indices(rows[x]))),
             tuple(sorted(colour[y] for y in atom_indices(preds[x]))))
            for x in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(signatures)))}
        if len(rank) == cells:
            break
        colour, cells = [rank[s] for s in signatures], len(rank)
    blocks = [[x for x in range(n) if colour[x] == c] for c in range(cells)]

    def orders(i):  # lazily, where product() would first hold every permutation
        if i == cells:
            return [()]
        return (head + rest for head in permutations(blocks[i]) for rest in orders(i + 1))

    def relabeled(order):
        perm = tuple(map(order.index, range(n)))
        return _apply_permutation(rows, perm), perm

    return min(map(relabeled, orders(0)))


def canonical_form(frame: Frame) -> Frame:
    """The frame relabeled by its colour-refined canonical labelling.

    Two frames are isomorphic exactly when their canonical forms agree.
    The form is the least relabeling among those that keep the refined
    colour cells in order, not the least over all world permutations.
    """
    return Frame(frame.n_worlds, _labelling(frame.rows)[0])


@lru_cache(maxsize=None)
def _quasiorders_up_to_iso(n: int) -> tuple[Frame, ...]:
    """Canonical forms of the quasiorders on n worlds, ascending by rows.

    Removing a world of a maximal cluster leaves a quasiorder on n - 1
    worlds, so each class is a smaller one plus a new world: a twin of
    an old world x, or a new top seen by exactly a down-closed set.
    """
    if n == 1:
        return (Frame(1, (1,)),)
    new = 1 << (n - 1)
    forms = set()
    for smaller in _quasiorders_up_to_iso(n - 1):
        rows = smaller.rows
        candidates = [
            tuple(r | new if r >> x & 1 else r for r in rows) + (rows[x] | new,)
            for x in range(n - 1)
        ]
        for seers in range(new):
            if not any(rows[z] & seers for z in range(n - 1) if not seers >> z & 1):
                candidates.append(
                    tuple(r | new if seers >> z & 1 else r for z, r in enumerate(rows))
                    + (new,)
                )
        forms.update(_labelling(c)[0] for c in candidates)
    return tuple(Frame(n, rows) for rows in sorted(forms))


def _all_frames_up_to_iso(n: int) -> list[Frame]:
    # walk relation masks (bit x*n + y: edge x -> y) in ascending order, keep
    # the first of each permutation orbit and mark the orbit: an image is one
    # lookup per mask byte, each table entry an earlier one plus its lowest bit
    bits, total = n * n, 1 << (n * n)
    tables = []
    for p in permutations(range(n)):
        targets = [1 << (p[x] * n + p[y]) for x in range(n) for y in range(n)]
        per_byte = []
        for start in range(0, bits, 8):
            table, part = [0], targets[start:start + 8]
            for v in range(1, 1 << len(part)):
                table.append(table[v & (v - 1)] | part[(v & -v).bit_length() - 1])
            per_byte.append((start, table))
        tables.append(per_byte)
    visited = bytearray(total)
    out = []
    for m in range(total):
        if visited[m]:
            continue
        rows = tuple((m >> (x * n)) & ((1 << n) - 1) for x in range(n))
        out.append(Frame(n, rows))
        for per_byte in tables:
            image = 0
            for start, table in per_byte:
                image |= table[m >> start & 255]
            visited[image] = 1
    return out


def enumerate_frames(n_worlds: int, *, quasiorder: bool = False,
                     max_depth: int | None = None) -> list[Frame]:
    """All frames on n_worlds worlds up to isomorphism, deterministically.

    With ``quasiorder=True`` only reflexive-transitive frames are
    produced (bounded at 7 worlds) and ``max_depth`` filters on cluster
    depth; without it every relation is enumerated (bounded at 4
    worlds).
    """
    if type(n_worlds) is not int or n_worlds < 1:  # bools are ints; refuse them
        raise DomainError(f"world count must be an integer >= 1, got {n_worlds!r}")
    if max_depth is not None and not quasiorder:
        raise DomainError("max_depth filtering requires quasiorder enumeration")
    if max_depth is not None and (type(max_depth) is not int or max_depth < 1):
        raise DomainError(f"max_depth must be an integer >= 1, got {max_depth!r}")
    if quasiorder:
        if n_worlds > MAX_ENUM_QUASIORDER:
            raise SizeError(
                f"quasiorder enumeration is bounded at {MAX_ENUM_QUASIORDER} worlds"
            )
        return [f for f in _quasiorders_up_to_iso(n_worlds)
                if max_depth is None or cluster_poset(f).depth <= max_depth]
    if n_worlds > MAX_ENUM_GENERAL:
        raise SizeError(
            f"general frame enumeration is bounded at {MAX_ENUM_GENERAL} worlds"
        )
    return _all_frames_up_to_iso(n_worlds)
