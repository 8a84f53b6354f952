"""Reference computations for the benchmark, kept apart from depth2kit.

Nothing here imports depth2kit.  The checks compare the program's
outputs with these computations and with published counts, never with
a stored copy of an earlier output.

* Formulas are nested tuples, read by a parser written from the
  README's grammar.  The evaluator follows the README's semantics:
  a world satisfies ``<>A`` when some successor satisfies ``A``.
* Frames are tuples of successor bit-rows: bit y of ``rows[x]`` means
  x relates to y.
* The counts are published integer sequences (OEIS) and instance
  counts derived from them by the suites' definitions.
"""

from __future__ import annotations

import re
from itertools import permutations, product

# Relations on n points up to isomorphism, OEIS A000595.
RELATIONS_UP_TO_ISO = {1: 2, 2: 10, 3: 104, 4: 3044}
# Quasiorders (preorders) on n points up to isomorphism, OEIS A001930.
QUASIORDERS_UP_TO_ISO = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}
# Labeled quasiorders on n points, OEIS A000798.  Closure operators on
# the n-atom algebra correspond one to one with them.
LABELED_QUASIORDERS = {1: 1, 2: 4, 3: 29, 4: 355}

# --- formulas ---

_TOKEN = re.compile(r"\s*(<->|->|<>|\[\]|[()~&|01]|[a-z][a-zA-Z0-9_]*)")
_BINARY = {"&": "and", "|": "or"}


def parse(text: str) -> tuple:
    """Parse formula text into a nested tuple, by the README's grammar."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"bad formula text at column {pos + 1}: {text!r}")
        tokens.append(match.group(1))
        pos = match.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def iff():
        node = imp()
        while peek() == "<->":
            take()
            node = ("iff", node, imp())
        return node

    def imp():
        node = level("|")
        if peek() == "->":
            take()
            node = ("imp", node, imp())
        return node

    def level(op):
        node = unary() if op == "&" else level("&")
        while peek() == op:
            take()
            node = (_BINARY[op], node, unary() if op == "&" else level("&"))
        return node

    def unary():
        prefix = []
        while peek() in ("~", "<>", "[]"):
            prefix.append({"~": "not", "<>": "dia", "[]": "box"}[take()])
        node = atom()
        for kind in reversed(prefix):
            node = (kind, node)
        return node

    def atom():
        tok = take()
        if tok == "1":
            return ("top",)
        if tok == "0":
            return ("bot",)
        if tok == "(":
            node = iff()
            take(")")
            return node
        if tok and tok[0].isalpha():
            return ("var", tok)
        raise ValueError(f"expected a formula, found {tok!r} in {text!r}")

    node = iff()
    take("")
    return node


_AST_KINDS = {
    "Var": "var", "Top": "top", "Bottom": "bot", "Not": "not",
    "Diamond": "dia", "Box": "box", "And": "and", "Or": "or",
    "Implies": "imp", "Iff": "iff",
}


def from_ast(node) -> tuple:
    """Convert a depth2kit formula AST, read by class and field names."""
    kind = _AST_KINDS[type(node).__name__]
    if kind == "var":
        return ("var", node.name)
    if kind in ("top", "bot"):
        return (kind,)
    if kind in ("not", "dia", "box"):
        return (kind, from_ast(node.child))
    return (kind, from_ast(node.left), from_ast(node.right))


def variables(formula: tuple) -> set[str]:
    if formula[0] == "var":
        return {formula[1]}
    out = set()
    for child in formula[1:]:
        out |= variables(child)
    return out


def evaluate(formula: tuple, values: dict, top: int, diamond) -> int:
    """Value of the formula as a bitmask; ``diamond`` maps a set to its <>-image."""

    def go(node):
        kind = node[0]
        if kind == "var":
            return values[node[1]] & top
        if kind == "top":
            return top
        if kind == "bot":
            return 0
        if kind == "not":
            return top ^ go(node[1])
        if kind == "dia":
            return diamond(go(node[1]))
        if kind == "box":
            return top ^ diamond(top ^ go(node[1]))
        left, right = go(node[1]), go(node[2])
        if kind == "and":
            return left & right
        if kind == "or":
            return left | right
        if kind == "imp":
            return (top ^ left) | right
        return top ^ (left ^ right)

    return go(formula)


def model_diamond(rows):
    """<>X in a frame: the worlds with some successor in X."""

    def diamond(worlds):
        out = 0
        for x, row in enumerate(rows):
            if row & worlds:
                out |= 1 << x
        return out

    return diamond


def algebra_diamond(atom_values):
    """f(X) in an algebra stored by atom values: the join over the atoms of X."""

    def diamond(x):
        out = 0
        for i, value in enumerate(atom_values):
            if x >> i & 1:
                out |= value
        return out

    return diamond


def eval_in_frame(rows, valuation: dict, formula: tuple) -> int:
    return evaluate(formula, valuation, (1 << len(rows)) - 1, model_diamond(rows))


def eval_in_algebra(atom_values, assignment: dict, formula: tuple) -> int:
    top = (1 << len(atom_values)) - 1
    return evaluate(formula, assignment, top, algebra_diamond(atom_values))


def first_falsifying(rows, formula: tuple):
    """(valid, first falsifying valuation) in lexicographic order of sorted names."""
    names = sorted(variables(formula))
    top = (1 << len(rows)) - 1
    diamond = model_diamond(rows)
    for masks in product(range(top + 1), repeat=len(names)):
        valuation = dict(zip(names, masks))
        if evaluate(formula, valuation, top, diamond) != top:
            return False, valuation
    return True, None


def lexicographic_rank(witness: dict, space: int) -> int:
    """Position of a valuation in the search order over sorted variable names."""
    rank = 0
    for name in sorted(witness):
        rank = rank * space + witness[name]
    return rank


def alpha_equivalent(a: tuple, b: tuple, mapping: dict) -> bool:
    """Equal up to an injective renaming of variables, extending ``mapping``."""
    if a[0] != b[0]:
        return False
    if a[0] == "var":
        if a[1] in mapping:
            return mapping[a[1]] == b[1]
        if b[1] in mapping.values():
            return False
        mapping[a[1]] = b[1]
        return True
    return len(a) == len(b) and all(
        alpha_equivalent(x, y, mapping) for x, y in zip(a[1:], b[1:])
    )


# --- frames ---


def relabel(rows, perm) -> tuple[int, ...]:
    """Move world x to perm[x]."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        image = 0
        for y in range(len(rows)):
            if row >> y & 1:
                image |= 1 << perm[y]
        out[perm[x]] = image
    return tuple(out)


def canonical(rows) -> tuple[int, ...]:
    """Least relabeling, a complete isomorphism invariant."""
    return min(relabel(rows, p) for p in permutations(range(len(rows))))


def is_quasiorder(rows) -> bool:
    for x, row in enumerate(rows):
        if not row >> x & 1:
            return False
        for y in range(len(rows)):
            if row >> y & 1 and rows[y] & ~row:
                return False
    return True


def depth(rows) -> int:
    """Longest chain of clusters in a quasiorder."""
    n = len(rows)
    strictly_above = [
        [y for y in range(n) if rows[x] >> y & 1 and not rows[y] >> x & 1]
        for x in range(n)
    ]
    memo = {}

    def height(x):
        if x not in memo:
            memo[x] = 1 + max((height(y) for y in strictly_above[x]), default=0)
        return memo[x]

    return max(height(x) for x in range(n))


def levels(rows) -> list[list[list[int]]]:
    """Clusters of a quasiorder grouped by level, lowest level first.

    A cluster's level is the longest chain of clusters ending at it.
    """
    n = len(rows)
    clusters, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        members = [y for y in range(n) if rows[x] >> y & 1 and rows[y] >> x & 1]
        seen.update(members)
        clusters.append(members)
    below = {
        i: [j for j, other in enumerate(clusters)
            if j != i and rows[other[0]] >> clusters[i][0] & 1]
        for i in range(len(clusters))
    }
    memo = {}

    def level(i):
        if i not in memo:
            memo[i] = 1 + max((level(j) for j in below[i]), default=0)
        return memo[i]

    top = max(level(i) for i in range(len(clusters)))
    return [
        [sorted(c) for i, c in enumerate(clusters) if level(i) == lvl]
        for lvl in range(1, top + 1)
    ]


def _edge(rows, x: int, y: int) -> bool:
    return bool(rows[x] >> y & 1)


# First-order frame conditions, each as the predicate that is true at
# a tuple of worlds where the condition is broken.
CONDITION_BROKEN = {
    "reflexive": lambda rows, x: not _edge(rows, x, x),
    "symmetric": lambda rows, x, y: _edge(rows, x, y) and not _edge(rows, y, x),
    "transitive": lambda rows, x, y, z: (
        _edge(rows, x, y) and _edge(rows, y, z) and not _edge(rows, x, z)),
    # xRy and xRz with no world that both y and z reach
    "convergent": lambda rows, x, y, z: (
        _edge(rows, x, y) and _edge(rows, x, z) and not rows[y] & rows[z]),
}


def condition_witnesses(rows, name: str) -> set[tuple[int, ...]]:
    """Every tuple of worlds at which the condition is broken."""
    broken = CONDITION_BROKEN[name]
    arity = broken.__code__.co_argcount - 1
    return {worlds for worlds in product(range(len(rows)), repeat=arity)
            if broken(rows, *worlds)}


def relations_up_to_iso(n: int) -> list[tuple[int, ...]]:
    """One canonical representative per isomorphism class of relations."""
    full = (1 << n) - 1
    seen = set()
    for rows in product(range(full + 1), repeat=n):
        seen.add(canonical(rows))
    return sorted(seen)


def quasiorders_up_to_iso(n: int) -> list[tuple[int, ...]]:
    full = (1 << n) - 1
    seen = set()
    for rows in product(range(full + 1), repeat=n):
        if is_quasiorder(rows):
            seen.add(canonical(rows))
    return sorted(seen)


def predecessor_table(rows) -> list[int]:
    """The complex algebra's atom table: f(atom w) = predecessors of w."""
    return [
        sum(1 << x for x, row in enumerate(rows) if row >> w & 1)
        for w in range(len(rows))
    ]


def transports(values_a, values_b, perm) -> bool:
    """Whether the atom bijection ``perm`` carries one atom table onto the other."""
    for i, value in enumerate(values_a):
        image = 0
        for j in range(len(values_a)):
            if value >> j & 1:
                image |= 1 << perm[j]
        if image != values_b[perm[i]]:
            return False
    return True


# --- instance counts of the verification suites ---


def table1_checked(worlds: int) -> int:
    # four axioms on every relation class, seven more on quasiorder classes
    return sum(
        4 * RELATIONS_UP_TO_ISO[n] + 7 * QUASIORDERS_UP_TO_ISO[n]
        for n in range(1, worlds + 1)
    )


def conjugacy_checked(worlds: int, atoms: int) -> int:
    # every labeled relation, then two checks per element of each algebra
    return sum(1 << (n * n) for n in range(1, worlds + 1)) + sum(
        2 << n for n in range(1, atoms + 1)
    )


def p2_quasiidentity_checked(atoms: int) -> int:
    # two checks on the two-element algebra, one per larger simple
    # algebra, and one per atom table of every size
    return 2 + (atoms - 1) + sum(1 << (n * n) for n in range(1, atoms + 1))


def duality_roundtrip_checked(atoms: int, worlds: int) -> int:
    return sum(LABELED_QUASIORDERS[n] for n in range(1, atoms + 1)) + sum(
        QUASIORDERS_UP_TO_ISO[n] for n in range(1, worlds + 1)
    )


def _extremal(kind: str, n: int, a: int):
    """The README's four extremal closure operators, pointwise."""
    top = (1 << n) - 1

    def f(x):
        below = x | a == a
        if kind == "iu":
            return x if below else top
        if kind == "ui":
            return 0 if x == 0 else a | x
        if kind == "uu":
            return 0 if x == 0 else (a if below else top)
        return x if below else a | x

    return f


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def closure_properties_checked(atoms: int) -> int:
    # one check per closed element below top of each family member, and
    # one per subalgebra of each ii algebra
    total = 0
    for n in range(1, atoms + 1):
        top = (1 << n) - 1
        for kind in ("iu", "ui", "uu", "ii"):
            for a in range(top + 1):
                if (kind == "uu" and a == 0) or (kind == "ui" and a == top):
                    continue
                f = _extremal(kind, n, a)
                total += sum(1 for x in range(top) if f(x) == x)
        for b in range(top + 1):
            f = _extremal("ii", n, b)
            for part in _partitions(list(range(n))):
                blocks = [sum(1 << w for w in block) for block in part]
                carrier = {0}
                for block in blocks:
                    carrier |= {x | block for x in carrier}
                total += all(f(x) in carrier for x in carrier)
    return total


SMALL_SUITE_CHECKED = {
    # per element of each algebra: iu, ui, ii shapes; two ui conditions
    # off the bounds; two uu checks off zero
    "canonical_shapes": lambda atoms: sum(
        7 * (1 << n) - 6 for n in range(1, atoms + 1)
    ),
    # per element: iu and ii; ui off top; uu off zero
    "si_characterizations": lambda atoms: sum(
        4 * (1 << n) - 2 for n in range(1, atoms + 1)
    ),
    "closure_properties": closure_properties_checked,
    # two checks per element strictly between 0 and top
    "sum_and_union": lambda atoms: sum(
        2 * ((1 << n) - 2) for n in range(1, atoms + 1)
    ),
    # the chain-algebra check, then one per antiatom: the only shared
    # uu/ui presentations
    "meets": lambda atoms: 1 + sum(n for n in range(2, atoms + 1)),
    # k3 and k2 per element strictly between, k4 per element
    "kn_embedding": lambda atoms: sum(
        3 * (1 << n) - 4 for n in range(2, atoms + 1)
    ),
}
