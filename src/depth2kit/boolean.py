"""Finite Boolean algebras as powerset algebras over indexed atoms.

Elements are plain ints read as atom-index bitmasks: bit i stands for
atom i, 0 is bottom, the all-ones mask is top.  Every finite Boolean
algebra is of this form up to isomorphism, so the algebra object only
needs to carry its atom count and all operations reduce to bit
arithmetic.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, Record, SizeError

# Hard cap so that full-carrier enumeration (2**n elements) stays bounded.
MAX_ATOMS = 20


@lru_cache(maxsize=4096)  # every mask of up to 12 atoms
def atom_indices(mask: int) -> tuple[int, ...]:
    """The indices of the atoms below ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def transpose(rows) -> tuple[int, ...]:
    """The transposed bit matrix: bit x of ``out[y]`` is bit y of
    ``rows[x]``, as predecessor rows are to successor rows."""
    out = [0] * len(rows)
    for x, mask in enumerate(rows):
        for y in atom_indices(mask):
            out[y] |= 1 << x
    return tuple(out)


class FiniteBA(Record):
    """The powerset algebra on ``n_atoms`` indexed atoms."""

    n_atoms: int

    def __post_init__(self):
        if not 1 <= self.n_atoms <= MAX_ATOMS:
            raise SizeError(
                f"atom count must be between 1 and {MAX_ATOMS}, got {self.n_atoms}"
            )

    @property
    def size(self) -> int:
        return 1 << self.n_atoms

    @property
    def top(self) -> int:
        return (1 << self.n_atoms) - 1

    def atom(self, i: int) -> int:
        if not 0 <= i < self.n_atoms:
            raise DomainError(f"no atom with index {i}")
        return 1 << i

    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.n_atoms))

    def elements(self) -> range:
        return range(1 << self.n_atoms)

    def check(self, x: int) -> int:
        if not 0 <= x <= self.top:
            raise DomainError(f"element {x} not in an algebra with {self.n_atoms} atoms")
        return x

    def join(self, x: int, y: int) -> int:
        return self.check(x) | self.check(y)

    def meet(self, x: int, y: int) -> int:
        return self.check(x) & self.check(y)

    def complement(self, x: int) -> int:
        return self.top ^ self.check(x)

    def leq(self, x: int, y: int) -> bool:
        return self.check(x) & self.check(y) == x

    def downset(self, x: int) -> frozenset[int]:
        """The principal ideal of all elements below ``x``."""
        self.check(x)
        out, sub = [], x
        while True:
            out.append(sub)
            if sub == 0:
                return frozenset(out)
            sub = (sub - 1) & x

    def upset(self, x: int) -> frozenset[int]:
        """The principal filter of all elements above ``x``."""
        self.check(x)
        out, sup = [], x
        while True:
            out.append(sup)
            if sup == self.top:
                return frozenset(out)
            sup = (sup + 1) | x

