"""Duality between finite frames and finite modal algebras.

The complex algebra of a frame is the powerset algebra on its worlds
with f(X) = {x : some successor of x lies in X}.  In the other
direction the canonical frame of a finite algebra lives on its atoms
(each ultrafilter of a finite Boolean algebra is principal over an
atom) with atom i related to atom j exactly when i <= f(j).  With the
bitmask representation the two constructions are exact inverses:
the operator's atom table *is* the predecessor table of the relation.
"""

from __future__ import annotations

from .boolean import FiniteBA, atom_indices
from .errors import SizeError
from .frames import MAX_WORLDS, Frame, _isomorphism
from .operators import ModalAlgebra, ModalOperator


def complex_algebra(frame: Frame) -> ModalAlgebra:
    """Powerset algebra of the frame; f(atom w) = predecessors of w."""
    n = frame.n_worlds
    values = [0] * n
    for x in range(n):
        for w in atom_indices(frame.rows[x]):
            values[w] |= 1 << x
    return ModalAlgebra(FiniteBA(n), ModalOperator(tuple(values)))


def canonical_frame(algebra: ModalAlgebra) -> Frame:
    """Frame on the atoms: i relates to j exactly when atom i <= f(atom j)."""
    n = algebra.n_atoms
    if n > MAX_WORLDS:
        raise SizeError(
            f"canonical frame would have {n} worlds, cap is {MAX_WORLDS}"
        )
    rows = [0] * n
    for j, value in enumerate(algebra.op.atom_values):
        for i in atom_indices(value):
            rows[i] |= 1 << j
    return Frame(n, tuple(rows))


def algebras_isomorphic(a: ModalAlgebra, b: ModalAlgebra):
    """Search for an atom bijection transporting one operator onto the other.

    Returns (found, permutation) where permutation maps atom indices of
    the first algebra to atom indices of the second.  An atom table is
    the predecessor-row table of the canonical frame, so this is the
    frame isomorphism search run on the tables.
    """
    if a.n_atoms != b.n_atoms:
        return False, None
    perm = _isomorphism(a.op.atom_values, b.op.atom_values)
    return perm is not None, perm
