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

from .boolean import FiniteBA, transpose
from .frames import Frame, _labelling
from .operators import ModalAlgebra, ModalOperator


def complex_algebra(frame: Frame) -> ModalAlgebra:
    """Powerset algebra of the frame; f(atom w) = predecessors of w."""
    return ModalAlgebra(FiniteBA(frame.n_worlds), ModalOperator(transpose(frame.rows)))


def canonical_frame(algebra: ModalAlgebra) -> Frame:
    """Frame on the atoms: i relates to j exactly when atom i <= f(atom j)."""
    # beyond MAX_WORLDS atoms, Frame refuses with SizeError
    return Frame(algebra.n_atoms, transpose(algebra.op.atom_values))


def algebras_isomorphic(a: ModalAlgebra, b: ModalAlgebra):
    """Decide whether an atom bijection transports one operator onto the other.

    Returns (found, permutation) where permutation maps atom indices of
    the first algebra to atom indices of the second.  An atom table is
    the predecessor-row table of the canonical frame, so both tables get
    the frames' canonical labelling; equal forms give *an* isomorphism,
    one labelling followed by the inverse of the other.
    """
    if a.n_atoms != b.n_atoms:
        return False, None
    form_a, perm_a = _labelling(a.op.atom_values)
    form_b, perm_b = _labelling(b.op.atom_values)
    if form_a != form_b:
        return False, None
    return True, tuple(perm_b.index(label) for label in perm_a)
