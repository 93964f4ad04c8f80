"""Sweep harness: run the duality/irreducibility/image analysis across all
(n, p, t, ell, sign) tuples produced by the pair search.

The work is split into phases so callers can time the invariant-form pass on
its own: forms first, then commutants, then image groups.  Each phase runs the
same induce chain as certs.build_certificate.  Records are sorted
deterministically regardless of how the phases are executed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import search_pairs
from .chars import TameCharacter
from .induce import (
    ResidualRep,
    build_residual_rep,
    commutant_dim,
    expected_image_order,
    form_kind,
    image_analysis,
    invariant_forms,
)


@dataclass
class SweepRecord:
    n: int
    p: int
    t: int
    ell: int
    sign: int
    k: int
    form_dim: int
    form_kind: str | None
    tame_relation: bool
    commutant: int | None = None
    image_order: int | None = None
    expected_order: int | None = None
    metacyclic: bool | None = None
    witness_exponent: int | None = None


def sweep_tuples(
    n_values=(2, 4, 8), ells=(3, 5, 13), p_max: int = 100, t_max: int = 100
) -> list[tuple[int, int, int, int]]:
    out = set()
    for n in n_values:
        for ell in ells:
            for cand in search_pairs(n, ell, p_max, t_max):
                out.add((n, cand.p, cand.t, ell))
    return sorted(out)


def form_phase(tuples) -> list[tuple[ResidualRep, SweepRecord]]:
    """Build each representation and solve for its invariant forms."""
    items = []
    for n, p, t, ell in tuples:
        for sign in (1, -1):
            rep = build_residual_rep(TameCharacter(n, p, t, sign), ell)
            forms = invariant_forms(rep)
            # build_residual_rep raises unless the tame relation holds
            rec = SweepRecord(n=n, p=p, t=t, ell=ell, sign=sign, k=rep.k, form_dim=len(forms),
                              form_kind=form_kind(forms[0]).value, tame_relation=True)
            items.append((rep, rec))
    return items


def commutant_phase(items) -> None:
    for rep, rec in items:
        rec.commutant = commutant_dim(rep)


def group_phase(items) -> None:
    for rep, rec in items:
        image = image_analysis(rep)
        rec.image_order, rec.expected_order = image.order, expected_image_order(rep)
        rec.metacyclic, rec.witness_exponent = image.metacyclic, image.witness_exponent
