"""Ideals on finite ground sets.

An ideal is a family of "small" subsets containing the empty set and closed
downward and under finite unions.  On a finite ground set every such family
is the power set of its union, so an ideal is stored as that union: the
carrier mask ``M``, with membership ``A in I  iff  A <= M``.  The transfer
conditions are evaluated by carrier shortcuts; their quantifier forms over
ideal members are pinned to them in the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, TYPE_CHECKING

from .errors import DimensionMismatch
from .space import check_mask, check_point_count, format_mask, full_mask, submasks

if TYPE_CHECKING:  # pragma: no cover
    from .maps import FiniteMap


@dataclass(frozen=True)
class Ideal:
    """Ideal on ``n`` points with carrier mask ``carrier``."""

    n: int
    carrier: int

    def __post_init__(self) -> None:
        check_point_count(self.n)
        check_mask(self.carrier, self.n)

    @property
    def is_proper(self) -> bool:
        """Proper means the whole space is not small."""
        return self.carrier != full_mask(self.n)

    def contains(self, a: int) -> bool:
        check_mask(a, self.n)
        return not a & ~self.carrier

    def members(self) -> Iterator[int]:
        """All members, ascending by mask value."""
        return submasks(self.carrier)

    def __repr__(self) -> str:
        return f"Ideal({self.n}, {format_mask(self.carrier)})"


def make_ideal(n: int, generators: Iterable[int] = ()) -> Ideal:
    """Smallest ideal containing every generator (the trivial ideal for an
    empty generator list)."""
    check_point_count(n)
    carrier = 0
    for g in generators:
        check_mask(g, n)
        carrier |= g
    return Ideal(n, carrier)


def fin(n: int) -> Ideal:
    """The ideal of all finite subsets.

    On a finite ground set every subset is finite, so this is the improper
    ideal of all subsets (carrier = whole space).  Provided for parity with
    the usual notation; do not expect it to be proper here.
    """
    check_point_count(n)
    return Ideal(n, full_mask(n))


def trivial_ideal(n: int) -> Ideal:
    """The ideal whose only member is the empty set."""
    return make_ideal(n, ())


def power_set_ideal(n: int) -> Ideal:
    """The improper ideal of all subsets."""
    return fin(n)


def contains(ideal: Ideal, a: int) -> bool:
    return ideal.contains(a)


def image_ideal(f: "FiniteMap", ideal: Ideal) -> Ideal:
    """Ideal on the codomain generated by forward images of members."""
    if f.n_dom != ideal.n:
        raise DimensionMismatch(
            f"map domain has {f.n_dom} points, ideal lives on {ideal.n}")
    return Ideal(f.n_cod, f.image(ideal.carrier))


# ---------------------------------------------------------------------------
# transfer conditions between a domain ideal and a codomain ideal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferConditions:
    preimage_ok: bool    # preimages of codomain-small sets are domain-small
    image_ok: bool       # images of domain-small sets are codomain-small
    equivalence_ok: bool  # smallness is preserved and reflected


def transfer_conditions(f: "FiniteMap", dom: Ideal, cod: Ideal) -> TransferConditions:
    """Evaluate the three ideal-transfer conditions for ``f``.

    With carriers ``M`` and ``N``: preimages of small sets are small iff
    ``f^-1[N] <= M``, images of small sets are small iff ``f[M] <= N``, and
    smallness is preserved and reflected iff both hold.
    """
    if f.n_dom != dom.n:
        raise DimensionMismatch(
            f"map domain has {f.n_dom} points, domain ideal lives on {dom.n}")
    if f.n_cod != cod.n:
        raise DimensionMismatch(
            f"map codomain has {f.n_cod} points, codomain ideal lives on {cod.n}")

    pre_ok = not f.preimage(cod.carrier) & ~dom.carrier
    img_ok = not f.image(dom.carrier) & ~cod.carrier
    return TransferConditions(pre_ok, img_ok, pre_ok and img_ok)


# ---------------------------------------------------------------------------
# JSON form: {"n": int, "carrier": [points...]}; generators accepted on input
# ---------------------------------------------------------------------------

def ideal_to_json(ideal: Ideal) -> dict:
    from .space import points_of
    return {"n": ideal.n, "carrier": list(points_of(ideal.carrier))}


def ideal_from_json(doc: object, n: int | None = None, where: str = "ideal") -> Ideal:
    from .jsonio import parse_ideal
    return parse_ideal(doc, n, where)
