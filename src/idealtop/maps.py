"""Total maps between finite ground sets and their topological classification."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPoint, DimensionMismatch
from .space import Topology, check_mask, check_point_count, full_mask


@dataclass(frozen=True)
class FiniteMap:
    """Total function {0..n_dom-1} -> {0..n_cod-1} as a value table."""

    n_dom: int
    n_cod: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_point_count(self.n_dom)
        check_point_count(self.n_cod)
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.n_dom:
            raise DimensionMismatch(
                f"value table has {len(self.values)} entries for {self.n_dom} points")
        for x, y in enumerate(self.values):
            if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < self.n_cod:
                raise BadPoint(f"f({x}) = {y!r} outside codomain 0..{self.n_cod - 1}")

    def __call__(self, x: int) -> int:
        return self.values[x]

    def image(self, a: int) -> int:
        check_mask(a, self.n_dom)
        out = 0
        rest = a
        while rest:
            x = (rest & -rest).bit_length() - 1
            out |= 1 << self.values[x]
            rest &= rest - 1
        return out

    def preimage(self, b: int) -> int:
        check_mask(b, self.n_cod)
        out = 0
        for x, y in enumerate(self.values):
            if (b >> y) & 1:
                out |= 1 << x
        return out

    @property
    def injective(self) -> bool:
        return len(set(self.values)) == self.n_dom

    @property
    def surjective(self) -> bool:
        return len(set(self.values)) == self.n_cod

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def __repr__(self) -> str:
        return f"FiniteMap({self.n_dom}->{self.n_cod}, {list(self.values)})"


def identity_map(n: int) -> FiniteMap:
    return FiniteMap(n, n, tuple(range(n)))


def constant_map(n_dom: int, n_cod: int, y: int) -> FiniteMap:
    return FiniteMap(n_dom, n_cod, (y,) * n_dom)


def compose(g: FiniteMap, f: FiniteMap) -> FiniteMap:
    """g after f."""
    if f.n_cod != g.n_dom:
        raise DimensionMismatch(
            f"cannot compose: inner codomain {f.n_cod} != outer domain {g.n_dom}")
    return FiniteMap(f.n_dom, g.n_cod, tuple(g.values[y] for y in f.values))


def image(f: FiniteMap, a: int) -> int:
    return f.image(a)


def preimage(f: FiniteMap, b: int) -> int:
    return f.preimage(b)


def image_table(f: FiniteMap) -> tuple[int, ...]:
    """Forward image of every subset of the domain, indexed by mask."""
    n = f.n_dom
    tab = [0] * (1 << n)
    for x in range(n):
        bit = 1 << f.values[x]
        step = 1 << x
        for a in range(step, 1 << n, step << 1):
            for m in range(a, a + step):
                tab[m] |= bit
    return tuple(tab)


def preimage_table(f: FiniteMap) -> tuple[int, ...]:
    """Preimage of every subset of the codomain, indexed by mask."""
    singles = [0] * f.n_cod
    for x, y in enumerate(f.values):
        singles[y] |= 1 << x
    tab = [0] * (1 << f.n_cod)
    for b in range(1, 1 << f.n_cod):
        low = (b & -b).bit_length() - 1
        tab[b] = tab[b & (b - 1)] | singles[low]
    return tuple(tab)


# ---------------------------------------------------------------------------
# classification against a pair of topologies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapProfile:
    continuous: bool
    open_map: bool
    closed_map: bool
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    @property
    def homeomorphism(self) -> bool:
        return self.continuous and self.open_map and self.bijective


def _check_dims(f: FiniteMap, t_dom: Topology, t_cod: Topology) -> None:
    if f.n_dom != t_dom.n or f.n_cod != t_cod.n:
        raise DimensionMismatch(
            f"map is {f.n_dom}->{f.n_cod} but topologies have "
            f"{t_dom.n} and {t_cod.n} points")


def _continuous(img: tuple[int, ...], nb_dom: tuple[int, ...],
                nb_cod: tuple[int, ...]) -> bool:
    """Whether the map with image table ``img`` is continuous from the
    topology with minimal neighborhoods ``nb_dom`` to the one with
    ``nb_cod``: iff ``f[N(x)] <= N(f(x))`` for every ``x``, since the
    preimage of an open set is open iff it holds ``N(x)`` for each of its
    points ``x``."""
    for x, a in enumerate(nb_dom):
        if img[a] & ~nb_cod[img[1 << x].bit_length() - 1]:
            return False
    return True


def _open(img: tuple[int, ...], nb_dom: tuple[int, ...],
          cl_cod: tuple[int, ...]) -> bool:
    """Whether the map with image table ``img`` is open from the topology
    with minimal neighborhoods ``nb_dom`` to the one with closure table
    ``cl_cod``: iff every ``f[N(x)]`` is open, since every open set is the
    union of the minimal neighborhoods of its points and images preserve
    unions; and a set is open iff its complement is its own closure."""
    full = len(cl_cod) - 1
    for a in nb_dom:
        closed = full ^ img[a]
        if cl_cod[closed] != closed:
            return False
    return True


def _closed(img: tuple[int, ...], cl_dom: tuple[int, ...],
            cl_cod: tuple[int, ...]) -> bool:
    """Whether the map with image table ``img`` is closed from the topology
    with closure table ``cl_dom`` to the one with ``cl_cod``: iff every
    ``f[cl{x}]`` is closed, since closed sets are the unions of point
    closures and images preserve unions."""
    for x in range((len(cl_dom) - 1).bit_length()):
        image = img[cl_dom[1 << x]]
        if cl_cod[image] != image:
            return False
    return True


def classify(f: FiniteMap, t_dom: Topology, t_cod: Topology) -> MapProfile:
    """Classify ``f`` between two topologies.

    Continuity is decided on minimal neighborhoods, openness on their
    images and closedness on point closures (see :func:`_continuous`,
    :func:`_open` and :func:`_closed`); the five textbook
    characterizations of continuity are in
    :func:`continuity_characterizations`.
    """
    _check_dims(f, t_dom, t_cod)
    img = image_table(f)
    cl_x, cl_y = t_dom._closures, t_cod._closures
    nb_x, nb_y = t_dom.min_nbhd, t_cod.min_nbhd
    return MapProfile(_continuous(img, nb_x, nb_y), _open(img, nb_x, cl_y),
                      _closed(img, cl_x, cl_y), f.injective, f.surjective)


def continuity_characterizations(f: FiniteMap, t_dom: Topology,
                                 t_cod: Topology) -> dict[str, bool]:
    """The five equivalent forms of continuity, each computed directly.

    ``open_preimages`` quantifies over open sets; the others over arbitrary
    subsets.  They serve as cross-checks of :func:`classify`.
    """
    _check_dims(f, t_dom, t_cod)
    pre = preimage_table(f)
    img = image_table(f)
    full_cod = full_mask(t_cod.n)
    by_open = all(t_dom.is_open(pre[o]) for o in t_cod.opens())
    by_closed = all(t_dom.is_closed(pre[c]) for c in t_cod.closed_sets())
    by_image_closure = all(
        not img[t_dom.closure(a)] & ~t_cod.closure(img[a])
        for a in range(1 << t_dom.n))
    by_preimage_closure = all(
        not t_dom.closure(pre[b]) & ~pre[t_cod.closure(b)]
        for b in range(1 << t_cod.n))
    by_preimage_interior = all(
        not pre[t_cod.interior(b)] & ~t_dom.interior(pre[b])
        for b in range(full_cod + 1))
    return {
        "open_preimages": by_open,
        "closed_preimages": by_closed,
        "image_closure": by_image_closure,
        "preimage_closure": by_preimage_closure,
        "preimage_interior": by_preimage_interior,
    }


# ---------------------------------------------------------------------------
# JSON form: {"n_dom": int, "n_cod": int, "values": [ints...]}
# ---------------------------------------------------------------------------

def map_to_json(f: FiniteMap) -> dict:
    return {"n_dom": f.n_dom, "n_cod": f.n_cod, "values": list(f.values)}


def map_from_json(doc: object, where: str = "f") -> FiniteMap:
    from .jsonio import parse_map
    return parse_map(doc, where)
