"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from idealtop import Topology


@st.composite
def preorders(draw, min_n: int, max_n: int) -> Topology:
    """A random topology on ``min_n``..``max_n`` points: each point gets up to
    three random successors, and the relation is closed transitively, so
    every row is a minimal neighborhood holding those of its points."""
    n = draw(st.integers(min_n, max_n))
    table = [(1 << x) | sum(1 << y for y in draw(
        st.sets(st.integers(0, n - 1), max_size=3))) for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            nb = table[x]
            for y in range(n):
                if (nb >> y) & 1:
                    nb |= table[y]
            changed |= nb != table[x]
            table[x] = nb
    return Topology(n, tuple(table))
