"""The per-axiom selection, as the reference for the kernel's record.

The kernel selects through model.selection's record, which keeps each
axiom's window over C and asks A's cone only inside it.  This reference answers
the same question the long way: it visits every appeared axiom of the
input and walks theta over A and sigma over C, position by position, at
the stage asked.  Only tests import this module.
"""


def cone_holds(sigma, entry, t):
    """Position i of sigma is 1 exactly when i entered by stage t."""
    return all((entry.get(i, t + 1) <= t) == (c == "1") for i, c in enumerate(sigma))


def applicable_axiom(table, s, a_cones, c_cones, x):
    """The axiom table selects on input x at stage s: the first in its
    (use, k) order that has appeared, with theta an initial segment of A
    and, for a binary table, sigma one of C, both at stage s.  Each
    oracle is a Cones, read only through its map of entry stages."""
    if table.binary != (c_cones is not None):
        raise ValueError("functional evaluated with the wrong number of oracles")
    for appear, ax in table.axioms_for(x):
        if appear > s or not cone_holds(ax.theta, a_cones.entry, s):
            continue
        if c_cones is not None and not cone_holds(ax.sigma, c_cones.entry, s):
            continue
        return ax
    return None
