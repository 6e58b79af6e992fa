"""Direct limit evaluation, the reference for the change-set decoding.

omegace.restrict reads an approximation's limit set out of its change
set alone.  This reference reads each limit straight off the table, as
the value at the horizon.  Only tests import this module.
"""


def limit_eval(tab, x: int) -> int:
    """The approximation's value at the horizon."""
    return tab.value(x, tab.horizon)
