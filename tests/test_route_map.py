"""Route independence, checked against ``gen_stirling._ROUTE_MAP``.

Each route runs cold, in its own fresh interpreter, so that no warm memo
hides a call. ``sys.setprofile`` records every probstirling function the
route enters outside calls nested under a moment table, the tables being
every one that some route in the map reads. Each route must enter exactly
the tables the map lists for it. Within a group, each pair of routes may
overlap only in those tables and the helpers the map declares shared, and
each declared helper must be one that some pair does share.
"""

import json
from itertools import combinations

from probstirling.gen_stirling import _ROUTE_MAP

# Each route's cells, as the tail of a comprehension. The shifted law's
# moments read its base law's shifted sum moments, a table that other
# routes read directly.
SY_CELLS = "for law in LAWS for n in range(6) for x in XS"
TRIANGLE = f"{SY_CELLS} for m in range(n + 1)"
SUM_CELLS = "for law in LAWS for n in range(5) for N in (-1, 2, 6) for x in XS"
LI_CELLS = "for n in range(5) for k in range(4) for q in QS"
CALLS = {
    "gen_stirling.sy_table": f"sy_table(law, n, x) {SY_CELLS}",
    "gen_stirling.sy": f"sy(law, n, m, x) {TRIANGLE}",
    "gen_stirling.sy_via_factorial": f"sy_via_factorial(law, n, m, x) {TRIANGLE}",
    "gen_stirling.sy_via_uniform_rep": f"sy_via_uniform_rep(law, n, m, x) {TRIANGLE} if m <= 4",
    "sums.sum_direct": f"sum_direct(law, n, N, x) {SUM_CELLS}",
    "sums.sum_via_stirling": f"sum_via_stirling(law, n, N, x) {SUM_CELLS}",
    "sums.sum_via_cnn": f"sum_via_cnn(law, n, N, x) {SUM_CELLS}",
    "polylog.li_conv_direct": f"li_conv_direct(n, k, q) {LI_CELLS}",
    "polylog.li_conv_prob": f"li_conv_prob(n, k, q) {LI_CELLS}",
}

CHILD = '''
import json, sys
from fractions import Fraction
from probstirling.distributions import Exponential, Geometric, Poisson, Shifted
from probstirling.{module} import {function}

LAWS = [Poisson(Fraction(1, 3)), Geometric(Fraction(1, 2)), Shifted(Exponential(), Fraction(2, 5))]
XS = [Fraction(0), Fraction(1, 2)]
QS = [Fraction(1, 3), Fraction(1, 2)]
TABLES = {tables!r}
entered, open_tables = set(), []


def key(frame):
    """module.function of a probstirling frame, with a comprehension,
    generator expression or lambda charged to the function enclosing it."""
    module = frame.f_globals.get("__name__", "")
    if not module.startswith("probstirling."):
        return None
    name = frame.f_code.co_qualname
    while name.endswith(">"):
        name = name.rpartition(".<locals>.")[0]
    return module.partition(".")[2] + "." + name


def profile(frame, event, arg):
    if event == "call" and (name := key(frame)):
        if not open_tables:
            entered.add(name)
        if name in TABLES:
            open_tables.append(frame)
    elif event == "return" and open_tables and open_tables[-1] is frame:
        open_tables.pop()


sys.setprofile(profile)
[{call}]
sys.setprofile(None)
print(json.dumps(sorted(entered)))
'''


def test_routes_in_a_group_share_only_the_declared_set(fresh_python):
    groups = _ROUTE_MAP["groups"]
    reads = {route: set(tables) for group in groups for route, tables in group.items()}
    tables, shared = set().union(*reads.values()), set(_ROUTE_MAP["shared"])
    assert sorted(CALLS) == sorted(reads)
    entered = {}
    for route, call in CALLS.items():
        module, _, function = route.partition(".")
        child = CHILD.format(module=module, function=function, tables=tables, call=call)
        entered[route] = set(json.loads(fresh_python(child)))
        assert route in entered[route], route  # the profile saw the route itself
        assert entered[route] & tables == reads[route], route
    overlaps = set()
    for group in groups:
        for a, b in combinations(group, 2):
            overlap = entered[a] & entered[b]
            assert overlap <= tables | shared, (a, b, sorted(overlap - tables - shared))
            overlaps |= overlap
    assert overlaps - tables == shared
