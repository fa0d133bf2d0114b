"""Lower/upper envelope operators on a discontinuous grid function.

A step function with the jump on a marked lattice point: the lower
envelope pulls the jump value down to the left limit, the upper one up
to the right limit, and normalize (= lower after upper) gives the
canonical representative that both operators leave fixed. The second
half shrinks a sandwich u -/+ 1/n around the function and watches the
pointwise convergence index stay finite away from the jump.
"""

import numpy as np

from ordercomplete.analysis import envelope_sequence, nested_limit_check
from ordercomplete.grids import (
    GridDomain,
    GridFunction,
    baire_lower,
    baire_upper,
    normalize,
    quasi_uniform_check,
)

shape = (33,)
skel = np.zeros(shape, dtype=bool)
skel[16] = True  # the jump sits on the skeleton
dom = GridDomain([0.0], [1.0], shape, skeleton=skel)
x = dom.axis(0)
u = GridFunction(dom, np.where(x < 0.5, 0.0, 1.0))

lo = baire_lower(u)
hi = baire_upper(u)
fixed = normalize(u)
print("value at the jump: raw", u.values[16], "lower", lo.values[16],
      "upper", hi.values[16], "normalized", fixed.values[16])
print("normalize is idempotent:", np.array_equal(
    normalize(fixed).values, fixed.values))

rep = nested_limit_check(dom, envelope_sequence(fixed, 8), tol=0.3)
print("\nsandwich widths 2/n shrink below 0.3:", rep.all_converge())

uppers = [fixed + 1.0 / n for n in range(1, 9)]
q = quasi_uniform_check(uppers, fixed, eps=0.5)
print("first index with envelope gap < 0.5, by lattice point:")
print(" ", q.n_map.tolist())
print("skeleton points report 0: convergence is only claimed off the jump.")
