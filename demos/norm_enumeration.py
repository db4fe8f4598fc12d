#!/usr/bin/env python3
"""Certified lower bounds for the universal norm of a *-polynomial.

For a registered presentation (generators, norm bounds, relations, and a
stability modulus), the norm of a polynomial in the universal algebra is
approximated from below by scanning finite-dimensional representations:
any representation with small enough relation defect can be repaired into
an exact one nearby, so its polynomial norm, minus the round's accuracy,
is a certified lower bound.  The emitted stream is strictly increasing.

For q = u + u* over one free unitary the norm is exactly 2, approached
through the dimension-1 representations u = exp(i theta).
"""

import argparse
from fractions import Fraction

from cstarkit.polynomials import generator
from cstarkit.presentations import (RepresentationCatalog, norm_lower_enumerate,
                                    registered_presentation)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pres-id", default="free_unitaries:1")
    parser.add_argument("--budget", type=int, default=600,
                        help="catalog representations to examine")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    family = registered_presentation(args.pres_id)
    u = generator(family.presentation.names[1])
    q = u + u.adjoint()
    print(f"presentation {args.pres_id}, q = {q}")

    catalog = RepresentationCatalog(dims=tuple(range(1, 17)), seed=args.seed)
    values = list(norm_lower_enumerate(family.presentation, q, catalog,
                                       args.pres_id, args.budget))
    for j, value in enumerate(values):
        print(f"  emission {j:2d}: {str(value):>12s} = {float(value):.10f}")
    if values:
        gap = 2 - values[-1]
        print(f"best bound {float(values[-1]):.10f}, gap to the true norm {float(gap):.2e}")
        assert values[-1] <= 2 and gap >= 0
        assert values == sorted(set(values))
    print(f"(accuracy doubles each round; budget {args.budget} representations)")


if __name__ == "__main__":
    main()
