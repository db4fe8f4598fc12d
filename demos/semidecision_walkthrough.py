#!/usr/bin/env python3
"""Semideciding "can this game be won more than half the time?".

The harness walks a deterministic stream of candidate strategies
(deterministic answer pairs first, then planted near-optimal pairs, then
seeded random ones), scores each by its float best value less a fixed
margin of 2^-7, and accepts as soon as a score clears 1/2.  The margin is
a constant, not a computed error bound, so an acceptance is not yet a
proof.  A game that cannot clear 1/2 never accepts; the stream just
exhausts its budget.  Every acceptance ships a witness that can be
re-verified from scratch.
"""

import argparse

import numpy as np

from cstarkit.games import NonlocalGame, chsh
from cstarkit.search import (CandidateStream, constant_family,
                             semidecide_membership, verify_witness)


def run(label, game, delta, budget, seed):
    stream = CandidateStream(dims=(2, 3, 4), budget=budget, seed=seed)
    verdict = semidecide_membership(constant_family(game, delta), "", stream)
    print(f"{label}: {verdict.outcome} after {verdict.candidates_tried} candidates")
    if verdict.witness is not None:
        audit = verify_witness(game, verdict.witness, delta)
        print(f"  witness dim {verdict.witness.alice.dim}, value {audit.value:.6f}")
        print(f"  re-verified: povm residual {audit.povm_residual:.2e}, "
              f"commutator defect {audit.worst_defect:.2e}, ok={audit.ok}")
    return verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # CHSH clears 1/2 already with deterministic answers (3/4 > 1/2), so
    # the very first candidate is accepted.
    run("chsh", chsh(), 1.0, args.budget, args.seed)

    # A game that is never won keeps the stream running to exhaustion.
    never = NonlocalGame(np.ones((1, 1)), np.zeros((1, 1, 2, 2), dtype=np.int8))
    run("never-win", never, 1.0, args.budget, args.seed)


if __name__ == "__main__":
    main()
