#!/usr/bin/env python3
"""Verdict survey across all small factor pairs.

Tallies the verdict of every unlabelled pair within the bounds (wreath /
decomposed / indeterminate), plus how often the stable colouring separates
inner from outer (non-)edges when the wreath conditions fail.  A verdict
is `decide`'s alone: no expression is certified and no automorphism order
is computed.  Useful for eyeballing how far the certified pathways reach
before the symbolic machinery gives up.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lexsym import decide, sabidussi_conditions, verify_wl_separation
from lexsym.sweeps import census_pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-nx", type=int, default=4)
    parser.add_argument("--max-ny", type=int, default=3)
    parser.add_argument("--max-product", type=int, default=14,
                        help="skip pairs whose product has more vertices")
    parser.add_argument("--check-separation", action="store_true",
                        help="also tally separation on failing-condition pairs")
    args = parser.parse_args(argv)
    for bound in ("max_nx", "max_ny", "max_product"):
        if getattr(args, bound) < 0:
            parser.error(f"--{bound.replace('_', '-')} must be non-negative")
    pairs, skipped = census_pairs(args.max_nx, args.max_ny, args.max_product)
    verdicts: Counter[str] = Counter({"skipped(bound)": skipped} if skipped else {})
    separation: Counter[str] = Counter()
    for x, y in pairs:
        conditions = sabidussi_conditions(x, y)
        verdict, _ = decide(x, y, conditions)
        verdicts[verdict] += 1
        if args.check_separation and not conditions.wreath_holds:
            sep = verify_wl_separation(x, y)
            both = (sep.inner_outer_edges_separated
                    and sep.inner_outer_nonedges_separated)
            separation["separated" if both else "mixed"] += 1
    print("verdicts:")
    for key, count in sorted(verdicts.items()):
        print(f"  {key:20s} {count}")
    if args.check_separation:
        print("separation when conditions fail:")
        for key, count in sorted(separation.items()):
            print(f"  {key:20s} {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
