"""File formats and figures: native text, TSPLIB benchmarks, SVG drawings.

Writes three artifacts into ./demo_out: a diff-able native instance file
(bit-exact round trip), a TSPLIB FULL_MATRIX benchmark with costs
floor(1000 * distance) ready for an external solver, and a deterministic
SVG of the fractional tour overlaid with one shortcut tour (weight-1 edges
solid, weight-1/2 edges dashed).
"""

import os

from tspgap.cli.formats import atomic_write_text, format_instance, format_tsplib, parse_instance, write_instance
from tspgap.cli.svg import render_svg
from tspgap.families import IJK, fractional_xijk, gen_I2, gen_I3, pseudo_tour, shortcut_tour

OUT = "demo_out"


def main() -> None:
    os.makedirs(OUT, exist_ok=True)

    p = IJK(2, 2, 1)
    inst = gen_I2(p)
    native = os.path.join(OUT, "plane_2_2_1.txt")
    write_instance(native, inst, comment="plane embedding, 1-norm")
    back = parse_instance(format_instance(inst))
    assert (back.points == inst.points).all()
    print(f"wrote {native} (round trip bit-exact, n={inst.n})")

    bench = gen_I3(IJK(10, 9, 11))
    tsplib = os.path.join(OUT, "space_10_9_11.tsplib")
    atomic_write_text(tsplib, format_tsplib(bench, name="space_10_9_11"))
    print(f"wrote {tsplib} (n={bench.n}, explicit FULL_MATRIX)")

    x = fractional_xijk(p)
    tour = shortcut_tour(pseudo_tour(p, "middle_gap", 0), inst)
    svg = os.path.join(OUT, "plane_2_2_1.svg")
    atomic_write_text(svg, render_svg(inst, tour=tour, fractional=x, labels=True))
    print(f"wrote {svg} (fractional edges + one shortcut tour)")


if __name__ == "__main__":
    main()
