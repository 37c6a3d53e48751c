"""Graph-metric instances with provable ratio bounds via minimum T-joins.

Subdividing the edges of a 2-edge-connected plane graph yields instances
whose LP cost is (asymptotically) the total edge length while any tour must
additionally pay for a T-join on the odd-degree base vertices.  The bound
(c(E) + c(J)) / c(E) is exact arithmetic on small graphs: K4 with subdivided
spokes approaches the conjectured 4/3 ceiling.
"""

from tspgap.families import gen_subdivided, hexagon_spec, tetrahedron_spec, tjoin_ratio_bound


def main() -> None:
    print("triangle-with-spokes (outer subdivisions a, spoke subdivisions b):")
    for a, b in [(0, 0), (1, 1), (2, 2), (4, 4), (6, 6)]:
        spec = tetrahedron_spec(a, b)
        inst = gen_subdivided(spec)
        print(f"  a={a} b={b}  n={inst.n:>3}  bound={tjoin_ratio_bound(spec):.8f}")
    print(f"  (K4 itself: bound {tjoin_ratio_bound(tetrahedron_spec(0, 0)):.8f} = 4/3)")

    print()
    print("hexagon fields (rows x cols, k subdivisions per wall):")
    for rows, cols in [(1, 1), (2, 2), (3, 3)]:
        for k in (0, 2):
            spec = hexagon_spec(rows, cols, k)
            inst = gen_subdivided(spec)
            print(f"  {rows}x{cols} k={k}  n={inst.n:>3}  bound={tjoin_ratio_bound(spec):.8f}")
    print()
    print("a single ring is Eulerian (no odd vertices), so its bound is 1;")
    print("larger fields grow boundary vertices of degree 3 and the bound rises.")


if __name__ == "__main__":
    main()
