"""Graded Betti numbers from exact linear algebra.

A GradedModule packages the multiplication tables M_j x V -> M_{j+1};
the Koszul differential is assembled from them and all ranks are exact
(sparse elimination per connected block, or a large-prime field for
quick bounds).
"""

import json

from mgbar import koszul


def show(table, title) -> None:
    print(title)
    header = "     " + " ".join(f"i={i}" for i in range(len(table[0])))
    print(header)
    for j, row in enumerate(table):
        print(f"j={j}: " + " ".join(f"{v:>3}" for v in row))
    print()


def main() -> None:
    print("The twisted cubic (3-uple embedding of the line)")
    print("------------------------------------------------")
    rnc = koszul.veronese_module(3, 3)
    print(f"  graded pieces: {rnc.piece_dims}")
    strand = koszul.koszul_cohomology(rnc, 1, 1)
    print(f"  K_(1,1): kernel {strand.kernel_dim}, image {strand.image_dim},"
          f" dimension {strand.k_dim}   (the three quadric relations)")
    print()
    show(koszul.betti_table(rnc, 3, 2), "  Betti table:")

    print("Property N_p (linear strand vanishing)")
    print("--------------------------------------")
    for p in (0, 1):
        print(f"  N_{p} holds for the twisted cubic: "
              f"{koszul.green_lazarsfeld_Np(rnc, p)}")
    ring = koszul.polynomial_ring_module(3, 4)
    print(f"  N_2 holds for the free ring on 3 variables: "
          f"{koszul.green_lazarsfeld_Np(ring, 2)}")
    print()

    print("Exact vs prime-field ranks")
    print("--------------------------")
    mat = koszul.koszul_matrix(rnc, 1, 1)
    print(f"  d_(1,1) is {mat.nrows}x{mat.ncols}")
    print(f"  exact rank:        {koszul.matrix_rank(mat)}")
    print(f"  rank mod 2^31-1:   "
          f"{koszul.matrix_rank(mat, modulus=koszul.DEFAULT_PRIME)}")
    print()

    print("Modules round-trip through JSON")
    print("-------------------------------")
    blob = json.dumps(koszul.module_to_json(rnc))
    again = koszul.module_from_json(blob)
    print(f"  {len(blob)} bytes; equal after reload: {again == rnc}")


if __name__ == "__main__":
    main()
