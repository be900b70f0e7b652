#!/usr/bin/env python3
"""Walk through integer gradations of the four classical series.

Builds grading operators from root labels, shows the exact diagonal, the
block partition it induces, the dimensions of the graded pieces, and the
block-diagonal subgroup type.
"""

from todakit import (
    DynkinLabels,
    SeriesTag,
    cartan_matrix,
    graded_decomposition,
    levi_type,
    operator_from_labels,
)

SHOWCASE = [
    ("A", 2, (1, 0)),
    ("A", 4, (0, 1, 0, 1)),
    ("B", 3, (0, 1, 0)),
    ("C", 3, (0, 0, 1)),
    ("D", 4, (1, 0, 0, 1)),
]


def main():
    for series, rank, labels in SHOWCASE:
        tag = SeriesTag(series, rank)
        lab = DynkinLabels(tag, labels)
        op = operator_from_labels(lab)
        blocks = op.blocks
        dec = graded_decomposition(op)
        print(f"== series {series}, rank {rank}, labels {labels}")
        print(f"   ambient size {tag.ambient_dim}, algebra dimension {tag.algebra_dim}")
        diag = ", ".join(str(q) for q in op.diagonal)
        print(f"   grading operator diag({diag})")
        print(f"   blocks {blocks.sizes} with steps {blocks.steps}")
        dims = ", ".join(f"{m}: {dec.dimension(m)}" for m in dec.degrees)
        print(f"   graded dimensions {{{dims}}}")
        print(f"   block-diagonal subgroup {levi_type(blocks)}")
        print()

    km = cartan_matrix(SeriesTag("B", 4))
    print("exact inverse of the rank-4 B-series matrix (note the 1/2 entries):")
    for row in km.inverse:
        print("   [" + ", ".join(f"{x}" for x in row) + "]")


if __name__ == "__main__":
    main()
