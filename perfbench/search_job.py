"""A library job: brute-force diagonal operator search through algcheck's API.

Usage: python3 perfbench/search_job.py DOC KIND WEIGHT CANDIDATES

WEIGHT is a rational or "-" for none; CANDIDATES is a comma-separated
list of rationals.  Prints the diagonal of every operator found, then a
count line.  Runs in its own interpreter, like a user script would.
"""

import sys

from algcheck import parse_document, parse_rational, search_diagonal_operators


def main(argv):
    path, kind, weight, candidates = argv
    with open(path, encoding="utf-8") as fh:
        doc = parse_document(fh.read())
    values = [parse_rational(c) for c in candidates.split(",")]
    found = search_diagonal_operators(
        doc.algebra, kind, values, weight=None if weight == "-" else parse_rational(weight)
    )
    for m in found:
        print(" ".join(str(m.matrix[i][i]) for i in range(doc.algebra.dim)))
    print(f"{len(found)} of {len(set(values)) ** doc.algebra.dim} diagonal maps")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
