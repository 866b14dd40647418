"""Linear algebra over GF(2) on Python-int rows.

A matrix is a list of ints, one per row: bit j of row i is entry (i, j).
Python ints have no width limit, and the matrices handled here have at most
a few dozen columns, so plain integer XOR beats any packed-array layout.
"""

from __future__ import annotations

from collections.abc import Iterable


def standard_form(rows: list[int], columns: Iterable[int]) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination of ``rows``, pivoting on ``columns`` in order.

    A column becomes the next pivot when it is independent of the pivot
    columns before it; the scan stops once every row has a pivot.  Returns
    ``(pivots, reduced)``: reduced row i holds pivot i's bit and no other
    pivot's, the rows past the pivots are zero on the scanned columns, and
    the reduced rows span the same space as ``rows``.
    """
    rows = list(rows)
    pivots: list[int] = []
    for col in columns:
        p = len(pivots)
        if p == len(rows):
            break
        bit = 1 << col
        i = next((i for i in range(p, len(rows)) if rows[i] & bit), None)
        if i is None:
            continue
        rows[p], rows[i] = rows[i], rows[p]
        rows = [row ^ rows[p] if row & bit and k != p else row for k, row in enumerate(rows)]
        pivots.append(col)
    return pivots, rows


def rank(rows: list[int]) -> int:
    """GF(2) rank of the rows."""
    return len(standard_form(rows, range(max(rows, default=0).bit_length()))[0])
