"""Linear algebra over GF(2) on Python-int rows.

A matrix is a list of ints, one per row: bit j of row i is entry (i, j).
Python ints have no width limit, and the matrices handled here have at most
a few dozen columns, so plain integer XOR beats any packed-array layout.

An *echelon basis* is a list of nonzero rows with distinct leading bits,
kept in decreasing order; ``reduce`` and ``extend`` maintain one.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """Raised when inverting a square matrix whose GF(2) rank is deficient."""


def reduce(vec: int, basis: list[int]) -> int:
    """``vec`` reduced against an echelon basis; 0 iff it lies in the span."""
    for row in basis:
        vec = min(vec, vec ^ row)
    return vec


def extend(basis: list[int], vec: int) -> bool:
    """Add ``vec`` to the echelon basis in place; True iff the span grew."""
    vec = reduce(vec, basis)
    if not vec:
        return False
    basis.append(vec)
    basis.sort(reverse=True)
    return True


def rank(rows: list[int]) -> int:
    """GF(2) rank of the rows."""
    basis: list[int] = []
    for row in rows:
        extend(basis, row)
    return len(basis)


def invert(rows: list[int]) -> list[int]:
    """Inverse of a square matrix over GF(2), by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not square or not full rank.
    """
    n = len(rows)
    if any(row >> n for row in rows):
        raise SingularMatrixError(f"matrix has {n} rows but a column index >= {n}")
    a = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        bit = 1 << col
        pivot = next((i for i in range(col, n) if a[i] & bit), None)
        if pivot is None:
            raise SingularMatrixError(f"rank {col} < dimension {n}")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for i in range(n):
            if i != col and a[i] & bit:
                a[i] ^= a[col]
                inv[i] ^= inv[col]
    return inv


def matmul(a: list[int], b: list[int]) -> list[int]:
    """Product ``a @ b``: row i is the XOR of the rows of ``b`` that row i of ``a`` selects."""
    out = []
    for row in a:
        acc = 0
        j = 0
        while row:
            if row & 1:
                acc ^= b[j]
            row >>= 1
            j += 1
        out.append(acc)
    return out


def transpose(rows: list[int], cols: int) -> list[int]:
    """Transpose of a ``len(rows) x cols`` matrix."""
    return [
        sum(((row >> j) & 1) << i for i, row in enumerate(rows))
        for j in range(cols)
    ]
