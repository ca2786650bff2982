"""Integer partitions, their conjugates, and majorization of spectra.

A partition is an immutable tuple of its parts, checked as it is built.
Majorization has one caller, the ``grone-merris`` bound of
``conjectures``, which compares a float Laplacian spectrum with a
conjugate degree sequence; its prefix sums are compared within ``TOL``.

``TOL`` is the package's one float tolerance; it lives here, in the lowest
module that compares floats, and ``spectral`` re-exports it.
"""

from __future__ import annotations

#: absolute tolerance of every floating comparison in the package
TOL = 1e-9


class Partition(tuple):
    """A nonincreasing sequence of positive integers, as the tuple of its
    parts."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError("partition parts must be positive, got %r" % (p,))
            if i > 0 and parts[i - 1] < p:
                raise ValueError("partition parts must be nonincreasing: %r" % (parts,))
        return super().__new__(cls, parts)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse a comma-separated list like "5,5,4,2,2,1"; "" is empty."""
        text = text.strip()
        if not text:
            return cls(())
        return cls(int(tok) for tok in text.split(","))

    @property
    def parts(self) -> tuple:
        return tuple(self)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


def conjugate(a: Partition) -> Partition:
    """Conjugate partition: part i counts the parts of ``a`` that are >= i."""
    if not len(a):
        return Partition(())
    width = a[0]
    counts = [0] * width
    for p in a:
        for i in range(p):
            counts[i] += 1
    return Partition(counts)


def majorizes(a, b) -> bool:
    """True iff ``a`` is majorized by ``b`` (written a < b in the literature).

    Every prefix sum of the nonincreasing rearrangement of ``a`` must be at
    most the corresponding prefix sum of ``b``, with equality for the full
    sum, each within ``TOL``.  Sequences of unequal length are zero-padded
    to the longer one.
    """
    a = sorted(a, reverse=True)
    b = sorted(b, reverse=True)
    length = max(len(a), len(b))
    a += [0] * (length - len(a))
    b += [0] * (length - len(b))
    sa = sb = 0
    for k in range(length):
        sa += a[k]
        sb += b[k]
        if sa > sb + TOL:
            return False
    return abs(sa - sb) <= TOL

