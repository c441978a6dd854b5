"""Sorts (types) of the QF_ABV term language.

The solver supports exactly the three sort families the paper's encodings
need:

* :class:`BoolSort` — propositional values;
* :class:`BitVecSort` — fixed-width bit-vectors (the paper's experiments use
  8/12/16/32-bit vectors; width is arbitrary here);
* :class:`ArraySort` — functional arrays from one bit-vector sort to another
  (used for CUDA shared/global arrays in the non-parameterized encoding).

Sorts are interned: constructing the same sort twice yields the same object,
so identity comparison (``is``) is valid and cheap.
"""

from __future__ import annotations

from typing import Final

__all__ = ["Sort", "BoolSort", "BitVecSort", "ArraySort", "BOOL", "BV", "ARRAY"]


class Sort:
    """Abstract base of all sorts. Instances are immutable and interned."""

    __slots__ = ()

    def is_bool(self) -> bool:
        return isinstance(self, BoolSort)

    def is_bv(self) -> bool:
        return isinstance(self, BitVecSort)

    def is_array(self) -> bool:
        return isinstance(self, ArraySort)


class BoolSort(Sort):
    """The Boolean sort. A singleton — use the module constant :data:`BOOL`."""

    __slots__ = ()
    _instance: "BoolSort | None" = None

    def __new__(cls) -> "BoolSort":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Bool"


class BitVecSort(Sort):
    """Bit-vectors of a fixed positive width.

    Attributes
    ----------
    width:
        Number of bits.
    mask:
        ``2**width - 1``; precomputed because every constant-fold uses it.
    modulus:
        ``2**width``.
    """

    __slots__ = ("width", "mask", "modulus")
    _cache: dict[int, "BitVecSort"] = {}

    def __new__(cls, width: int) -> "BitVecSort":
        cached = cls._cache.get(width)
        if cached is not None:
            return cached
        if not isinstance(width, int) or width <= 0:
            raise ValueError(f"bit-vector width must be a positive int, got {width!r}")
        obj = super().__new__(cls)
        obj.width = width
        obj.modulus = 1 << width
        obj.mask = obj.modulus - 1
        cls._cache[width] = obj
        return obj

    def __repr__(self) -> str:
        return f"BitVec({self.width})"

    def clip(self, value: int) -> int:
        """Reduce an arbitrary Python int to this sort's unsigned range."""
        return value & self.mask

    def to_signed(self, value: int) -> int:
        """Interpret an unsigned representative as a two's-complement value."""
        value &= self.mask
        if value >= (1 << (self.width - 1)):
            value -= self.modulus
        return value


class ArraySort(Sort):
    """Functional arrays ``index_sort -> elem_sort`` (both bit-vector sorts)."""

    __slots__ = ("index_sort", "elem_sort")
    _cache: dict[tuple[int, int], "ArraySort"] = {}

    def __new__(cls, index_sort: BitVecSort, elem_sort: BitVecSort) -> "ArraySort":
        if not isinstance(index_sort, BitVecSort) or not isinstance(elem_sort, BitVecSort):
            raise ValueError("array index and element sorts must be bit-vector sorts")
        key = (index_sort.width, elem_sort.width)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        obj = super().__new__(cls)
        obj.index_sort = index_sort
        obj.elem_sort = elem_sort
        cls._cache[key] = obj
        return obj

    def __repr__(self) -> str:
        return f"Array({self.index_sort!r}, {self.elem_sort!r})"


BOOL: Final[BoolSort] = BoolSort()


def BV(width: int) -> BitVecSort:
    """Shorthand constructor for :class:`BitVecSort`; a width seen before
    is one dict probe (term constructors call this on every constant)."""
    return BitVecSort._cache.get(width) or BitVecSort(width)


def ARRAY(index_width: int, elem_width: int) -> ArraySort:
    """Shorthand constructor for :class:`ArraySort` over bit-vector widths."""
    return ArraySort(BitVecSort(index_width), BitVecSort(elem_width))
