"""Identifier types for users, ID-tree nodes, keys, and encryptions.

The paper assigns every user an ID that is a string of ``D`` digits of base
``B`` (Section 2.1).  All user IDs *and their prefixes* are organized into
the ID tree.  Keys and encryptions are identified by ID-tree node IDs
(Section 2.4), i.e. by digit strings of length ``0..D``.  A single value
type, :class:`Id`, therefore serves as user ID, ID-tree node ID, key ID and
encryption ID; the distinction is only its length.

The null string (the ID-tree root, printed ``[]``) is ``Id(())``.

Performance notes: :class:`Id` objects are the dictionary keys of every
hot path in the simulator (receipts, neighbor tables, the ID tree), and
``prefix()`` feeds both the FORWARD fan-out and the Theorem-2 splitting
predicate.  The hash is therefore computed once at construction, and
prefixes are interned per instance so repeated ``prefix()`` /
``__getitem__`` slicing returns the same object without allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple


def _restore_id(digits: Tuple[int, ...]) -> "Id":
    """Pickle helper: rebuild an :class:`Id` from its digit tuple without
    dragging the per-instance prefix cache through the pickle stream."""
    return Id._from_digits(digits)


@dataclass(frozen=True, eq=False)
class Id:
    """An immutable string of digits, e.g. a user ID or a key ID.

    Digits are counted from left to right; the leftmost digit is the 0th
    digit, exactly as in the paper.  An :class:`Id` behaves like a read-only
    sequence of ``int`` digits and supports the prefix algebra the paper's
    lemmas are phrased in.
    """

    digits: Tuple[int, ...]

    def __init__(self, digits: Iterable[int] = ()):
        # Coerce and validate in a single pass (digits may arrive as numpy
        # integers; they must become plain ints for stable hashing).
        out = []
        append = out.append
        for d in digits:
            d = int(d)
            if d < 0:
                raise ValueError(f"ID digits must be non-negative: got {d}")
            append(d)
        ds = tuple(out)
        object.__setattr__(self, "digits", ds)
        object.__setattr__(self, "_hash", hash(ds))
        object.__setattr__(self, "_prefixes", None)

    @classmethod
    def _from_digits(cls, ds: Tuple[int, ...]) -> "Id":
        """Internal fast constructor for digit tuples that are already
        validated plain-int tuples (prefixes/extensions of existing IDs)."""
        self = object.__new__(cls)
        object.__setattr__(self, "digits", ds)
        object.__setattr__(self, "_hash", hash(ds))
        object.__setattr__(self, "_prefixes", None)
        return self

    def __reduce__(self):
        return (_restore_id, (self.digits,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Id):
            return self.digits == other.digits
        return NotImplemented

    def __ne__(self, other) -> bool:
        if self is other:
            return False
        if isinstance(other, Id):
            return self.digits != other.digits
        return NotImplemented

    def __len__(self) -> int:
        return len(self.digits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self.digits))
            if start == 0 and step == 1:
                return self.prefix(stop)
            return Id._from_digits(self.digits[index])
        return self.digits[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __str__(self) -> str:
        return "[" + ",".join(str(d) for d in self.digits) + "]"

    def __repr__(self) -> str:
        return f"Id({list(self.digits)!r})"

    def __lt__(self, other: "Id") -> bool:
        return self.digits < other.digits

    @property
    def is_null(self) -> bool:
        """True for the null string ``[]`` (the ID-tree root / key server)."""
        return not self.digits

    def prefix(self, length: int) -> "Id":
        """The first ``length`` digits, i.e. ``ID[0 : length-1]`` in paper
        notation.  A non-positive ``length`` yields the null string, matching
        the paper's convention that ``u.ID[0 : i]`` is a null string for
        ``i < 0`` (Table 1)."""
        if length <= 0:
            return NULL_ID
        ds = self.digits
        if length >= len(ds):
            return self
        cache: Optional[Dict[int, Id]] = self._prefixes
        if cache is None:
            cache = {}
            object.__setattr__(self, "_prefixes", cache)
        p = cache.get(length)
        if p is None:
            p = Id._from_digits(ds[:length])
            cache[length] = p
        return p

    def is_prefix_of(self, other: "Id") -> bool:
        """Prefix test.  An ID is a prefix of itself, and the null string is
        a prefix of any ID (Section 2.1)."""
        sd = self.digits
        n = len(sd)
        if n == 0:
            return True
        od = other.digits
        return len(od) >= n and od[:n] == sd

    def shares_prefix(self, other: "Id", length: int) -> bool:
        """True iff both IDs agree on their first ``length`` digits."""
        if length <= 0:
            return True
        sd = self.digits
        od = other.digits
        return (
            len(sd) >= length
            and len(od) >= length
            and sd[:length] == od[:length]
        )

    def common_prefix_len(self, other: "Id") -> int:
        """Number of digits in the longest common prefix of the two IDs."""
        n = 0
        for a, b in zip(self.digits, other.digits):
            if a != b:
                break
            n += 1
        return n

    def extend(self, digit: int) -> "Id":
        """A new ID with ``digit`` appended."""
        d = int(digit)
        if d < 0:
            raise ValueError(f"ID digits must be non-negative: got {d}")
        return Id._from_digits(self.digits + (d,))

    def parent(self) -> "Id":
        """The ID with the last digit removed (the parent ID-tree node)."""
        if self.is_null:
            raise ValueError("the null ID has no parent")
        return self.prefix(len(self.digits) - 1)


#: The null string "[]" — the ID of the ID-tree root and of the key server.
NULL_ID = Id(())


def pack_id(value: Id) -> bytes:
    """Wire form of an ID: a length byte, then one byte per digit.  Raises
    ``ValueError`` for an ID of 256 or more digits or a digit above 255
    (the paper's base is 256)."""
    digits = value.digits
    return bytes((len(digits), *digits))


def unpack_id(buf: bytes, pos: int) -> Tuple[Id, int]:
    """Read a :func:`pack_id` ID at ``buf[pos]``; returns it and the
    offset after it.  Raises ``ValueError`` / ``IndexError`` on a short
    buffer."""
    end = pos + 1 + buf[pos]
    if end > len(buf):
        raise ValueError(f"ID at offset {pos} runs past the buffer")
    return Id._from_digits(tuple(buf[pos + 1 : end])), end


@dataclass(frozen=True)
class IdScheme:
    """The (D, B) parameters of the identifier space.

    ``D`` is the number of digits in a user ID and ``B`` is the digit base.
    The paper uses ``D = 5`` and ``B = 256`` in its simulations.
    """

    num_digits: int
    base: int

    def __post_init__(self) -> None:
        if self.num_digits <= 0:
            raise ValueError(f"D must be positive, got {self.num_digits}")
        if self.base <= 1:
            raise ValueError(f"B must be at least 2, got {self.base}")

    def validate_user_id(self, user_id: Id) -> None:
        """Raise ``ValueError`` unless ``user_id`` is a full-length ID with
        every digit in ``[0, B)``."""
        if len(user_id) != self.num_digits:
            raise ValueError(
                f"user ID {user_id} has {len(user_id)} digits, "
                f"expected D={self.num_digits}"
            )
        self.validate_prefix(user_id)

    def validate_prefix(self, prefix: Id) -> None:
        """Raise ``ValueError`` unless ``prefix`` has length ``<= D`` and
        digits in ``[0, B)``."""
        if len(prefix) > self.num_digits:
            raise ValueError(
                f"ID {prefix} is longer than D={self.num_digits} digits"
            )
        for d in prefix:
            if not 0 <= d < self.base:
                raise ValueError(
                    f"digit {d} of {prefix} outside [0, {self.base})"
                )

    def is_user_id(self, candidate: Id) -> bool:
        """True iff ``candidate`` is a valid full-length user ID."""
        try:
            self.validate_user_id(candidate)
        except ValueError:
            return False
        return True

    def first_user_id(self) -> Id:
        """The ID assigned to the very first join: D digits of 0
        (Section 3.1)."""
        return Id((0,) * self.num_digits)

    def random_user_id(self, rng) -> Id:
        """A uniformly random full-length user ID (used by ablations that
        replace the topology-aware assignment with random IDs)."""
        return Id(tuple(int(rng.integers(0, self.base)) for _ in range(self.num_digits)))


#: Parameters used in all the paper's simulations (Section 2.1 / 4).
PAPER_SCHEME = IdScheme(num_digits=5, base=256)
