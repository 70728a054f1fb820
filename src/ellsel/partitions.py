"""Partitions, bipartitions, containment and strip predicates,
enumeration of sub-(bi)partitions and spectral vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; trailing zeroes are
    never stored, so equality is plain tuple equality."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        cleaned = tuple(int(p) for p in self.parts if p != 0)
        if any(p < 0 for p in cleaned):
            raise ValueError(f"negative part in {self.parts}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"parts not weakly decreasing: {self.parts}")
        object.__setattr__(self, "parts", cleaned)

    @classmethod
    def of(cls, parts: Iterable[int]) -> "Partition":
        return cls(tuple(parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        """Part i (0-based), zero beyond the length."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """lam'_i = #{j : lam_j >= i}."""
        if not self.parts:
            return Partition()
        return Partition(
            tuple(sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1))
        )

    def contains(self, other: "Partition") -> bool:
        """other_i <= self_i for all i."""
        return len(other.parts) <= len(self.parts) and all(
            other.parts[i] <= self.parts[i] for i in range(len(other.parts))
        )

    def cells(self) -> Iterator[tuple[int, int]]:
        """All (i, j) with 1 <= i <= length, 1 <= j <= lam_i (1-based)."""
        for i, part in enumerate(self.parts, start=1):
            for j in range(1, part + 1):
                yield (i, j)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"


def horizontal_strip(lam: Partition, mu: Partition) -> bool:
    """True when lam/mu is a horizontal strip, i.e. the interlacing
    lam_1 >= mu_1 >= lam_2 >= mu_2 >= ... holds."""
    n = max(len(lam), len(mu))
    return all(lam[i] >= mu[i] and mu[i] >= lam[i + 1] for i in range(n))


def sub_partitions(lam: Partition) -> list[Partition]:
    """All mu with mu subseteq lam, ordered by size then lexicographically."""

    def rec(i: int, prev: int):
        if i == len(lam.parts):
            yield ()
            return
        for v in range(min(lam.parts[i], prev), -1, -1):
            for rest in rec(i + 1, v):
                yield ((v,) + rest) if v > 0 else rest

    found = {Partition(t) for t in rec(0, lam.parts[0] if lam.parts else 0)}
    return sorted(found, key=lambda m: (m.size, m.parts))


@dataclass(frozen=True)
class Bipartition:
    """Ordered pair of partitions; the swap involution exchanges the two
    components (matching the p <-> q swap of the nomes)."""

    first: Partition = Partition()
    second: Partition = Partition()

    @classmethod
    def of(cls, first: Iterable[int], second: Iterable[int]) -> "Bipartition":
        return cls(Partition(tuple(first)), Partition(tuple(second)))

    @property
    def size(self) -> int:
        return self.first.size + self.second.size

    @property
    def max_length(self) -> int:
        return max(self.first.length, self.second.length)

    def swap(self) -> "Bipartition":
        return Bipartition(self.second, self.first)

    def contains(self, other: "Bipartition") -> bool:
        return self.first.contains(other.first) and self.second.contains(other.second)

    def is_zero(self) -> bool:
        return not self.first.parts and not self.second.parts

    def __str__(self) -> str:
        return f"{self.first}|{self.second}"


ZERO = Bipartition()


def bipartition_strip(lam: Bipartition, mu: Bipartition) -> bool:
    """Componentwise horizontal strips (mu < lam termwise)."""
    return horizontal_strip(lam.first, mu.first) and horizontal_strip(lam.second, mu.second)


def sub_bipartitions(lam: Bipartition) -> list[Bipartition]:
    """All mu subseteq lam, ordered by total size then lexicographically.

    The fixed order keeps the linear systems built on top of this
    enumeration reproducible.
    """
    subs = [
        Bipartition(f, s)
        for f in sub_partitions(lam.first)
        for s in sub_partitions(lam.second)
    ]
    return sorted(subs, key=lambda b: (b.size, b.first.parts, b.second.parts))


def parse_partition(text: str) -> Partition:
    """Parse "2,1" (or "0" / "" for the empty partition)."""
    text = text.strip()
    if text in ("", "0", "()"):
        return Partition()
    return Partition(tuple(int(tok) for tok in text.split(",")))


def parse_bipartition(text: str) -> Bipartition:
    """Parse the text form "2,1|1"; an empty component is rendered "0"."""
    if "|" not in text:
        raise ValueError(f"bipartition text must contain '|': {text!r}")
    left, right = text.split("|", 1)
    return Bipartition(parse_partition(left), parse_partition(right))


def spectral_vector(lam: Bipartition, n: int, t: complex, p: complex, q: complex):
    """Spectral vector with entries p^lam1_i q^lam2_i t^(n-i), i = 1..n."""
    if lam.max_length > n:
        raise ValueError(
            f"bipartition has a component of length {lam.max_length} > n={n}"
        )
    return tuple(
        p ** lam.first[i - 1] * q ** lam.second[i - 1] * t ** (n - i)
        for i in range(1, n + 1)
    )
