"""Set partitions, non-crossing structure, Kreweras complements, and the
degree-two multigraphs that organize covariance trace expansions.

Everything in this module is exact: Python integers, tuples, and exhaustive
enumeration at small sizes.  These routines are the ground truth that the
floating-point moment formulas are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain as _chain
from itertools import product
from typing import Iterator, Mapping

from .errors import BoundError, DomainError, ParseError

MAX_ENUM_K = 12
MAX_GRAPH_K = 8
# the count is at most Catalan(k) < 4^k, so it prints in at most 3,011 digits,
# under Python's 4,300-digit limit on int-to-str conversion
MAX_COUNT_K = 5000

# caches hold full enumerations; keep them to sizes that stay small in RAM
_PARTITION_CACHE_K = 9
_NC_CACHE_K = 10


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..k} in canonical form.

    Blocks are ordered by least element and elements ascend within each
    block, so equal partitions compare and hash equal.  The text form joins
    blocks with ``|`` and elements with ``,``: ``"1,2,4|3|5"``.
    """

    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise DomainError(f"ground-set size must be a positive integer, got {self.k!r}")
        try:
            blocks = tuple(
                sorted((tuple(sorted(int(e) for e in b)) for b in self.blocks), key=lambda b: b[0])
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise DomainError("blocks must be nonempty collections of integers") from exc
        flat = sorted(e for b in blocks for e in b)
        if flat != list(range(1, self.k + 1)):
            raise DomainError(f"blocks must partition 1..{self.k} without repeats")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _canonical(cls, k: int, blocks: tuple[tuple[int, ...], ...]) -> "Partition":
        """Build without validating; the enumerators' blocks are already canonical."""
        p = object.__new__(cls)
        object.__setattr__(p, "k", k)
        object.__setattr__(p, "blocks", blocks)
        return p

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_map(self) -> dict[int, int]:
        """Map each element to the 0-based index of its block."""
        return {e: i for i, b in enumerate(self.blocks) for e in b}

    def __str__(self) -> str:
        return "|".join(",".join(str(e) for e in b) for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Inverse of ``str``; raises ParseError on anything malformed."""
        try:
            blocks = tuple(
                tuple(int(tok) for tok in part.split(",")) for part in text.split("|")
            )
        except ValueError as exc:
            raise ParseError(f"malformed partition text {text!r}") from exc
        k = sum(len(b) for b in blocks)
        try:
            return cls(k, blocks)
        except DomainError as exc:
            raise ParseError(f"invalid partition {text!r}: {exc}") from exc


def _iter_partitions(k: int) -> Iterator[Partition]:
    # grow element by element: each joins an existing block or opens a new one
    blocks: list[list[int]] = []

    def grow(element: int) -> Iterator[Partition]:
        if element > k:
            yield Partition._canonical(k, tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(element)
            yield from grow(element + 1)
            b.pop()
        blocks.append([element])
        yield from grow(element + 1)
        blocks.pop()

    yield from grow(1)


@lru_cache(maxsize=None)
def _partitions_cached(k: int) -> tuple[Partition, ...]:
    return tuple(_iter_partitions(k))


def enumerate_partitions(k: int) -> list[Partition]:
    """All set partitions of {1..k} (Bell(k) of them), deterministic order."""
    if not 1 <= k <= MAX_ENUM_K:
        raise BoundError(f"partition enumeration supports 1 <= k <= {MAX_ENUM_K}, got {k}")
    if k <= _PARTITION_CACHE_K:
        return list(_partitions_cached(k))
    return list(_iter_partitions(k))


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks interleave: no a < b < c < d with a,c in one
    block and b,d in another."""
    labels = p.block_map()
    blocks = p.blocks
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            runs = 0
            last = -1
            for e in sorted(blocks[i] + blocks[j]):
                lab = labels[e]
                if lab != last:
                    runs += 1
                    last = lab
                if runs >= 4:
                    return False
    return True


def _nc_block_lists(seq: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    # block of the smallest element splits the rest into independent gaps
    if not seq:
        yield ()
        return
    first, rest = seq[0], seq[1:]
    n = len(rest)
    for mask in range(1 << n):
        block = [first]
        segments: list[tuple[int, ...]] = []
        current: list[int] = []
        for i in range(n):
            if (mask >> i) & 1:
                block.append(rest[i])
                segments.append(tuple(current))
                current = []
            else:
                current.append(rest[i])
        segments.append(tuple(current))
        for combo in product(*(_nc_block_lists(seg) for seg in segments)):
            yield (tuple(block),) + tuple(_chain.from_iterable(combo))


@lru_cache(maxsize=None)
def _nc_cached(k: int) -> tuple[Partition, ...]:
    return tuple(Partition._canonical(k, bl) for bl in _nc_block_lists(tuple(range(1, k + 1))))


def nc_partitions(k: int) -> list[Partition]:
    """All non-crossing partitions of {1..k} (Catalan(k) of them), enumerated
    directly rather than by filtering the full partition lattice."""
    if not 1 <= k <= MAX_ENUM_K:
        raise BoundError(f"non-crossing enumeration supports 1 <= k <= {MAX_ENUM_K}, got {k}")
    if k <= _NC_CACHE_K:
        return list(_nc_cached(k))
    return [Partition._canonical(k, bl) for bl in _nc_block_lists(tuple(range(1, k + 1)))]


def kreweras_complement(p: Partition) -> Partition:
    """Kreweras complement of a non-crossing partition.

    Interlace 1,1',2,2',...,k,k' on a circle; the complement is the coarsest
    partition of the primed copies whose union with p stays non-crossing.
    Computed through the standard permutation identity: with s the
    within-block cyclic successor map of p and g the full cycle 1->2->...->k->1,
    the complement's blocks are the cycles of l -> s^{-1}(g(l)).
    """
    if not is_noncrossing(p):
        raise DomainError("the Kreweras complement is defined for non-crossing partitions only")
    k = p.k
    prev: dict[int, int] = {}
    for block in p.blocks:
        for i, e in enumerate(block):
            prev[block[(i + 1) % len(block)]] = e
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for start in range(1, k + 1):
        if start in seen:
            continue
        cycle: list[int] = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cycle.append(cur)
            cur = prev[cur % k + 1]
        blocks.append(tuple(sorted(cycle)))
    return Partition(k, tuple(blocks))


@dataclass(frozen=True)
class ClosedBlockView:
    """Blocks enlarged by the cyclic successors of their elements.

    ``closed_blocks[s]`` is block s together with every l whose predecessor
    (cyclically, so the predecessor of 1 is k) lies in block s.
    ``multiplicity[l-1]`` is 2 when l and its predecessor share a block and
    1 otherwise; it equals the number of slots l occupies in the one or two
    closed blocks containing it, so each closed block carries exactly
    2 * |block| slots.
    """

    partition: Partition
    closed_blocks: tuple[tuple[int, ...], ...]
    multiplicity: tuple[int, ...]


def closed_block_view(p: Partition) -> ClosedBlockView:
    k = p.k
    labels = p.block_map()
    mult = tuple(2 if labels[(l - 2) % k + 1] == labels[l] else 1 for l in range(1, k + 1))
    closed = []
    for b in p.blocks:
        members = set(b) | {e % k + 1 for e in b}
        closed.append(tuple(sorted(members)))
    return ClosedBlockView(p, tuple(closed), mult)


def _closed_block_slots(p: Partition) -> list[tuple[int, ...]]:
    # vertex l occupies ([l in B] + [pred(l) in B]) slots in block B's list
    k = p.k
    out = []
    for b in p.blocks:
        members = set(b)
        slots: list[int] = []
        for l in range(1, k + 1):
            c = (l in members) + ((l - 2) % k + 1 in members)
            slots.extend([l] * c)
        out.append(tuple(slots))
    return out


def _raw_matchings(slots: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    # pair the first remaining slot with each later slot, recurse; slots stay
    # sorted so every edge comes out as (lo, hi)
    if not slots:
        yield ()
        return
    first, rest = slots[0], slots[1:]
    for i, partner in enumerate(rest):
        if i > 0 and rest[i - 1] == partner:
            continue
        for tail in _raw_matchings(rest[:i] + rest[i + 1 :]):
            yield ((first, partner),) + tail


def _block_matchings(slots: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Distinct perfect matchings of a slot multiset, as sorted edge tuples."""
    return sorted({tuple(sorted(m)) for m in _raw_matchings(slots)})


@dataclass(frozen=True)
class ConsistentGraph:
    """A degree-two multigraph on {1..k} decomposed along closed blocks.

    ``edges[i]`` pairs with ``block_assignment[i]``, the 1-based index of the
    partition block whose closed block supplied that edge.  A self-loop
    contributes two to its vertex's degree.  Identity (equality, hashing) is
    the sorted multiset of (block, edge) pairs.
    """

    k: int
    edges: tuple[tuple[int, int], ...]
    block_assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != len(self.block_assignment):
            raise DomainError("need exactly one block index per edge")
        tagged = []
        for (a, b), s in zip(self.edges, self.block_assignment):
            lo, hi = (a, b) if a <= b else (b, a)
            if lo < 1 or hi > self.k:
                raise DomainError(f"edge ({a},{b}) leaves the vertex set 1..{self.k}")
            tagged.append(((lo, hi), int(s)))
        tagged.sort(key=lambda t: (t[1], t[0]))
        object.__setattr__(self, "edges", tuple(e for e, _ in tagged))
        object.__setattr__(self, "block_assignment", tuple(s for _, s in tagged))

    def degree(self, vertex: int) -> int:
        return sum((a == vertex) + (b == vertex) for a, b in self.edges)

    def block_degrees(self, block_index: int) -> dict[int, int]:
        """Vertex degrees within the subgraph assigned to one block (1-based)."""
        degrees: dict[int, int] = {}
        for (a, b), s in zip(self.edges, self.block_assignment):
            if s == block_index:
                degrees[a] = degrees.get(a, 0) + 1
                degrees[b] = degrees.get(b, 0) + 1
        return degrees

    def _component_blocks(self) -> tuple[tuple[int, ...], ...]:
        parent = list(range(self.k + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict[int, list[int]] = {}
        for v in range(1, self.k + 1):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(g) for g in groups.values())

    @property
    def r(self) -> int:
        """Number of connected components; every component is a cycle."""
        return len(self._component_blocks())

    def component_partition(self) -> Partition:
        return Partition(self.k, self._component_blocks())


def enumerate_consistent_graphs(p: Partition) -> list[ConsistentGraph]:
    """All multigraphs consistent with p.

    Each closed block contributes a perfect matching of its slot multiset
    (slot count of vertex l = its multiplicity there), and the graph is the
    tagged disjoint union over blocks.  Matchings that coincide as edge
    multisets are merged, so graphs are distinct by construction.
    """
    if p.k > MAX_GRAPH_K:
        raise BoundError(f"consistent-graph enumeration is capped at k = {MAX_GRAPH_K}, got {p.k}")
    per_block = [_block_matchings(slots) for slots in _closed_block_slots(p)]
    graphs = []
    for combo in product(*per_block):
        edges: list[tuple[int, int]] = []
        assign: list[int] = []
        for s, matching in enumerate(combo, start=1):
            edges.extend(matching)
            assign.extend([s] * len(matching))
        graphs.append(ConsistentGraph(p.k, tuple(edges), tuple(assign)))
    return graphs


def max_component_graphs(p: Partition) -> list[ConsistentGraph]:
    """Consistent graphs that reach the component-count ceiling k - #p + 1.

    Exactly one exists when p is non-crossing and none otherwise; in the
    non-crossing case the unique graph's component partition has Kreweras
    complement p.
    """
    target = p.k - p.n_blocks + 1
    return [g for g in enumerate_consistent_graphs(p) if g.r == target]


def count_nc_by_block_sizes(k: int, counts: Mapping[int, int]) -> int:
    """Number of non-crossing partitions of {1..k} with counts[l] blocks of
    size l: exactly k! / ((k - q + 1)! * prod_l counts[l]!) with q the total
    block count."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if k > MAX_COUNT_K:
        raise BoundError(f"counting is capped at k = {MAX_COUNT_K}, got {k}")
    q = 0
    weight = 0
    for size, mult in counts.items():
        if size < 1 or mult < 0:
            raise DomainError(f"invalid block-size entry {size}:{mult}")
        q += mult
        weight += size * mult
    if weight != k:
        raise DomainError(f"block sizes account for {weight} elements, need {k}")
    den = math.factorial(k - q + 1)
    for mult in counts.values():
        den *= math.factorial(mult)
    count, rem = divmod(math.factorial(k), den)
    if rem:  # cannot happen for a consistent size profile
        raise DomainError("inconsistent block-size counts")
    return count


def narayana(k: int, i: int) -> int:
    """Number of non-crossing partitions of {1..k} with i + 1 blocks:
    C(k, i) * C(k, i + 1) / k, exactly."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if not 0 <= i <= k - 1:
        raise DomainError(f"need 0 <= i <= k - 1 = {k - 1}, got {i}")
    count, rem = divmod(math.comb(k, i) * math.comb(k, i + 1), k)
    if rem:
        raise DomainError("Narayana quotient failed to divide")
    return count


@dataclass(frozen=True)
class Composition:
    """Block-size multiplicities (i_1..i_s): i_l blocks of size l, with
    i_1 + ... + i_s = k - s + 1 and i_1 + 2 i_2 + ... + s i_s = k."""

    k: int
    s: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if len(counts) != self.s:
            raise DomainError(f"need {self.s} multiplicities, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise DomainError("multiplicities must be nonnegative")
        if sum(counts) != self.k - self.s + 1:
            raise DomainError(f"multiplicities must sum to {self.k - self.s + 1}")
        if sum(l * c for l, c in enumerate(counts, start=1)) != self.k:
            raise DomainError(f"weighted multiplicities must sum to {self.k}")


def enumerate_compositions(k: int, s: int) -> list[Composition]:
    """All (i_1..i_s) with sum k - s + 1 and weighted sum k, in lexicographic
    order.  Equivalently: block-size profiles of partitions of {1..k} into
    k - s + 1 blocks, none larger than s."""
    if k < 1 or not 1 <= s <= k:
        raise DomainError(f"need 1 <= s <= k, got s={s}, k={k}")
    results: list[Composition] = []

    def rec(pos: int, count_left: int, weight_left: int, prefix: list[int]) -> None:
        if pos == s:
            if count_left * s == weight_left:
                results.append(Composition(k, s, tuple(prefix + [count_left])))
            return
        for i in range(count_left + 1):
            cl = count_left - i
            wl = weight_left - pos * i
            if wl < 0:
                break
            if wl < (pos + 1) * cl or wl > s * cl:
                continue
            prefix.append(i)
            rec(pos + 1, cl, wl, prefix)
            prefix.pop()

    rec(1, k - s + 1, k, [])
    return results
