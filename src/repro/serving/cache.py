"""Bounded LRU caches of compiled serving state.

Two caches keep a serving node's memory bounded while making the steady
state allocation-free:

* :class:`HotMappingCache` — machine fingerprint → :class:`CompiledMapping`
  (the artifact's conjunctive mapping lowered to a
  :class:`~repro.predictors.batch.MappingMatrix` plus the name →
  instruction table the frontend parses requests with).  Mappings are
  loaded from the :class:`~repro.artifacts.ArtifactRegistry` on first use;
  a node serving a fleet of machines keeps only the ``capacity`` hottest
  compiled, evicting in LRU order.  An evicted mapping is simply re-loaded
  and re-compiled on its next request — correctness never depends on cache
  residency.
* :class:`KernelLoweringCache` — kernel → :class:`~repro.predictors.batch.
  KernelLowering`.  Lowering is the only per-request Python work
  proportional to kernel size, and serving traffic is dominated by hot
  blocks, so caching it makes repeated requests O(1).  In-process
  callers key it by :class:`~repro.mapping.microkernel.Microkernel`; the
  JSON frontend keys it by the *wire block* itself (see
  :meth:`CompiledMapping.wire_key`), so a hot block is served without
  ever building a kernel object.

Both caches are thread-safe (a single lock each; lookups are dict
operations) and report hits/misses/evictions into the shared
:class:`~repro.serving.stats.ServingStats`.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts import ArtifactRegistry, MappingArtifact
from repro.isa.instruction import Instruction
from repro.mapping.microkernel import Microkernel
from repro.predictors.batch import KernelLowering, MappingMatrix, instruction_id
from repro.serving.stats import ServingStats


#: JSON number types a wire key may carry (``bool`` is an ``int`` to the
#: request parser, so it is one here too).
_WIRE_VALUE_TYPES = frozenset((float, int, bool))
#: ``map``'s default argument for :meth:`CompiledMapping.wire_key`: every
#: name missing from the table reads as the unknown id ``-1``.
_UNKNOWN_IDS = itertools.repeat(-1)
#: One fresh number per :class:`CompiledMapping` built in this process.
_COMPILE_IDS = itertools.count()


class CompiledMapping:
    """A mapping artifact compiled for serving.

    Holds the vectorized :class:`MappingMatrix` (the prediction engine)
    and the instruction table the frontend resolves request mnemonics
    against.  Immutable once built; safe to share across threads.
    """

    __slots__ = (
        "fingerprint",
        "machine_name",
        "mapping",
        "matrix",
        "instruction_by_name",
        "version",
        "source_stamp",
        "wire_ids",
        "wire_scope",
        "_dense",
    )

    def __init__(
        self,
        artifact: MappingArtifact,
        source_stamp: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.fingerprint = artifact.machine_fingerprint
        self.machine_name = artifact.machine_name
        self.mapping = artifact.mapping
        self.matrix = MappingMatrix(artifact.mapping)
        self.instruction_by_name: Dict[str, Instruction] = {
            instruction.name: instruction
            for instruction in artifact.mapping.instructions
        }
        #: The artifact's publication stamp (its ``created_at``).  A
        #: republish of the same machine writes a younger artifact under
        #: the same fingerprint key, so within one fingerprint the
        #: version is monotone across swaps — what the zero-downtime
        #: republish test asserts per connection.
        self.version: float = artifact.created_at
        #: ``(mtime_ns, size)`` of the registry file this was compiled
        #: from, or ``None`` when unknown.  The cheap change detector
        #: :meth:`HotMappingCache.refresh` compares against.
        self.source_stamp = source_stamp
        #: Name -> dense instruction id (the index in sorted-name order,
        #: the same ids the binary wire uses); :meth:`wire_key` spells
        #: request blocks with these shared ints instead of name strings.
        self.wire_ids: Dict[str, int] = {
            name: index
            for index, name in enumerate(sorted(self.instruction_by_name))
        }
        #: Scopes every wire key to this one compilation: dense ids mean
        #: nothing across mappings, so a republish can never hit a
        #: lowering resolved against the previous instruction table.  The
        #: compile counter, not ``version``, makes it unique: two
        #: publications may carry the same ``created_at``.
        self.wire_scope: Tuple[str, int] = (self.fingerprint, next(_COMPILE_IDS))
        self._dense: Optional[Tuple[List[str], np.ndarray]] = None

    def wire_key(self, block: object) -> Optional[tuple]:
        """The lowering-cache key of one JSON request block, or ``None``.

        The key is ``(wire_scope, dense ids, values)`` in the block's
        arrival order — exactly what :func:`~repro.serving.frontend.
        _parse_blocks` folds into a kernel (unknown names all fold onto
        one placeholder, spelled ``-1`` here), so equal keys always lower
        to the same bits.  Only a block the parser accepted is ever
        inserted, so a key equal to a cached one names a valid block.
        ``None`` — the block is not a non-empty object of JSON numbers
        under non-empty string names — sends the request down the
        validating parser instead.
        """
        if type(block) is not dict or not block:
            return None
        values = tuple(block.values())
        if not _WIRE_VALUE_TYPES.issuperset(map(type, values)):
            return None
        ids = tuple(map(self.wire_ids.get, block, _UNKNOWN_IDS))
        if -1 in ids:
            for name, dense in zip(block, ids):
                if dense == -1 and (type(name) is not str or not name):
                    return None
        return (self.wire_scope, ids, values)

    def dense_instruction_table(self) -> Tuple[List[str], np.ndarray]:
        """The binary wire format's instruction table, built lazily.

        Returns ``(names, interned)``: the supported instruction names in
        sorted order — a client's *dense id* for an instruction is its
        index in this list, fixed for the connection at hello time — and
        the aligned global interned ids the serving engine evaluates with.
        Sorted-name order is exactly the scalar iteration order, so a
        binary frame whose per-kernel dense ids ascend strictly replays
        the bitwise accumulation order by construction.
        """
        dense = self._dense
        if dense is None:
            instructions = self.matrix.instructions  # sorted by name
            names = [instruction.name for instruction in instructions]
            interned = np.array(
                [instruction_id(instruction) for instruction in instructions],
                dtype=np.intp,
            )
            dense = (names, interned)
            self._dense = dense  # idempotent: a race rebuilds the same table
        return dense

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledMapping({self.machine_name!r}, "
            f"{self.fingerprint[:16]}…, "
            f"{len(self.instruction_by_name)} instructions)"
        )


class HotMappingCache:
    """Bounded LRU of compiled mappings over an artifact registry.

    Parameters
    ----------
    registry:
        Source of mapping artifacts; loads verify fingerprints, so a
        cache miss on an uncharacterized machine surfaces the registry's
        own :class:`~repro.artifacts.ArtifactNotFoundError`.
    capacity:
        Maximum number of compiled mappings held at once (≥ 1).
    stats:
        Shared metrics sink; hits, misses and evictions are recorded.
    """

    def __init__(
        self,
        registry: ArtifactRegistry,
        capacity: int = 8,
        stats: Optional[ServingStats] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.registry = registry
        self.capacity = capacity
        self.stats = stats or ServingStats()
        self._lock = threading.Lock()
        self._compiled: "OrderedDict[str, CompiledMapping]" = OrderedDict()

    def _source_stamp(self, fingerprint: str) -> Optional[Tuple[int, int]]:
        """``(mtime_ns, size)`` of the artifact's registry file, if present.

        Read *before* loading the file: if a republish replaces the file
        between the stat and the read, the stored stamp disagrees with
        the new file and the next :meth:`refresh` reloads — a stale stamp
        can delay a swap by one check, never suppress it.
        """
        try:
            stat = self.registry.path_for(fingerprint).stat()
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def get(self, fingerprint: str) -> CompiledMapping:
        """The compiled mapping for a machine fingerprint (load on miss).

        Raises whatever the registry load raises on an unknown or refused
        fingerprint — the typed refusal travels to the requester intact.
        """
        with self._lock:
            compiled = self._compiled.get(fingerprint)
            if compiled is not None:
                self._compiled.move_to_end(fingerprint)
                self.stats.record_mapping_cache(hit=True)
                return compiled
            # Load + compile under the lock: artifacts are small JSON files
            # and misses are rare (once per machine per eviction cycle), so
            # simplicity beats a double-checked scheme here.
            stamp = self._source_stamp(fingerprint)
            compiled = CompiledMapping(self.registry.load(fingerprint), stamp)
            self._compiled[fingerprint] = compiled
            evicted = 0
            while len(self._compiled) > self.capacity:
                self._compiled.popitem(last=False)
                evicted += 1
            self.stats.record_mapping_cache(hit=False, evicted=evicted)
            return compiled

    def refresh(self, fingerprint: str) -> Optional[CompiledMapping]:
        """Reload a resident mapping whose backing file changed (hot swap).

        Returns the freshly compiled mapping when the registry file's
        ``(mtime_ns, size)`` stamp differs from the resident copy's —
        after atomically replacing the cache entry, so every *subsequent*
        lookup (each lane resolves the compiled mapping per flush) serves
        the new version while flushes already holding the old object
        finish undisturbed.  Returns ``None`` when nothing is resident
        (the next :meth:`get` loads fresh anyway) or the file is
        unchanged.

        Raises the registry's typed error when the changed file fails
        validation — the resident (old) mapping stays installed, so a
        botched republish degrades to "keep serving the previous
        version", never to an outage.
        """
        with self._lock:
            resident = self._compiled.get(fingerprint)
        if resident is None:
            return None
        stamp = self._source_stamp(fingerprint)
        if stamp is not None and stamp == resident.source_stamp:
            return None
        # Load and compile outside the lock: a republish must not stall
        # concurrent flush-time lookups while the new matrix compiles.
        compiled = CompiledMapping(self.registry.load(fingerprint), stamp)
        with self._lock:
            self._compiled[fingerprint] = compiled
            self._compiled.move_to_end(fingerprint)
        return compiled

    def resident_fingerprints(self) -> tuple:
        """Currently cached fingerprints, least- to most-recently used."""
        with self._lock:
            return tuple(self._compiled)

    def __len__(self) -> int:
        with self._lock:
            return len(self._compiled)


class KernelLoweringCache:
    """Bounded LRU of per-kernel lowerings (the hot-block fast path).

    One LRU serves every key kind: a :class:`Microkernel` from in-process
    callers, or a :meth:`CompiledMapping.wire_key` from the JSON
    frontend.  The two never compare equal, so they share the capacity
    and the hit/miss/eviction counters without interfering.
    """

    def __init__(
        self, capacity: int = 65536, stats: Optional[ServingStats] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = stats or ServingStats()
        self._lock = threading.Lock()
        self._lowerings: "OrderedDict[Hashable, KernelLowering]" = OrderedDict()

    def get(self, kernel: Microkernel) -> KernelLowering:
        return self.get_many((kernel,))[0]

    def get_many(self, kernels: Sequence[Microkernel]) -> List[KernelLowering]:
        """Lowerings for a group of kernels, each kernel its own key."""
        return self.lower_many(kernels, kernels.__getitem__)

    def lower_many(
        self,
        keys: Sequence[Hashable],
        kernel_at: Callable[[int], Microkernel],
    ) -> List[KernelLowering]:
        """Lowerings for a whole group; ``kernel_at(i)`` builds a miss.

        A hit costs one dict lookup.  Only a miss calls ``kernel_at`` with
        the key's index and lowers the kernel it returns — outside the
        lock, so an exception it raises (a refused request block) leaves
        the cache and its counters untouched.  A key repeated within the
        group is lowered once, at its first index; its repeats count as
        hits.  One lock acquisition covers an all-hit group, two a group
        with misses: O(1) synchronization per request, not per kernel.
        """
        lowerings: list = []
        missing: Dict[Hashable, int] = {}  # missed key -> its first index
        with self._lock:
            cached = self._lowerings
            for index, key in enumerate(keys):
                lowering = cached.get(key)
                if lowering is not None:
                    cached.move_to_end(key)
                elif key not in missing:
                    missing[key] = index
                lowerings.append(lowering)
            if not missing:
                self.stats.record_lowering_cache_many(len(lowerings), 0)
                return lowerings
        for index in missing.values():
            lowerings[index] = KernelLowering(kernel_at(index))
        for index, lowering in enumerate(lowerings):
            if lowering is None:  # a repeat of a key missed earlier
                lowerings[index] = lowerings[missing[keys[index]]]
        evicted = 0
        with self._lock:
            cached = self._lowerings
            for key, index in missing.items():
                cached[key] = lowerings[index]
            while len(cached) > self.capacity:
                cached.popitem(last=False)
                evicted += 1
            self.stats.record_lowering_cache_many(
                len(lowerings) - len(missing), len(missing), evicted
            )
        return lowerings

    def __len__(self) -> int:
        with self._lock:
            return len(self._lowerings)
