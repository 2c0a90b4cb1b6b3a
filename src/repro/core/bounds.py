"""TS: the combined summary of historical plus streaming data.

Section 2.3.1: sort the union of all partition summaries and the stream
summary into TS, and for every element compute a lower bound ``L_i``
and upper bound ``U_i`` on its rank in the full dataset T (Lemma 2):

    L_i = eps2*m*b*(alpha_S - 1) + sum_{P: alpha_P > 0} m_P*eps1*(alpha_P - 1)
    U_i = eps2*m*b* alpha_S'    + sum_{P: alpha_P > 0} m_P*eps1* alpha_P

where ``alpha_S`` / ``alpha_P`` count summary elements at most TS[i],
``b`` is 1 iff ``alpha_S > 0``, and ``alpha_S'`` is ``alpha_S`` for
elements drawn from the stream summary itself (their own Lemma 1 bound
applies) and ``alpha_S + 1`` otherwise.  These formulas reproduce the
worked example of the paper's Figure 3 exactly (see the golden test).

TS is held as its two halves.  The sums over partitions depend on the
partition set only — HS changes when a time step is sealed or levels
merge, not per query — so :class:`HistoricalSummary` holds the merged HS
values with those sums and is built once per partition set: the
partitions a held summary lacks are merged into it in one pass, then
their shares added in partition order.  The stream term depends on the
live sketch, and ``alpha_S`` is constant between two consecutive SS
entries, so :meth:`CombinedSummary.fuse` only ranks the SS entries in
HS and tabulates the stream term per *gap* between them; the quick
response (Algorithm 5) and filter generation (Algorithm 7) search the
two halves for their slot, no merged array is built.
:meth:`CombinedSummary.build` does both halves, from scratch or through
a memo that redoes each only when its input changed
(:class:`~repro.core.epoch.HistoricalMemo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .config import EngineConfig
from .summaries import PartitionSummary, StreamSummary, run_starts

if TYPE_CHECKING:
    from .epoch import HistoricalMemo


@dataclass(frozen=True)
class PartialResult:
    """Missing-shard accounting for a partial cluster gather.

    When ``k`` of ``N`` shards cannot answer (quarantined at pin time,
    or excluded mid-search after a disk fault), the gather answers over
    the surviving union and widens its rank-error bound by the missing
    shards' element counts — see :func:`widen_rank_bound` for why that
    is sound.  Attached to the returned
    :class:`~repro.core.engine.QueryResult` as its ``partial`` field.
    """

    #: shard ids (cluster-wide) that did not contribute to the answer.
    missing_shards: "tuple[int, ...]"
    #: elements those shards held in the queried scope.
    missing_elements: int
    #: shards that did answer.
    shards_answering: int
    #: the surviving-scope bound before widening.
    base_bound: float

    @property
    def shards_total(self) -> int:
        """Total shards in the cluster: answering plus missing."""
        return self.shards_answering + len(self.missing_shards)


def widen_rank_bound(base_bound: float, missing_elements: int) -> float:
    """Widen a surviving-scope rank bound by the missing elements.

    Let the full union hold ``T`` elements, the survivors ``T' = T -
    C`` where ``C = missing_elements``, and let the answer ``v`` target
    rank ``r'`` among the survivors with ``|rank_S(v) - r'| <=
    base_bound``.  Against any full-union target ``r`` with ``|r - r'|
    <= C`` (rank clamping or ``phi``-rescaling both satisfy this):

        rank_T(v) - r = (rank_T(v) - rank_S(v)) + (rank_S(v) - r')
                        + (r' - r)

    The first term lies in ``[0, C]`` (the missing elements can only
    push ``v``'s union rank up), the last in ``[-C, 0]``, so the two
    ``C``-terms never stack and ``|rank_T(v) - r| <= base_bound + C``.
    """
    return float(base_bound) + int(missing_elements)


def quick_rank_bound(config: EngineConfig, total: int, m_scope: int) -> float:
    """A priori rank-error bound of the quick response over a scope of
    ``total`` elements, ``m_scope`` of them live stream:
    ``eps1 * n + eps2 * m``."""
    hist_scope = max(0, total - m_scope)
    return config.epsilon1 * hist_scope + config.epsilon2 * m_scope


class _Merge:
    """Stable merge of sorted ``entries`` into sorted ``base`` values.

    Rank arithmetic, no sort: entry ``j`` lands in slot ``j`` plus the
    number of base values strictly below it — in front of the first
    base value that is not below it — and the base values keep their
    order in the remaining slots.
    """

    def __init__(self, base: np.ndarray, entries: np.ndarray) -> None:
        self.slots = np.arange(len(entries)) + np.searchsorted(
            base, entries, side="left"
        )
        #: slots holding entries (the others hold base values).
        self.inserted = np.zeros(len(base) + len(entries), dtype=bool)
        self.inserted[self.slots] = True
        self._kept = ~self.inserted
        #: per entry, how many base values are ``<=`` it.
        self._covered = np.searchsorted(base, entries, side="right")

    def place(self, base: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """One array per side of the merge, each element in its slot."""
        merged = np.empty(len(self.inserted), dtype=base.dtype)
        merged[self._kept] = base
        merged[self.slots] = entries
        return merged

    def shares(self, base: np.ndarray) -> np.ndarray:
        """A per-base-value share of a rank bound, extended to the entries.

        The share is constant between consecutive base values, so an
        entry starts from that of the last base value at most it (zero
        below the smallest).
        """
        return self.place(
            base, np.concatenate(([0.0], base))[self._covered]
        )


@dataclass(frozen=True)
class HistoricalSummary:
    """The half of TS that depends on the partition set only.

    ``values`` is the sorted union of the partition summaries (HS) and
    ``lower`` / ``upper`` hold, per element, the partitions' share of
    the Lemma 2 bounds ``L_i`` / ``U_i``, summed in partition order.
    Every ``alpha_P(x)`` is constant between consecutive HS values, so
    the share at *any* value — a stream summary entry, say — is that of
    the largest HS element at most ``x`` (zero below the smallest).

    A summary is only ever grown by :meth:`extended`: sealing a time
    step appends one partition to the set, a memo miss the several a
    memoised prefix lacks, and a fold from scratch all of them.  Each
    partition's share is added in partition order, so every way of
    growing a set to the same partitions yields the same bits.
    """

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    #: elements in the summarized partitions (``n`` over the scope).
    total_size: int

    @classmethod
    def fold(
        cls, partition_summaries: Sequence[PartitionSummary]
    ) -> "HistoricalSummary":
        """The summary of ``partition_summaries``, folded in order."""
        empty = cls(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), 0)
        return empty.extended(*partition_summaries)

    def __len__(self) -> int:
        return len(self.values)

    def extended(self, *summaries: PartitionSummary) -> "HistoricalSummary":
        """This summary with more partitions appended to the set, in order.

        One merge places every new entry among the held values, each
        starting from the held partitions' share; then each new
        partition adds its own share at every slot, in partition order —
        the float sums run as a one-at-a-time extension would run them.
        """
        summaries = [summary for summary in summaries if len(summary)]
        if not summaries:
            return self
        entries = np.sort(np.concatenate([s.values for s in summaries]))
        merge = _Merge(self.values, entries)
        values = merge.place(self.values, entries)
        lower = merge.shares(self.lower)
        upper = merge.shares(self.upper)
        for summary in summaries:
            # This partition's share, tabulated per alpha = 0..count.
            size = summary.partition_size
            alphas = np.arange(len(summary) + 1)
            scale = summary.eps1 * size
            below = np.minimum((alphas - 1) * scale, size)
            if scale <= 1:
                # The sampled ranks 1 and ceil(eps1 * m_P) collide, so
                # the alpha-th stored entry sits further up the rank
                # schedule than Lemma 2 assumes — a partition shorter
                # than 1/eps1 stores every element and alpha counts
                # elements — and the paper's (alpha - 1) * eps1 * m_P
                # undercounts; the stored exact rank of the alpha-th
                # entry is the bound.
                below[1:] = np.maximum(below[1:], summary.positions)
            below[0] = 0.0
            # Paper formula alpha * eps1 * m_P, floored by the stored
            # exact rank of the next summary entry so the bound stays
            # valid when a tiny partition deduplicated its positions.
            above = np.maximum(
                alphas * scale, np.append(summary.positions - 1, size)
            )
            above[0] = 0.0
            # alpha steps up at the first slot holding each entry's
            # value (every entry occurs in ``values``), so a per-alpha
            # table becomes per-slot by run length: no search over the
            # long array.
            first = np.searchsorted(values, summary.values, side="left")
            runs = np.diff(first, prepend=0, append=len(values))
            lower += np.repeat(below, runs)
            upper += np.repeat(above, runs)
        return HistoricalSummary(
            values=values,
            lower=lower,
            upper=upper,
            total_size=self.total_size
            + sum(summary.partition_size for summary in summaries),
        )


@dataclass(frozen=True)
class CombinedSummary:
    """TS with per-element rank bounds, held as its two sorted halves.

    In sorted order TS is the HS values below ``entries[0]``, that
    entry, the HS values in ``[entries[0], entries[1])``, the next
    entry, and so on: *gap* ``g`` is the HS slice in front of entry
    ``g`` (the last gap follows the last entry; an HS value equal to an
    entry sits behind it).  An HS slot's bound is its HS share plus the
    stream's term, which depends on its gap alone; an entry's is
    tabulated.  ``values``, ``from_stream``, ``lower`` and ``upper`` are
    the paper's arrays, materialised from those tables on first use —
    for tests and invariant checks: no query reads them.
    """

    historical: HistoricalSummary
    #: the SS entries ``e[0..k)``.
    entries: np.ndarray
    #: ``k + 2`` offsets: gap ``g`` is ``historical[gaps[g]:gaps[g + 1]]``.
    gaps: np.ndarray
    #: ``L`` and ``U`` unbuilt, each as ``(base, term, at)``: per HS
    #: slot the partitions' share (the memoised HS array); per gap the
    #: stream's term at its HS slots; per entry the bound itself.
    lower_tables: "tuple[np.ndarray, np.ndarray, np.ndarray]"
    upper_tables: "tuple[np.ndarray, np.ndarray, np.ndarray]"
    #: ``N = n + m`` over the data the summary covers (the full
    #: dataset, or the window for windowed queries).
    total_size: int

    @classmethod
    def build(
        cls,
        partition_summaries: Sequence[PartitionSummary],
        stream_summary: StreamSummary,
        memo: "Optional[HistoricalMemo]" = None,
    ) -> "CombinedSummary":
        """TS of the partition summaries (HS) and the stream summary.

        ``memo`` — the engine's or cluster's
        :class:`~repro.core.epoch.HistoricalMemo` — folds HS once per
        partition set and returns the TS it retains while the stream
        summary is the same object; without one both halves are
        computed here from scratch, the reference a memo must equal.
        """
        if memo is not None:
            return memo.combined(partition_summaries, stream_summary)
        return cls.fuse(
            HistoricalSummary.fold(partition_summaries), stream_summary
        )

    @classmethod
    def fuse(
        cls, historical: HistoricalSummary, stream_summary: StreamSummary
    ) -> "CombinedSummary":
        """Rank the SS entries in HS and tabulate the stream term.

        Every array made here has one element per entry or per gap; no
        HS slot is touched.
        """
        entries = stream_summary.values
        if len(entries) == 0 and len(historical) == 0:
            raise ValueError("cannot summarize an empty dataset")

        # Equal entries rank alike: HS is searched once per distinct one.
        # On ties the merge puts stream entries first, in front of the
        # first HS value not below them.  (A stream entry's upper bound
        # uses coefficient alpha_S while an equal historical value uses
        # alpha_S + 1, so this tie order keeps ``upper`` monotone for
        # the binary searches below.)
        starts = np.flatnonzero(run_starts(entries))
        ends = np.append(starts, len(entries))[1:]
        sizes = ends - starts
        base = historical.values
        left = np.repeat(base.searchsorted(entries[starts], "left"), sizes)
        # An entry starts from the share of the last HS value at most
        # it (zero below the smallest): the one in front, or the first
        # of the equal ones behind — equal values carry equal shares.
        reach = left
        if len(base):
            reach = left + (base.take(left, mode="clip") == entries)
        held = np.flatnonzero(reach)
        lower_at, upper_at = np.zeros((2, len(entries)))
        lower_at[held] = historical.lower[reach[held] - 1]
        upper_at[held] = historical.upper[reach[held] - 1]
        # alpha counts the entries *at most* a value: g in gap g, and at
        # an entry the whole group tied with it.
        tied = np.repeat(ends, sizes)
        m = stream_summary.stream_size
        alphas = np.arange(len(entries) + 1)
        scale = stream_summary.eps2 * m
        below = np.minimum((alphas - 1) * scale, m)
        below[0] = 0.0
        lower_at += below[tied]
        if stream_summary.strict_uppers is not None:
            # Provable bracket from the GK extraction: everything at
            # most TS[i] precedes the next strictly greater entry.
            above = np.append(
                stream_summary.strict_uppers.astype(np.float64), float(m)
            )
            above[0] = 0.0
            upper_at += above[tied]
        else:
            # Lemma 1 applies to the entries themselves; every other
            # element falls between entries and pays the + 1 coefficient.
            above = (alphas + 1) * scale
            above[0] = 0.0
            upper_at += (alphas * scale)[tied]

        return cls(
            historical=historical,
            entries=entries,
            gaps=np.concatenate(([0], left, [len(historical)])),
            lower_tables=(historical.lower, below, lower_at),
            upper_tables=(historical.upper, above, upper_at),
            total_size=historical.total_size + m,
        )

    def __len__(self) -> int:
        return len(self.historical) + len(self.entries)

    @property
    def minimum(self) -> int:
        """The smallest summary element: the first slot of TS."""
        halves = (self.entries, self.historical.values)
        return min(half.item(0) for half in halves if len(half))

    def _position(self, key: float, tables: tuple) -> "tuple[int, ...]":
        """Where ``key`` sorts into ``lower`` or ``upper``, unbuilt.

        Returns ``(g, i, lo, hi)``: ``g`` entries and ``i`` HS values
        are in front — ``g + i`` is ``np.searchsorted`` over the array —
        and gap ``g`` is ``historical[lo:hi]``.  The bound ascends over
        TS, so the entries' bounds pick the gap, and the gap is bisected
        on the bound the array holds for each slot: share plus term
        (``key`` minus the term, looked up in the shares, can round
        into another slot).
        """
        base, term, at = tables
        g = int(at.searchsorted(key))
        lo, hi = self.gaps.item(g), self.gaps.item(g + 1)
        stream = term.item(g)
        i, end = lo, hi
        while i < end:
            mid = (i + end) // 2
            if base.item(mid) + stream < key:
                i = mid + 1
            else:
                end = mid
        return g, i, lo, hi

    def quick_response(self, rank: int) -> int:
        """Algorithm 5: the element at the smallest index with L_j >= r
        (past the last index, the last element)."""
        g, i, _, hi = self._position(rank, self.lower_tables)
        if i < hi:
            return self.historical.values.item(i)
        if g < len(self.entries):
            return self.entries.item(g)
        halves = (self.entries, self.historical.values)
        return max(half.item(-1) for half in halves if len(half))

    def quick_responses(self, ranks: np.ndarray) -> np.ndarray:
        """Algorithm 5 for a batch the serving layer's coalescer gathered
        at one epoch: element ``i`` is ``quick_response(ranks[i])``."""
        answers = [self.quick_response(r) for r in np.asarray(ranks).tolist()]
        return np.asarray(answers, dtype=np.int64)

    def generate_filters(self, rank: int) -> "tuple[int, int]":
        """Algorithm 7: values (u, v) bracketing the element of rank r.

        Guarantees ``rank(u, T) <= r <= rank(v, T)``.  When no summary
        element's upper bound is below ``r``, the lower filter falls
        back to one less than the global minimum (rank 0); when no
        lower bound reaches ``r``, the upper filter is the global
        maximum (rank N).
        """
        # u is the last element with U <= r: the one in front of where
        # the next float above r sorts into ``upper``.
        key = math.nextafter(rank, math.inf)
        g, i, lo, _ = self._position(key, self.upper_tables)
        if i > lo:
            u = self.historical.values.item(i - 1)
        elif g > 0:
            u = self.entries.item(g - 1)
        else:
            u = self.minimum - 1
        v = self.quick_response(rank)
        if v < u:
            # Possible only through bound ties at equal values; the
            # bracket [min, max] of the pair is always safe.
            u, v = v, u
        return u, v

    @cached_property
    def _arrays(self) -> "tuple[np.ndarray, ...]":
        """``(values, from_stream, lower, upper)``: both halves merged,
        an HS slot's bound its share plus its gap's term."""
        merge = _Merge(self.historical.values, self.entries)
        sizes = np.diff(self.gaps)
        bounds = []
        for base, term, at in (self.lower_tables, self.upper_tables):
            bounds.append(merge.place(base + np.repeat(term, sizes), at))
        values = merge.place(self.historical.values, self.entries)
        return (values, merge.inserted, *bounds)

    #: the paper's arrays: every summary element ascending (duplicates
    #: kept), whether each came from SS, and every ``L_i`` / ``U_i``.
    values = property(lambda self: self._arrays[0])
    from_stream = property(lambda self: self._arrays[1])
    lower = property(lambda self: self._arrays[2])
    upper = property(lambda self: self._arrays[3])
