"""Seeded generation of partially labeled stochastic block model instances.

Randomness comes from numpy's Philox engine, a counter-based 64-bit
generator: the Bernoulli variable of node pair (i, j) is read off a fixed
position of one stream of uniforms over all pairs in lexicographic order,
so the realized graph depends only on (parameters, seed), never on
iteration or thread order.  `generate` draws that stream in bounded chunks
of whole rows (`PAIR_CHUNK` pairs), which reads exactly the same uniforms
as one draw over all pairs while its memory grows with the edges, not with
the N(N-1)/2 pairs.  It wraps the drawn edges in a `Graph` directly, not
through `build_graph`: each pair (i, j), i < j < N, is drawn once, so the
edges are oriented, distinct and in range by construction.
(`permute_instance` relabels a graph through `build_graph`.)  Derived
streams (graph draw vs. per-cluster seed selection) are split with numpy's
SeedSequence, which is also how sweep drivers should derive per-run seeds.

What every draw with one set of cluster sizes shares is a `_Layout`, built
from the sizes alone in O(N): the partition, each cluster's member block,
and where each row of the pair stream, and its pairs across clusters,
begin.  `generate_instance` checks its inputs and builds one per call;
`tvclust.sweep.run_sweep` builds one per sweep and draws every run through
it with `_draw`, whose instances go through `SbmInstance`'s check as
`generate_instance`'s do and are the same, bit for bit.

Clusters occupy contiguous id blocks: cluster 1 gets ids 0..n_1-1, and so
on.  An optional post-hoc node permutation is available but off by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tvclust.graphs import (
    Graph,
    Partition,
    PartitionError,
    build_graph,
    checked_float,
    checked_int,
    checked_int_array,
    contiguous_partition,
    read_edge_list,
    read_key_values,
    read_partition,
    write_edge_list,
    write_partition,
)

HEADER_FILE = "header.txt"
EDGES_FILE = "edges.txt"
PARTITION_FILE = "partition.txt"

# Pairs drawn per chunk by `generate` (whole rows, so a chunk may hold one
# row of up to N - 1 pairs when N - 1 exceeds it).  Fixes the working
# memory of a draw, about 9 bytes per pair, never its result.  At 8 MB of
# uniforms a freed chunk also lifts glibc's dynamic mmap threshold above
# the few-MB arrays later calls allocate (the max-flow oracle's), which
# then reuse heap pages instead of faulting in fresh mappings per call.
PAIR_CHUNK = 1 << 20


class SbmParamsError(ValueError):
    """Invalid block-model parameters."""


class SeedCountError(ValueError):
    """Requested more labeled nodes per cluster than the smallest cluster."""


class RngSeedError(ValueError):
    """A master seed that is not a non-negative integer."""


class InstanceFormatError(ValueError):
    """An instance directory is missing files or has a malformed header, or
    an instance the directory format cannot hold."""


class SeedGroupError(ValueError):
    """A seed set that does not hold one nonempty group of its own nodes per
    cluster, each node once."""


@dataclass(frozen=True)
class SbmParams:
    """Two-probability block model: p_in within clusters, p_out across."""

    cluster_sizes: tuple[int, ...]
    p_in: float
    p_out: float

    def __post_init__(self):
        sizes = tuple(
            checked_int(n, SbmParamsError, "cluster size") for n in self.cluster_sizes
        )
        if len(sizes) < 1 or any(n < 1 for n in sizes):
            raise SbmParamsError(f"bad cluster sizes {self.cluster_sizes}")
        for name in ("p_in", "p_out"):
            p = checked_float(getattr(self, name), SbmParamsError, name)
            if not 0.0 <= p <= 1.0:
                raise SbmParamsError(f"{name}={p} outside [0, 1]")
            object.__setattr__(self, name, p)
        object.__setattr__(self, "cluster_sizes", sizes)

    @property
    def num_nodes(self) -> int:
        return sum(self.cluster_sizes)

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_sizes)


@dataclass(frozen=True)
class SeedSet:
    """S labeled nodes per cluster (the sampling set)."""

    per_cluster: tuple[tuple[int, ...], ...]  # index k-1 -> sorted node ids

    @property
    def seeds_per_cluster(self) -> int:
        return len(self.per_cluster[0])

    @property
    def all_nodes(self) -> tuple[int, ...]:
        return tuple(i for group in self.per_cluster for i in group)

    def labels(self) -> dict[int, int]:
        """Mapping node id -> known cluster index (1-based)."""
        return {
            i: k + 1 for k, group in enumerate(self.per_cluster) for i in group
        }


@dataclass(frozen=True)
class SbmInstance:
    graph: Graph
    truth: Partition
    seeds: SeedSet
    params: SbmParams
    rng_seed: int

    def __post_init__(self):
        groups, truth = self.seeds.per_cluster, self.truth
        if truth.num_nodes != self.graph.num_nodes:
            raise PartitionError(
                f"partition covers {truth.num_nodes} nodes, graph has "
                f"{self.graph.num_nodes}"
            )
        if self.params.cluster_sizes != tuple(truth.cluster_sizes.tolist()):
            raise SbmParamsError(
                f"params cluster_sizes {list(self.params.cluster_sizes)} but the "
                f"partition's cluster sizes are {truth.cluster_sizes.tolist()}"
            )
        sizes = [len(group) for group in groups]
        if len(sizes) != truth.num_clusters or 0 in sizes:
            raise SeedGroupError(
                f"need one nonempty seed group per cluster: {truth.num_clusters} "
                f"clusters, seed groups of sizes {sizes}"
            )
        nodes = checked_int_array(self.seeds.all_nodes, SeedGroupError, "seed ids")
        home = np.repeat(np.arange(1, len(sizes) + 1), sizes)
        inside = (nodes >= 0) & (nodes < truth.num_nodes)
        # an id outside the graph looks up node 0 and is stray by `inside`
        stray = np.flatnonzero(~inside | (truth.assignment[nodes * inside] != home))
        if stray.size:
            i = stray[0]
            raise SeedGroupError(f"seed {nodes[i]} is not a node of cluster {home[i]}")
        ordered = np.sort(nodes)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise SeedGroupError(f"seed {repeated[0]} is listed more than once")


class _Layout:
    """What every draw with these cluster sizes shares (see the module
    docstring), built from the sizes alone in O(N) time and memory."""

    __slots__ = ("truth", "sizes", "members", "bounds", "rows", "lead", "across",
                 "chunks", "buffer_size")

    def __init__(self, cluster_sizes):
        self.truth = contiguous_partition(cluster_sizes)
        self.sizes = self.truth.cluster_sizes.tolist()
        n = self.truth.num_nodes
        # every cluster's node ids in ascending order, one block per
        # cluster: 0..N-1 for contiguous blocks
        self.members = np.arange(n)
        # row i holds the pairs (i, i+1..n-1) at stream offsets row_start[i]..;
        # clusters are contiguous id blocks, so the first pairs of a row, those
        # with j < block_end[i], draw with p_in and the rest with p_out
        row_start = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
        rows = np.arange(n - 1)
        block_end = np.cumsum(self.sizes)[self.truth.assignment[:-1] - 1]
        # stream offsets of row i's first pair, bounds[2i], and of its first
        # pair across clusters, bounds[2i + 1]; bounds[2N - 2] is the end.
        # The pairs from bounds[k] to bounds[k + 1] are (i, j) with i =
        # rows[k] and j = offset + lead[k], across clusters if across[k]
        self.bounds = np.empty(2 * n - 1, dtype=np.int64)
        self.bounds[0::2] = row_start
        self.bounds[1::2] = row_start[:-1] + block_end - rows - 1
        self.rows = np.repeat(rows, 2)
        self.lead = np.repeat(rows + 1 - row_start[:-1], 2)
        self.across = np.arange(2 * n - 2) % 2 == 1
        # rows lo..hi-1 of each chunk: as many whole rows as fit in
        # PAIR_CHUNK, at least one
        self.chunks, lo = [], 0
        while lo < n - 1:
            hi = np.searchsorted(row_start, row_start[lo] + PAIR_CHUNK, side="right")
            self.chunks.append((lo, max(int(hi) - 1, lo + 1)))
            lo = self.chunks[-1][1]
        self.buffer_size = min(max(PAIR_CHUNK, n - 1), int(row_start[-1]))


def generate(params: SbmParams, rng_seed: int) -> tuple[Graph, Partition]:
    """Draw one graph from the block model; bit-reproducible given the seed.

    Each unordered pair i < j gets exactly one Bernoulli draw with success
    probability p_in when both nodes share a cluster and p_out otherwise:
    pair (i, j) is an edge iff its uniform is below that probability.  The
    uniforms are read in lexicographic pair order from one Philox stream,
    in chunks of whole rows of about PAIR_CHUNK pairs, so memory stays
    O(E + PAIR_CHUNK + N) while the realized graph is the one a single
    draw over all pairs would give.
    """
    layout = _Layout(params.cluster_sizes)
    return Graph(params.num_nodes, _edges(layout, params, rng_seed)), layout.truth


def _edges(layout: _Layout, params: SbmParams, rng_seed) -> np.ndarray:
    """The (E, 2) int32 edges `generate` draws, chunk by chunk of `layout`.
    They need none of build_graph's checks (see the module docstring)."""
    rng = np.random.Generator(np.random.Philox(rng_seed))
    p_in, p_out = params.p_in, params.p_out
    p_max = max(p_in, p_out)
    bounds, rows, lead = layout.bounds, layout.rows, layout.lead
    p = np.where(layout.across, p_out, p_in)  # of the pairs between two bounds
    chunks = [np.empty((0, 2), dtype=np.int32)]
    # every chunk's uniforms go to one buffer: a fresh array per chunk is
    # allocated while the previous one is still bound, two chunks at once
    buffer = np.empty(layout.buffer_size)
    for lo, hi in layout.chunks:
        start, mine = int(bounds[2 * lo]), slice(2 * lo, 2 * hi)
        u = rng.random(out=buffer[: int(bounds[2 * hi]) - start])
        # u < p(i, j) <= p_max: screen the chunk against p_max, then test
        # the few candidates against their own probability; the candidates
        # are in stream order, so the bounds cut them into the rows' pairs
        # within and across clusters
        pos = np.flatnonzero(u < p_max)
        cut = np.searchsorted(pos, bounds[2 * lo:2 * hi + 1] - start)
        count = cut[1:] - cut[:-1]
        i = np.repeat(rows[mine], count)
        j = pos + np.repeat(lead[mine] + start, count)
        keep = u[pos] < np.repeat(p[mine], count)
        edges = np.empty((int(keep.sum()), 2), dtype=np.int32)
        edges[:, 0], edges[:, 1] = i[keep], j[keep]
        chunks.append(edges)
    # the uniform buffer is freed before the graph is built
    return np.concatenate(chunks)


def select_seeds(truth: Partition, s: int, rng_seed: int) -> SeedSet:
    """Draw S labeled nodes uniformly without replacement from each cluster.

    Each cluster uses its own SeedSequence-spawned stream, so the draw for
    cluster k does not depend on how many clusters precede it.
    """
    sizes = truth.cluster_sizes.tolist()
    s = _checked_s(s, sizes)
    if isinstance(rng_seed, np.random.SeedSequence):
        root = rng_seed
    else:
        root = np.random.SeedSequence(_checked_rng_seed(rng_seed))
    # every cluster's node ids in ascending order, one block per cluster
    members = np.argsort(truth.assignment, kind="stable")
    return _seed_set(members, sizes, s, root.spawn(len(sizes)))


def _seed_set(members: np.ndarray, sizes, s: int, streams) -> SeedSet:
    """S of each cluster's block of `members`, on the cluster's stream;
    choosing positions in a block draws what choosing from its ids does."""
    groups, end = [], 0
    for stream, size in zip(streams, sizes):
        rng = np.random.Generator(np.random.Philox(stream))
        chosen = members[end:end + size][rng.choice(size, size=s, replace=False)]
        groups.append(tuple(sorted(chosen.tolist())))
        end += size
    return SeedSet(tuple(groups))


def _checked_s(s, sizes) -> int:
    """`s` as an int; SeedCountError unless in 1..min(sizes)."""
    s = checked_int(s, SeedCountError, "s")
    if not 1 <= s <= min(sizes):
        raise SeedCountError(f"s={s} must be in 1..{min(sizes)} (smallest cluster)")
    return s


def _checked_rng_seed(rng_seed) -> int:
    """`rng_seed` as an int; RngSeedError unless a non-negative integer."""
    rng_seed = checked_int(rng_seed, RngSeedError, "rng_seed")
    if rng_seed < 0:
        raise RngSeedError(f"rng_seed={rng_seed} must be >= 0")
    return rng_seed


def generate_instance(params: SbmParams, s: int, rng_seed: int) -> SbmInstance:
    """Graph + ground truth + seed set from one recorded 64-bit seed."""
    rng_seed = _checked_rng_seed(rng_seed)
    s = _checked_s(s, params.cluster_sizes)
    return _draw(_Layout(params.cluster_sizes), params, s, rng_seed)


def _draw(layout: _Layout, params: SbmParams, s: int, rng_seed: int) -> SbmInstance:
    """generate_instance(params, s, rng_seed) through the layout of params'
    cluster sizes, for an s and rng_seed already checked."""
    # the graph stream and the clusters' seed streams are the children
    # SeedSequence(rng_seed).spawn(2) and its second child's .spawn(K):
    # spawning gives SeedSequence(entropy, spawn_key=parent key + (i,)), and
    # building those directly skips the parents' own seeding
    graph_stream = np.random.SeedSequence(rng_seed, spawn_key=(0,))
    streams = [np.random.SeedSequence(rng_seed, spawn_key=(1, k))
               for k in range(len(layout.sizes))]
    graph = Graph(params.num_nodes, _edges(layout, params, graph_stream))
    seeds = _seed_set(layout.members, layout.sizes, s, streams)
    return SbmInstance(graph, layout.truth, seeds, params, rng_seed)


def permute_instance(instance: SbmInstance, rng_seed: int) -> SbmInstance:
    """Relabel nodes by a uniform random permutation (off the default path)."""
    n = instance.graph.num_nodes
    rng = np.random.Generator(np.random.Philox(_checked_rng_seed(rng_seed)))
    perm = rng.permutation(n)  # perm[old] = new
    edges = perm[instance.graph.edges]
    graph = build_graph(n, edges)
    assignment = np.empty(n, dtype=np.int64)
    assignment[perm] = instance.truth.assignment
    truth = Partition(assignment, instance.truth.num_clusters)
    seeds = SeedSet(
        tuple(
            tuple(sorted(int(perm[i]) for i in group))
            for group in instance.seeds.per_cluster
        )
    )
    return SbmInstance(graph, truth, seeds, instance.params, instance.rng_seed)


# ---------------------------------------------------------------------------
# Instance serialization: edge list + partition + key=value header
# ---------------------------------------------------------------------------

def write_instance(instance: SbmInstance, out_dir) -> None:
    """Write the header, edge list and partition files; the header's one
    S= count holds only seed groups of equal size."""
    sizes = [len(group) for group in instance.seeds.per_cluster]
    if len(set(sizes)) > 1:
        raise InstanceFormatError(
            f"seed groups of sizes {sizes} do not fit the header's one S= count"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = instance.params
    seeds_flat = ",".join(str(i) for i in instance.seeds.all_nodes)
    sizes = ",".join(str(n) for n in p.cluster_sizes)
    header = (
        f"n={p.num_nodes}\n"
        f"sizes={sizes}\n"
        f"p_in={p.p_in!r}\n"
        f"p_out={p.p_out!r}\n"
        f"rng_seed={instance.rng_seed}\n"
        f"S={instance.seeds.seeds_per_cluster}\n"
        f"seeds={seeds_flat}\n"
    )
    (out / HEADER_FILE).write_text(header)
    write_edge_list(out / EDGES_FILE, instance.graph)
    write_partition(out / PARTITION_FILE, instance.truth)


def read_instance(in_dir) -> SbmInstance:
    src = Path(in_dir)
    header_path = src / HEADER_FILE
    if not header_path.exists():
        raise InstanceFormatError(f"missing {header_path}")
    fields = read_key_values(header_path, InstanceFormatError)
    try:
        n = int(fields["n"])
        sizes = tuple(int(x) for x in fields["sizes"].split(","))
        params = SbmParams(sizes, float(fields["p_in"]), float(fields["p_out"]))
        rng_seed = int(fields["rng_seed"])
        s = int(fields["S"])
        seed_nodes = [int(x) for x in fields["seeds"].split(",") if x != ""]
    except (KeyError, ValueError) as exc:
        raise InstanceFormatError(f"bad header in {header_path}: {exc}") from exc
    if params.num_nodes != n:
        raise InstanceFormatError(f"header n={n} but sizes sum to {params.num_nodes}")
    if s < 1:
        raise InstanceFormatError(f"header S={s} must be >= 1 in {header_path}")
    graph = read_edge_list(src / EDGES_FILE, num_nodes=n)
    truth = read_partition(src / PARTITION_FILE)
    if truth.num_nodes != n:
        raise InstanceFormatError(
            f"header n={n} but the partition covers {truth.num_nodes} nodes"
        )
    if tuple(truth.cluster_sizes.tolist()) != sizes:
        raise InstanceFormatError(
            f"header sizes={list(sizes)} but the partition's cluster sizes are "
            f"{truth.cluster_sizes.tolist()}"
        )
    bad = [node for node in seed_nodes if not 0 <= node < n]
    if bad:
        raise InstanceFormatError(f"seed ids {bad} in {header_path} outside 0..{n - 1}")
    groups: list[list[int]] = [[] for _ in range(truth.num_clusters)]
    for node in seed_nodes:
        groups[int(truth.assignment[node]) - 1].append(node)
    if any(len(g) != s for g in groups):
        raise InstanceFormatError(
            f"header S={s} inconsistent with per-cluster seed counts "
            f"{[len(g) for g in groups]}"
        )
    seeds = SeedSet(tuple(tuple(sorted(g)) for g in groups))
    return SbmInstance(graph, truth, seeds, params, rng_seed)
