import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import incidence_matrix, random_graph
from tvclust.analysis import _ClusterNetwork, subset_cut_check
from tvclust.graphs import (
    DENSE_CAP,
    DenseCapExceededError,
    DuplicateEdgeError,
    GraphInputError,
    NodeIndexError,
    Partition,
    PartitionError,
    SelfLoopError,
    SignalLengthError,
    build_graph,
    contiguous_partition,
    laplacian,
    read_edge_list,
    read_partition,
    total_variation,
    write_edge_list,
    write_partition,
)


class TestBuildGraph:
    def test_orientation_min_max(self):
        g = build_graph(8, [(7, 3)])
        assert g.edges.tolist() == [[3, 7]]
        assert g.heads[0] == 3 and g.tails[0] == 7

    def test_empty_edge_list(self):
        g = build_graph(3, [])
        assert g.num_edges == 0
        assert_array_equal(g.degrees, [0, 0, 0])

    @pytest.mark.parametrize("num_nodes", [0, -3, 2**40])
    def test_node_count_outside_int32_ids_rejected(self, num_nodes):
        # ids are stored as int32, so a graph holds at most 2**31 nodes
        with pytest.raises(GraphInputError, match="num_nodes must be in"):
            build_graph(num_nodes, [])

    def test_edges_stored_as_int32(self, bridge_graph):
        assert bridge_graph.edges.dtype == np.int32
        big = build_graph(2**16 + 2, [(0, 2**16 + 1), (2**16, 2**16 + 1)])
        assert big.edges.tolist() == [[0, 2**16 + 1], [2**16, 2**16 + 1]]

    def test_bridge_graph_degrees(self, bridge_graph):
        assert_array_equal(bridge_graph.degrees, [2, 3, 3, 3, 3, 3, 3, 2])

    def test_out_of_range(self):
        with pytest.raises(NodeIndexError):
            build_graph(3, [(0, 3)])
        with pytest.raises(NodeIndexError):
            build_graph(3, [(-1, 2)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(3, [(1, 1)])

    def test_non_integer_node_id_rejected(self):
        # 1.9 used to be truncated to node 1 without a word
        with pytest.raises(GraphInputError, match="node ids must be integers, got 1.9"):
            build_graph(3, [(0, 1.9)])

    def test_non_integer_node_count_rejected(self):
        # 4.5 used to build 4 nodes
        with pytest.raises(GraphInputError, match="num_nodes must be an integer"):
            build_graph(4.5, [(0, 1)])

    def test_integer_valued_floats_accepted(self):
        g = build_graph(3.0, np.array([[2.0, 0.0]]))
        assert g.num_nodes == 3 and g.edges.tolist() == [[0, 2]]

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("n, p", [(1, 0.5), (6, 0.0), (15, 0.1), (25, 0.4)])
    def test_lookups_match_edge_scan(self, n, p):
        # edges given shuffled and in random orientation; p = 0 gives E = 0
        rng = np.random.default_rng(n)
        for _ in range(10):
            pairs = random_graph(rng, n, p).edges[:, ::-1].copy()
            rng.shuffle(pairs)
            flip = rng.random(len(pairs)) < 0.5
            pairs[flip] = pairs[flip, ::-1]
            g = build_graph(n, pairs)
            # edge e is input pair e, oriented head < tail
            assert g.edges.tolist() == [sorted(pair) for pair in pairs.tolist()]
            for i in range(n):
                assert g.degrees[i] == sum(i in pair for pair in pairs.tolist())
            # any input pair repeated, in either orientation, is a duplicate
            for e in range(len(pairs)):
                again = pairs[e] if e % 2 else pairs[e, ::-1]
                with pytest.raises(DuplicateEdgeError):
                    build_graph(n, np.vstack([pairs, again]))

    def test_edge_id_keeps_input_order(self):
        # an edge's id is its input row, the order the solver's messages use
        g = build_graph(6, [(4, 5), (2, 0), (1, 0), (5, 0), (3, 1)])
        assert g.edges.tolist() == [[4, 5], [0, 2], [0, 1], [0, 5], [1, 3]]
        assert g.degrees.tolist() == [3, 2, 1, 1, 1, 2]

    def test_orientation_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, 12, 0.3)
            assert (g.heads < g.tails).all()


class TestIncidenceAndLaplacian:
    def test_single_edge_row(self):
        g = build_graph(2, [(0, 1)])
        assert_array_equal(incidence_matrix(g), [[1.0, -1.0]])
        assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_structure(self, bridge_graph):
        d = incidence_matrix(bridge_graph)
        assert_array_equal(d.sum(axis=1), np.zeros(bridge_graph.num_edges))
        assert_array_equal((d != 0).sum(axis=1), np.full(bridge_graph.num_edges, 2))

    def test_incidence_identity_random(self):
        # D.T @ D must equal L entrywise on arbitrary small graphs.
        rng = np.random.default_rng(123)
        for _ in range(30):
            n = int(rng.integers(2, 21))
            g = random_graph(rng, n, 0.4)
            d = incidence_matrix(g)
            assert_array_equal(d.T @ d, laplacian(g))

    def test_dense_matrices_refused_above_cap(self):
        g = build_graph(DENSE_CAP + 1, [(0, DENSE_CAP)])
        with pytest.raises(DenseCapExceededError, match=str(DENSE_CAP + 1)):
            laplacian(g)
        assert laplacian(build_graph(DENSE_CAP, [(0, 1)])).shape == (DENSE_CAP, DENSE_CAP)

    def test_complete_graph_spectrum(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        g = build_graph(4, edges)
        lap = laplacian(g)
        assert_array_equal(np.diag(lap), [3, 3, 3, 3])
        off = lap[~np.eye(4, dtype=bool)]
        assert_array_equal(off, -np.ones(12))
        assert_allclose(np.linalg.eigvalsh(lap), [0, 4, 4, 4], atol=1e-12)

    def test_quadratic_form_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, 15, 0.3)
            x = rng.normal(size=15)
            diff = x[g.tails] - x[g.heads]
            q = diff @ diff
            assert q >= 0
            assert_allclose(q, x @ laplacian(g) @ x, atol=1e-9)


class TestTotalVariation:
    def test_constant_signal(self, bridge_graph):
        assert total_variation(bridge_graph, np.full(8, 3.7)) == 0.0

    def test_block_indicator(self, bridge_graph):
        x = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        assert total_variation(bridge_graph, x) == 1.0

    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert total_variation(g, np.array([0.0, 1.0])) == 1.0

    def test_matches_incidence_l1(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = random_graph(rng, 12, 0.4)
            x = rng.normal(size=12)
            assert_allclose(
                total_variation(g, x),
                np.abs(incidence_matrix(g) @ x).sum(),
                rtol=1e-12,
            )

    def test_length_mismatch(self, bridge_graph):
        with pytest.raises(SignalLengthError):
            total_variation(bridge_graph, np.zeros(5))


class TestPartition:
    def test_sizes(self):
        p = contiguous_partition([4, 4])
        assert_array_equal(p.assignment, [1, 1, 1, 1, 2, 2, 2, 2])
        assert_array_equal(p.cluster_sizes, [4, 4])
        assert_array_equal(p.nodes_in(2), [4, 5, 6, 7])

    def test_empty_cluster_rejected(self):
        with pytest.raises(PartitionError):
            Partition(np.array([1, 1, 3]), 3)

    def test_bad_index_rejected(self):
        with pytest.raises(PartitionError):
            Partition(np.array([0, 1]), 2)

    def test_non_integer_index_rejected(self):
        # 1.5 used to be stored as cluster 1
        with pytest.raises(PartitionError, match="cluster indices must be integers"):
            Partition(np.array([1.5, 2.0]), 2)

    def test_non_integer_cluster_count_rejected(self):
        # 2.7 used to become 2
        with pytest.raises(PartitionError, match="num_clusters must be an integer"):
            Partition(np.array([1, 2]), 2.7)

    def test_integer_valued_floats_accepted(self):
        p = Partition(np.array([1.0, 2.0]), 2.0)
        assert p.assignment.dtype == np.int64 and p.num_clusters == 2


class TestBoundary:
    def test_bridge_boundaries(self, bridge_graph, bridge_partition):
        one, two = _ClusterNetwork.of_every_cluster(bridge_graph, bridge_partition)
        assert_array_equal(one.members[one.boundary], [3])
        assert_array_equal(two.members[two.boundary], [4])

    def test_no_cross_edges(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        one, _ = _ClusterNetwork.of_every_cluster(g, contiguous_partition([2, 2]))
        assert one.boundary.size == 0
        assert one.boundary_edges == 0

    def test_complete_graph_all_boundary(self):
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        g = build_graph(6, edges)
        one, two = _ClusterNetwork.of_every_cluster(g, contiguous_partition([3, 3]))
        assert_array_equal(one.members[one.boundary], [0, 1, 2])
        assert_array_equal(two.members[two.boundary], [3, 4, 5])

    def test_bridge_edge_count(self, bridge_graph, bridge_partition):
        one, _ = _ClusterNetwork.of_every_cluster(bridge_graph, bridge_partition)
        assert one.boundary_edges == 1

    def test_full_bipartite_cross(self):
        # clusters of sizes 3 and 4 with every cross pair present: 12 edges
        edges = [(i, j) for i in range(3) for j in range(3, 7)]
        g = build_graph(7, edges)
        one, two = _ClusterNetwork.of_every_cluster(g, contiguous_partition([3, 4]))
        assert one.boundary_edges == two.boundary_edges == 12

    def test_two_cluster_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_graph(rng, 14, 0.3)
            one, two = _ClusterNetwork.of_every_cluster(g, contiguous_partition([6, 8]))
            assert one.boundary_edges == two.boundary_edges

    def test_invalid_cluster_index(self, bridge_graph, bridge_partition):
        for k in (0, 3, 1.5):
            with pytest.raises(PartitionError):
                subset_cut_check(bridge_graph, bridge_partition, k, 0)


class TestInducedSubgraph:
    def test_induced_subgraph_map(self, bridge_graph, bridge_partition):
        two = _ClusterNetwork.of_every_cluster(bridge_graph, bridge_partition)[1]
        assert two.sub.num_nodes == 4
        assert_array_equal(two.members, [4, 5, 6, 7])
        assert two.sub.edges.tolist() == [[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]]


class TestFileFormats:
    def test_edge_list_round_trip(self, tmp_path, bridge_graph):
        path = tmp_path / "edges.txt"
        write_edge_list(path, bridge_graph)
        g2 = read_edge_list(path, num_nodes=8)
        assert_array_equal(g2.edges, bridge_graph.edges)

    def test_edge_list_comments_and_blanks(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n0 1\n\n# another\n1 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    @settings(deadline=None)
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda e: e[0] != e[1])
                    .map(lambda e: (min(e), max(e)))
                ),
            )
        )
    )
    def test_edge_list_round_trip_random(self, graph_spec):
        n, pairs = graph_spec
        g = build_graph(n, list(pairs))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.txt"
            write_edge_list(path, g)
            back = read_edge_list(path, num_nodes=n)
        assert back.num_nodes == g.num_nodes
        assert back.edges.dtype == g.edges.dtype
        assert_array_equal(back.edges, g.edges)

    @pytest.mark.parametrize("line", ["0 1 2", "0 x", "3", "1 2.5"])
    def test_edge_list_malformed_line_named(self, tmp_path, line):
        path = tmp_path / "edges.txt"
        path.write_text(f"# header\n0 1\n{line}\n")
        with pytest.raises(GraphInputError, match=r"edges\.txt:3"):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1 a", "2 1 1", "x"])
    def test_partition_malformed_line_named(self, tmp_path, line):
        path = tmp_path / "partition.txt"
        path.write_text(f"0 1\n\n{line}\n")
        with pytest.raises(PartitionError, match=r"partition\.txt:3"):
            read_partition(path)

    @pytest.mark.parametrize("line", ["99999999999999999999 2", "1 -9223372036854775809"])
    def test_integer_outside_int64_named(self, tmp_path, line):
        # used to escape as a bare OverflowError from the int64 buffer
        readers = (
            ("edges.txt", read_edge_list, GraphInputError),
            ("partition.txt", read_partition, PartitionError),
        )
        for name, reader, error in readers:
            path = tmp_path / name
            path.write_text(f"0 1\n{line}\n")
            with pytest.raises(error, match=rf"{name}:2: integer outside the int64 range"):
                reader(path)

    def test_partition_duplicate_node_named(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("0 1\n1 2\n2 1\n0 2\n")
        with pytest.raises(PartitionError, match="node 0 listed more than once"):
            read_partition(path)
        # the first line that repeats an id names it, not the smallest id
        path.write_text("1 1\n2 1\n2 2\n1 2\n0 1\n")
        with pytest.raises(PartitionError, match="node 2 listed more than once"):
            read_partition(path)

    @pytest.mark.parametrize(
        "text, message",
        [("0 1\n100000000000 1\n", r"cover 0\.\.100000000000$"),
         ("0 1\n2 1\n", r"cover 0\.\.2$"),
         ("-1 1\n0 1\n", r"cover 0\.\.0$"),
         ("# no entries\n", "empty partition file")],
        ids=["huge_id", "gap", "negative_id", "empty"],
    )
    def test_partition_ids_must_cover(self, tmp_path, text, message):
        # a huge id used to raise a bare MemoryError: the reader built a
        # list of every id up to it
        path = tmp_path / "partition.txt"
        path.write_text(text)
        with pytest.raises(PartitionError, match=message):
            read_partition(path)

    def test_partition_round_trip(self, tmp_path, bridge_partition):
        path = tmp_path / "partition.txt"
        write_partition(path, bridge_partition)
        p2 = read_partition(path)
        assert_array_equal(p2.assignment, bridge_partition.assignment)
        assert p2.num_clusters == 2
