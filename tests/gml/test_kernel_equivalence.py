"""The vectorised GML training kernels against the per-element loops they replace.

Each reference below is the loop the kernel used to be.  The kernels must
match it exactly: same arrays, same floating-point bits, and the same random
number generator state afterwards, so trained models do not change.
"""

import numpy as np
import pytest

from repro.gml.autograd import Parameter, Tensor, gather_rows
from repro.gml.data import GraphData, TriplesData
from repro.gml.sampling import EdgeSubKGSampler, ShadowKHopSampler


def hub_graph(num_nodes=60, num_edges=400, num_relations=4, seed=0):
    """A typed multigraph with hubs, repeated edges and self-loops.

    Relation ``num_relations - 1`` has no edges.
    """
    rng = np.random.default_rng(seed)
    # Squaring skews the endpoints towards low ids, which become hubs.
    src = (rng.random(num_edges) ** 2 * num_nodes).astype(np.int64)
    dst = rng.integers(0, num_nodes, num_edges)
    src[:20], dst[:20] = 3, 5          # repeated edge
    src[20:25] = dst[20:25] = 7        # self-loops
    labels = rng.integers(0, 3, num_nodes)
    labels[::4] = -1
    mask = np.ones(num_nodes, dtype=bool)
    return GraphData(
        num_nodes=num_nodes, edge_index=np.stack([src, dst]),
        edge_type=rng.integers(0, num_relations - 1, num_edges),
        num_relations=num_relations, features=rng.normal(size=(num_nodes, 3)),
        labels=labels, num_classes=3, train_mask=mask, val_mask=mask, test_mask=mask)


# ---------------------------------------------------------------------------
# gather_rows backward
# ---------------------------------------------------------------------------

def spread_values(rng, shape):
    """Values over 16 orders of magnitude: their sum depends on the order."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


class TestGatherRowsBackward:
    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_matches_add_at(self, width):
        rng = np.random.default_rng(1)
        rows = 7
        shape = (rows,) if width is None else (rows, width)
        indices = rng.integers(0, rows, 500)
        upstream = spread_values(rng, (500,) + shape[1:])
        expected = np.zeros(shape)
        np.add.at(expected, indices, upstream)
        reversed_order = np.zeros(shape)
        np.add.at(reversed_order, indices[::-1], upstream[::-1])
        assert not np.array_equal(expected, reversed_order), "data is not order-sensitive"

        source = Parameter(rng.normal(size=shape))
        (gather_rows(source, indices) * Tensor(upstream)).sum().backward()
        assert np.array_equal(source.grad, expected)

    def test_reshaped_vector_source(self):
        """Attention layers gather from a score vector reshaped to ``(n, 1)``."""
        rng = np.random.default_rng(2)
        rows = 9
        indices = rng.integers(0, rows, 300)
        upstream = spread_values(rng, (300, 1))
        expected = np.zeros((rows, 1))
        np.add.at(expected, indices, upstream)

        scores = Parameter(rng.normal(size=rows))
        (gather_rows(scores.reshape(rows, 1), indices) * Tensor(upstream)).sum().backward()
        assert np.array_equal(scores.grad, expected.reshape(rows))

    def test_unused_rows_and_no_indices(self):
        source = Parameter(np.ones((4, 2)))
        gather_rows(source, np.array([2, 2])).sum().backward()
        assert np.array_equal(source.grad, [[0, 0], [0, 0], [2, 2], [0, 0]])
        empty = Parameter(np.ones((3, 2)))
        gather_rows(empty, np.array([], dtype=np.int64)).sum().backward()
        assert np.array_equal(empty.grad, np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# ShaDow k-hop expansion
# ---------------------------------------------------------------------------

def reference_expand(sampler, roots):
    """The per-neighbour breadth-first loop ``_expand`` replaced."""
    frontier = list(roots)
    visited = set(int(r) for r in roots)
    for _ in range(sampler.depth):
        next_frontier = []
        for node in frontier:
            node = int(node)
            neighbors = sampler._sorted_dst[sampler._offsets[node]:sampler._offsets[node + 1]]
            if neighbors.size > sampler.neighbors_per_hop:
                neighbors = sampler.rng.choice(neighbors, size=sampler.neighbors_per_hop,
                                               replace=False)
            for neighbor in neighbors:
                neighbor = int(neighbor)
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return np.asarray(sorted(visited), dtype=np.int64)


def sampler_pair(data, **options):
    """Two samplers in the same state: one for the kernel, one for the reference."""
    return (ShadowKHopSampler(data, num_batches=4, seed=11, **options),
            ShadowKHopSampler(data, num_batches=4, seed=11, **options))


class TestShadowExpand:
    @pytest.mark.parametrize("depth,neighbors_per_hop,batch_size",
                             [(1, 1, 5), (2, 3, 8), (3, 2, 4), (2, 10, 16)])
    def test_matches_per_node_loop(self, depth, neighbors_per_hop, batch_size):
        kernel, reference = sampler_pair(hub_graph(), depth=depth, batch_size=batch_size,
                                         neighbors_per_hop=neighbors_per_hop)
        for _ in range(6):
            roots = kernel._next_roots()
            assert np.array_equal(roots, reference._next_roots())
            assert np.array_equal(kernel._expand(roots), reference_expand(reference, roots))
            assert kernel.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_matches_per_node_loop_on_dblp(self, dblp_nc_data):
        kernel, reference = sampler_pair(dblp_nc_data[0], depth=2, batch_size=32,
                                         neighbors_per_hop=10)
        for _ in range(4):
            roots = kernel._next_roots()
            reference._next_roots()
            assert np.array_equal(kernel._expand(roots), reference_expand(reference, roots))
            assert kernel.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_sample_roots_match_position_lookup(self):
        data = hub_graph()
        kernel, reference = sampler_pair(data, depth=2, batch_size=8, neighbors_per_hop=3)
        for _ in range(4):
            batch = kernel.sample()
            roots = reference._next_roots()
            sub, mapping = data.subgraph(reference_expand(reference, roots))
            position = {int(full): local for local, full in enumerate(mapping)}
            expected = np.asarray([position[int(r)] for r in roots], dtype=np.int64)
            assert np.array_equal(batch.node_mapping, mapping)
            assert np.array_equal(batch.root_nodes, expected)


# ---------------------------------------------------------------------------
# Per-relation adjacencies
# ---------------------------------------------------------------------------

class TestRelationAdjacencies:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_adjacency_per_relation(self, seed):
        data = hub_graph(seed=seed)
        adjacencies = data.relation_adjacencies()
        assert len(adjacencies) == data.num_relations
        assert adjacencies[-1].nnz == 0
        for relation, matrix in enumerate(adjacencies):
            expected = data.adjacency(relation=relation, add_self_loops=False)
            assert matrix.shape == expected.shape
            assert np.array_equal(matrix.indptr, expected.indptr)
            assert np.array_equal(matrix.indices, expected.indices)
            assert np.array_equal(matrix.data, expected.data)

    def test_messages_sum_to_the_same_bits(self):
        data = hub_graph()
        rng = np.random.default_rng(5)
        x = spread_values(rng, (data.num_nodes, 4))
        for relation, matrix in enumerate(data.relation_adjacencies()):
            expected = data.adjacency(relation=relation, add_self_loops=False)
            assert np.array_equal(matrix @ x, expected @ x)
            assert np.array_equal(matrix.T @ x, expected.T @ x)


# ---------------------------------------------------------------------------
# MorsE sub-KG sampling
# ---------------------------------------------------------------------------

def reference_subkg(sampler):
    """The dict remap ``EdgeSubKGSampler.sample`` replaced."""
    train = sampler.data.split("train")
    count = min(sampler.triples_per_subkg, train.shape[0])
    triples = train[sampler.rng.choice(train.shape[0], size=count, replace=False)]
    entities = np.unique(np.concatenate([triples[:, 0], triples[:, 2]]))
    remap = {int(e): i for i, e in enumerate(entities)}
    local = triples.copy()
    local[:, 0] = [remap[int(h)] for h in triples[:, 0]]
    local[:, 2] = [remap[int(t)] for t in triples[:, 2]]
    return local, entities, entities.shape[0]


class TestEdgeSubKGSampler:
    @pytest.mark.parametrize("triples_per_subkg", [1, 40, 10_000])
    def test_matches_dict_remap(self, triples_per_subkg):
        rng = np.random.default_rng(3)
        triples = np.stack([rng.integers(0, 90, 300), rng.integers(0, 5, 300),
                            rng.integers(0, 90, 300)], axis=1)
        data = TriplesData(num_entities=90, num_relations=5, triples=triples,
                           train_idx=np.arange(250), valid_idx=np.arange(250, 275),
                           test_idx=np.arange(275, 300))
        kernel = EdgeSubKGSampler(data, triples_per_subkg=triples_per_subkg, seed=4)
        reference = EdgeSubKGSampler(data, triples_per_subkg=triples_per_subkg, seed=4)
        for _ in range(3):
            local, entities, count = kernel.sample()
            expected_local, expected_entities, expected_count = reference_subkg(reference)
            assert np.array_equal(local, expected_local)
            assert np.array_equal(entities, expected_entities)
            assert count == expected_count
