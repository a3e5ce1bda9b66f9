"""The vectorized batch query engine must equal the scalar path bit
for bit, under every stage combination its adaptive gates can pick."""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.distribution import DistributionLabeling
from repro.graph.generators import citation_dag, random_dag, sparse_dag
from repro.kernels.batchquery import BatchQueryEngine, engine_query_batch
from repro.serialization import FrozenOracle


def _workloads(graph, rng, count=1500):
    n = graph.n
    rnd = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    rnd.extend((v, v) for v in range(0, n, max(1, n // 7)))
    out_adj = graph.out_adj
    eq = []
    while len(eq) < count // 2:
        u = rng.randrange(n)
        w = u
        for _ in range(rng.randrange(1, 8)):
            nbrs = out_adj[w]
            if not nbrs:
                break
            w = nbrs[rng.randrange(len(nbrs))]
        eq.append((u, w))
    return rnd, eq


@pytest.mark.parametrize("seed", range(10))
def test_engine_matches_scalar_on_random_dags(seed):
    rng = random.Random(seed)
    n = rng.randrange(40, 200)
    graph = random_dag(n, rng.randrange(n, 5 * n), seed=seed)
    idx = DistributionLabeling(graph)
    labels = idx.labels
    engine = BatchQueryEngine(np, labels, graph)
    for pairs in _workloads(graph, rng):
        expected = labels.query_batch(pairs)
        assert engine.query_batch(pairs) == expected
        assert engine.query_batch(np.array(pairs, dtype=np.int64)) == expected


@pytest.mark.parametrize(
    "make",
    [
        lambda: citation_dag(300, out_per_vertex=3, seed=2),
        lambda: sparse_dag(400, 0.004, seed=5),
        lambda: random_dag(250, 2200, seed=7),
    ],
    ids=["citation", "sparse", "dense"],
)
def test_engine_matches_scalar_on_families(make):
    graph = make()
    idx = DistributionLabeling(graph)
    labels = idx.labels
    engine = BatchQueryEngine(np, labels, graph)
    rng = random.Random(3)
    for pairs in _workloads(graph, rng):
        assert engine.query_batch(pairs) == labels.query_batch(pairs)


def test_engine_without_graph_aux():
    """A frozen oracle carries no graph: label-only stages must suffice."""
    graph = random_dag(150, 700, seed=1)
    idx = DistributionLabeling(graph)
    labels = idx.labels
    engine = BatchQueryEngine(np, labels, None)
    assert engine.height is None and engine.rounds == []
    rng = random.Random(9)
    for pairs in _workloads(graph, rng):
        assert engine.query_batch(pairs) == labels.query_batch(pairs)


def test_engine_staleness_on_reseal():
    graph = random_dag(100, 500, seed=4)
    idx = DistributionLabeling(graph)
    labels = idx.labels
    engine = BatchQueryEngine(np, labels, graph)
    assert not engine.stale(labels)
    labels.seal()
    assert engine.stale(labels)


def test_engine_query_batch_routing(monkeypatch):
    """Large arena batches engage the engine; mask labels stay scalar."""
    graph = sparse_dag(600, 0.002, seed=6)  # below the mask density floor
    idx = DistributionLabeling(graph)
    assert idx.labels._out_masks is None  # sets-path build
    rng = random.Random(2)
    pairs = [(rng.randrange(600), rng.randrange(600)) for _ in range(5000)]
    expected = idx.labels.query_batch(pairs)
    assert idx.query_batch(pairs) == expected
    assert isinstance(getattr(idx, "_batch_engine", None), BatchQueryEngine)
    # Small batches skip the engine but answer identically.
    assert idx.query_batch(pairs[:50]) == expected[:50]

    # Small mask-sealed labels stay on the scalar AND loop (one C-level
    # AND per pair is already optimal below _MASK_LABELS_MIN_N) ...
    dense = DistributionLabeling(random_dag(120, 600, seed=3))
    assert dense.labels._out_masks is not None
    pairs = [(rng.randrange(120), rng.randrange(120)) for _ in range(5000)]
    assert dense.query_batch(pairs) == dense.labels.query_batch(pairs)
    assert getattr(dense, "_batch_engine", None) is None
    # ... while big mask-sealed labels switch to the engine.
    big = DistributionLabeling(citation_dag(4500, out_per_vertex=3, seed=1))
    assert big.labels._out_masks is not None
    pairs = [(rng.randrange(4500), rng.randrange(4500)) for _ in range(5000)]
    assert big.query_batch(pairs) == big.labels.query_batch(pairs)
    assert isinstance(getattr(big, "_batch_engine", None), BatchQueryEngine)


def test_frozen_oracle_uses_engine_for_big_arena_batches():
    graph = sparse_dag(700, 0.002, seed=8)
    idx = DistributionLabeling(graph)
    oracle = FrozenOracle(idx.labels, "DL", rank_space=True)
    rng = random.Random(5)
    pairs = [(rng.randrange(700), rng.randrange(700)) for _ in range(5000)]
    assert oracle.query_batch(pairs) == idx.labels.query_batch(pairs)


def test_empty_labels_certify_negative_not_positive():
    """Both-sides-empty pairs must answer False: the per-side empty
    sentinels may never collide on the min/max equality certificate."""
    from repro.core.labels import LabelSet

    ls = LabelSet(2)
    ls.lout[1] = [0]
    ls.lin[0] = [0]
    ls.seal()  # lout[0] and lin[1] stay empty
    engine = BatchQueryEngine(np, ls)
    pairs = np.array([(0, 1)] * 5000, dtype=np.int64)
    assert engine.query_batch(pairs) == ls.query_batch(pairs)


def test_generator_input_is_materialised():
    graph = random_dag(80, 300, seed=12)
    idx = DistributionLabeling(graph)
    rng = random.Random(0)
    pairs = [(rng.randrange(80), rng.randrange(80)) for _ in range(200)]
    assert idx.query_batch(iter(pairs)) == idx.query_batch(pairs)


def _residual_counts(engine):
    """Record how many pairs each batch sends to the residual stage."""
    counts = []
    residual = engine._residual

    def spy(ur, vr):
        counts.append(len(ur))
        return residual(ur, vr)

    engine._residual = spy
    return counts


def test_large_residual_matches_scalar():
    """Hops above the head bitset's 128 ids with overlapping ranges: the
    range and head stages decide almost nothing, so thousands of pairs
    (both label sides the smaller one, some labels empty) reach the
    residual."""
    from repro.core.labels import LabelSet

    rng = random.Random(11)
    n = 1200
    labels = LabelSet(n)
    sizes = (0, 1, 4, 9, 16, 30)
    for v in range(n):
        labels.lout[v] = sorted(rng.sample(range(128, n), rng.choice(sizes)))
        labels.lin[v] = sorted(rng.sample(range(128, n), rng.choice(sizes)))
    labels.seal()
    engine = BatchQueryEngine(np, labels)
    counts = _residual_counts(engine)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(6000)]
    got = engine.query_batch(pairs)
    assert got == labels.query_batch(pairs)
    assert counts and counts[0] > 512
    assert 0 < sum(got) < len(pairs)


def test_residual_on_hop_space_beyond_int32_packing():
    """A sparse label set on ``n`` above 46340, where ``vertex * n + hop``
    overflows int32: the residual must not depend on such packing."""
    from repro.core.labels import LabelSet

    rng = random.Random(12)
    n = 50_000
    ls = LabelSet(n)
    # Sparse: a few hundred labelled vertices, hops spread over all of n
    # (the top ones included) so the range stage leaves most pairs open.
    hubs = [n - 1, n - 2, 40_000, 46_341] + rng.sample(range(n), 60)
    labelled = rng.sample(range(n), 400)
    for v in labelled:
        ls.lout[v] = sorted(rng.sample(hubs, rng.randrange(1, 12)))
        ls.lin[v] = sorted(rng.sample(hubs, rng.randrange(1, 12)))
    ls.seal()
    engine = BatchQueryEngine(np, ls)
    counts = _residual_counts(engine)
    pairs = [(rng.choice(labelled), rng.choice(labelled)) for _ in range(5000)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
    got = engine.query_batch(pairs)
    assert got == ls.query_batch(pairs)
    assert counts and counts[0] > 512
    assert 0 < sum(got) < len(pairs)
