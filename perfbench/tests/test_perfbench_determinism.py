"""The workloads' inputs depend on the seed only."""

from perfbench.loadgen import ZipfPopularity, sql_pool
from perfbench.lqo_sweep import set_up


def test_sweep_splits_are_fixed():
    """Every set-up builds the same splits, one per sampling, with disjoint train and test queries."""
    first = set_up(scale=0.02)[0].splits
    again = set_up(scale=0.02)[0].splits
    assert [s.fingerprint() for s in first] == [s.fingerprint() for s in again]
    assert len({s.fingerprint() for s in first}) == len(first) == 3
    assert all(s.test_ids and not set(s.train_ids) & set(s.test_ids) for s in first)


def test_query_stream_and_zipf_draw_are_seed_deterministic(imdb_schema):
    """Pools and request streams repeat for a seed and change with it; the popularity order is fixed."""
    assert sql_pool(imdb_schema, 5, 64) == sql_pool(imdb_schema, 5, 64)
    assert sql_pool(imdb_schema, 5, 64) != sql_pool(imdb_schema, 6, 64)
    assert len(set(sql_pool(imdb_schema, 5, 64))) == 64
    a, b, other = ZipfPopularity(4096, 7), ZipfPopularity(4096, 7), ZipfPopularity(4096, 8)
    assert a.draw(500, stream=1) == b.draw(500, stream=1)
    assert a.draw(500, stream=1) != a.draw(500, stream=2)
    assert a.draw(500, stream=1) != other.draw(500, stream=1)
    assert a.head(10) == other.head(10)


def test_zipf_head_is_popular():
    """The most popular quarter of the pool draws most requests."""
    popularity = ZipfPopularity(4096, 0)
    draws = popularity.draw(20000, stream=0)
    head = set(popularity.head(1024))
    share = sum(i in head for i in draws) / len(draws)
    assert abs(share - popularity.head_share(1024)) < 0.02
    assert share > 0.8
