"""Tests for index persistence and the (R, c)-NN decision query."""

import numpy as np
import pytest

from repro import C2LSH, PageManager
from repro.core import load_c2lsh, save_c2lsh
from repro.core.persist import _save_index
from repro.hashing import SignRandomProjectionFamily


class TestPersistence:
    def test_roundtrip_preserves_answers(self, clustered, tmp_path):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        path = tmp_path / "index.npz"
        save_c2lsh(index, path)
        loaded = load_c2lsh(path)
        for q in queries[:5]:
            a = index.query(q, k=5)
            b = loaded.query(q, k=5)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.distances, b.distances)

    def test_roundtrip_preserves_parameters(self, tiny, tmp_path):
        data, _ = tiny
        index = C2LSH(c=3, seed=1, delta=0.05).fit(data)
        path = tmp_path / "index.npz"
        save_c2lsh(index, path)
        loaded = load_c2lsh(path)
        assert loaded.params == index.params
        assert loaded.base_radius == index.base_radius

    def test_load_with_page_manager_charges_build(self, tiny, tmp_path):
        data, queries = tiny
        index = C2LSH(seed=0).fit(data)
        path = tmp_path / "index.npz"
        save_c2lsh(index, path)
        pm = PageManager()
        loaded = load_c2lsh(path, page_manager=pm)
        assert pm.stats.writes > 0
        assert loaded.query(queries[0], k=2).stats.io_reads > 0

    @pytest.mark.parametrize("layout", ["id", "zorder"])
    def test_roundtrip_keeps_data_layout(self, tmp_path, layout):
        """A reloaded index charges the data-read pages the saved one
        did."""
        rng = np.random.default_rng(0)
        data = rng.standard_normal((3000, 16))
        queries = rng.standard_normal((8, 16))
        index = C2LSH(seed=0, page_manager=PageManager(),
                      data_layout=layout).fit(data)
        before = [index.query(q, k=5).stats.io_reads for q in queries]
        path = save_c2lsh(index, tmp_path / "index.npz")
        loaded = load_c2lsh(path, page_manager=PageManager())
        assert [loaded.query(q, k=5).stats.io_reads
                for q in queries] == before

    def test_file_without_layout_loads_scattered(self, tiny, tmp_path):
        """Files saved before the layout was recorded hold the default
        data file."""
        data, queries = tiny
        index = C2LSH(seed=0, page_manager=PageManager()).fit(data)
        path = save_c2lsh(index, tmp_path / "index.npz")
        with np.load(path) as blob:
            arrays = {name: blob[name] for name in blob.files
                      if name not in ("data_layout", "format_version",
                                      "kind", "__manifest__")}
        _save_index(path, "c2lsh", arrays)
        loaded = load_c2lsh(path, page_manager=PageManager())
        assert [loaded.query(q, k=3).stats.io_reads for q in queries] == \
            [index.query(q, k=3).stats.io_reads for q in queries]

    def test_unfitted_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_c2lsh(C2LSH(seed=0), tmp_path / "x.npz")

    def test_custom_family_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 8))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        index = C2LSH(family=SignRandomProjectionFamily(8), seed=0).fit(data)
        with pytest.raises(TypeError):
            save_c2lsh(index, tmp_path / "x.npz")

    def test_version_check(self, tiny, tmp_path):
        data, _ = tiny
        index = C2LSH(seed=0).fit(data)
        path = tmp_path / "index.npz"
        save_c2lsh(index, path)
        blob = dict(np.load(path))
        blob["format_version"] = np.array(99)
        np.savez_compressed(path, **blob)
        with pytest.raises(ValueError):
            load_c2lsh(path)


class TestQueryRadius:
    def test_finds_point_within_c_radius(self, clustered):
        data, _ = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        query = data[5] + 0.01
        true_dist = float(np.linalg.norm(data[5] - query))
        result = index.query_radius(query, radius=max(true_dist, 0.1) * 2)
        assert len(result) >= 1
        assert np.all(result.distances <= 2 * max(true_dist, 0.1) * 2)

    def test_empty_when_nothing_near(self, clustered):
        data, _ = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        far_query = data[0] + 1e6
        result = index.query_radius(far_query, radius=0.01)
        assert len(result) == 0

    def test_single_round_only(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        result = index.query_radius(queries[0], radius=5.0)
        assert result.stats.rounds == 1
        assert result.stats.terminated_by == "decision"

    def test_grid_radius_is_power_of_c(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        result = index.query_radius(queries[0], radius=3.7)
        r = result.stats.final_radius
        assert r & (r - 1) == 0  # power of two for c = 2

    def test_validation(self, clustered):
        data, queries = clustered
        index = C2LSH(c=2, seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query_radius(queries[0], radius=0.0)
        with pytest.raises(ValueError):
            index.query_radius(queries[0], radius=1.0, k=0)
        with pytest.raises(ValueError):
            index.query_radius(np.zeros(99), radius=1.0)

    def test_non_rehashable_family_rejected(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 8))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        index = C2LSH(family=SignRandomProjectionFamily(8), seed=0).fit(data)
        with pytest.raises(ValueError):
            index.query_radius(data[0], radius=0.5)

    def test_io_accounted(self, tiny):
        data, queries = tiny
        pm = PageManager()
        index = C2LSH(seed=0, page_manager=pm).fit(data)
        result = index.query_radius(queries[0], radius=10.0)
        assert result.stats.io_reads > 0


class TestQALSHPersistence:
    """Save/load round-trips for the query-aware extension."""

    def test_roundtrip_preserves_answers(self, clustered, tmp_path):
        import numpy as np
        from repro import QALSH
        from repro.core import load_qalsh, save_qalsh

        data, queries = clustered
        index = QALSH(c=2, seed=0).fit(data)
        path = tmp_path / "qalsh.npz"
        save_qalsh(index, path)
        loaded = load_qalsh(path)
        for q in queries[:5]:
            a = index.query(q, k=5)
            b = loaded.query(q, k=5)
            assert np.array_equal(a.ids, b.ids)

    def test_parameters_preserved(self, tiny, tmp_path):
        from repro import QALSH
        from repro.core import load_qalsh, save_qalsh

        data, _ = tiny
        index = QALSH(c=2.5, seed=1, delta=0.05).fit(data)
        path = tmp_path / "qalsh.npz"
        save_qalsh(index, path)
        loaded = load_qalsh(path)
        assert loaded.m == index.m
        assert loaded.l == index.l
        assert loaded.c == index.c

    def test_kind_mismatch_rejected(self, tiny, tmp_path):
        import pytest
        from repro import C2LSH, QALSH
        from repro.core import load_c2lsh, load_qalsh, save_c2lsh, save_qalsh

        data, _ = tiny
        c2 = tmp_path / "c2.npz"
        qa = tmp_path / "qa.npz"
        save_c2lsh(C2LSH(seed=0).fit(data), c2)
        save_qalsh(QALSH(seed=0).fit(data), qa)
        with pytest.raises(ValueError):
            load_qalsh(c2)
        with pytest.raises(ValueError):
            load_c2lsh(qa)

    def test_unfitted_rejected(self, tmp_path):
        import pytest
        from repro import QALSH
        from repro.core import save_qalsh

        with pytest.raises(ValueError):
            save_qalsh(QALSH(seed=0), tmp_path / "x.npz")

    def test_load_with_page_manager(self, tiny, tmp_path):
        from repro import PageManager, QALSH
        from repro.core import load_qalsh, save_qalsh

        data, queries = tiny
        path = tmp_path / "qalsh.npz"
        save_qalsh(QALSH(seed=0).fit(data), path)
        pm = PageManager()
        loaded = load_qalsh(path, page_manager=pm)
        assert pm.stats.writes > 0
        assert loaded.query(queries[0], k=2).stats.io_reads > 0
