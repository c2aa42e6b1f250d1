"""Color table stage: sizes, index mapping, gather forward, scatter-add
backward, and the adjointness/permutation/collapse properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookupvnet.gradcore import backward, finite_diff_grad, max_rel_error, mul, sum_all
from lookupvnet.lookup import (
    CompressedLookupTables,
    FullLookupTables,
    compressed_index,
    init_tables,
    lookup,
    lookup_backward,
    table_size,
)


class TestInitTables:
    def test_full_u1_has_768_entries_in_range(self):
        tables = init_tables("full", 1, seed=0)
        total = sum(t.data.size for t in tables.tables)
        assert total == 768
        for t in tables.tables:
            assert t.data.min() >= -1.0 and t.data.max() <= 1.0

    def test_full_row_count_fixed_at_256(self):
        for u in (1, 3, 10):
            tables = init_tables("full", u, seed=1)
            assert all(t.data.shape == (256, u) for t in tables.tables)

    def test_compressed_256_gives_one_color_per_channel(self):
        tables = init_tables("compressed", 256, seed=2)
        assert sum(t.data.size for t in tables.tables) == 3

    def test_compressed_128_and_100_give_2_and_3_entries(self):
        assert all(t.data.size == 2 for t in init_tables("compressed", 128, seed=3).tables)
        assert all(t.data.size == 3 for t in init_tables("compressed", 100, seed=4).tables)

    def test_compressed_entries_in_range(self):
        tables = init_tables("compressed", 16, seed=5)
        for t in tables.tables:
            assert t.data.min() >= -1.0 and t.data.max() <= 1.0

    def test_seeded_init_is_reproducible(self):
        a = init_tables("full", 2, seed=9)
        b = init_tables("full", 2, seed=9)
        for ta, tb in zip(a.tables, b.tables):
            assert np.array_equal(ta.data, tb.data)

    def test_rate_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            init_tables("compressed", 0, seed=0)
        with pytest.raises(ValueError):
            init_tables("compressed", 257, seed=0)


class TestCompressedIndex:
    def test_first_bucket(self):
        for c in (1, 7, 256):
            assert compressed_index(0, c) == 0

    def test_color_255_rate_16(self):
        assert compressed_index(255, 16) == 15
        assert table_size(16) == 16

    def test_color_255_rate_100(self):
        assert compressed_index(255, 100) == 2
        assert table_size(100) == 3

    def test_index_always_below_table_size(self):
        for c in (1, 3, 16, 100, 128, 255, 256):
            assert max(compressed_index(v, c) for v in range(256)) < table_size(c)

    def test_out_of_byte_range_rejected(self):
        with pytest.raises(ValueError):
            compressed_index(256, 4)
        with pytest.raises(ValueError):
            compressed_index(-1, 4)


def identity_tables():
    ramp = np.arange(256, dtype=np.float64).reshape(256, 1)
    return FullLookupTables.from_channel_maps([ramp, ramp, ramp])


class TestLookupForward:
    def test_identity_coding_reproduces_image(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        out = lookup(image, identity_tables()).values.data
        assert np.array_equal(out[0], image.astype(np.float64))

    def test_single_pixel_expansion_u2(self):
        pairs = ((1.5, -2.0), (0.25, 7.0), (-3.0, 4.0))
        maps = []
        for a, b in pairs:
            table = np.zeros((256, 2))
            table[5] = (a, b)
            maps.append(table)
        tables = FullLookupTables.from_channel_maps(maps)
        image = np.full((3, 1, 1), 5, dtype=np.uint8)
        out = lookup(image, tables).values.data.reshape(6)
        # planes ordered R0,R1,G0,G1,B0,B1
        assert out.tolist() == [1.5, -2.0, 0.25, 7.0, -3.0, 4.0]

    def test_output_channel_count_is_3u_for_any_size(self):
        rng = np.random.default_rng(6)
        for u in (1, 2, 5):
            tables = init_tables("full", u, seed=u)
            for h, w in ((1, 1), (3, 7), (8, 8)):
                images = rng.integers(0, 256, size=(2, 3, h, w)).astype(np.uint8)
                assert lookup(images, tables).values.data.shape == (2, 3 * u, h, w)

    def test_compressed_output_keeps_3_channels(self):
        rng = np.random.default_rng(7)
        tables = init_tables("compressed", 16, seed=0)
        images = rng.integers(0, 256, size=(2, 3, 5, 4)).astype(np.uint8)
        assert lookup(images, tables).values.data.shape == (2, 3, 5, 4)

    def test_compressed_scalar_entries_gathered_by_bucket(self):
        tables = CompressedLookupTables(100, [np.array([1.0, 2.0, 3.0])] * 3)
        image = np.array([[[0, 99], [100, 255]]] * 3, dtype=np.uint8)
        out = lookup(image, tables).values.data[0]
        assert out[0].tolist() == [[1.0, 1.0], [2.0, 3.0]]

    def test_rate_256_collapses_every_image_to_one_tensor(self):
        rng = np.random.default_rng(8)
        tables = init_tables("compressed", 256, seed=1)
        a = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        b = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        out_a = lookup(a, tables).values.data
        out_b = lookup(b, tables).values.data
        assert np.array_equal(out_a, out_b)

    def test_pixels_outside_byte_range_rejected(self):
        tables = init_tables("full", 1, seed=0)
        with pytest.raises(ValueError):
            lookup(np.full((3, 2, 2), 300, dtype=np.int32), tables)

    @pytest.mark.parametrize("bad", [3.7, np.nan, np.inf, -np.inf], ids=["fraction", "nan", "inf", "-inf"])
    def test_non_integral_or_non_finite_pixels_rejected(self, bad):
        tables = init_tables("full", 1, seed=0)
        images = np.full((2, 3, 2, 2), 7.0)
        images[1, 2, 0, 1] = bad
        with pytest.raises(ValueError, match=r"\(1, 2, 0, 1\)"):
            lookup(images, tables)

    def test_whole_float_pixels_match_bytes(self):
        tables = init_tables("full", 2, seed=0)
        images = np.random.default_rng(3).integers(0, 256, size=(2, 3, 4, 4))
        want = lookup(images.astype(np.uint8), tables).values.data
        assert np.array_equal(lookup(images.astype(np.float64), tables).values.data, want)

    @pytest.mark.parametrize(
        "kind,value", [("full", 1), ("full", 4), ("compressed", 1), ("compressed", 16), ("compressed", 256)]
    )
    def test_indices_are_byte_valued(self, kind, value):
        images = np.random.default_rng(14).integers(0, 256, size=(2, 3, 5, 4)).astype(np.uint8)
        tables = init_tables(kind, value, seed=0)
        indices = lookup(images, tables).indices
        assert indices.dtype.kind == "u" and indices.dtype.itemsize <= 2
        assert np.array_equal(indices, images.astype(np.int64) // tables.c)
        if tables.c == 1:
            assert indices is images  # the images themselves, no copy

    def test_rate_256_maps_every_byte_to_row_0(self):
        tables = CompressedLookupTables(256, [np.array([v]) for v in (1.5, -2.0, 0.25)])
        images = np.broadcast_to(np.arange(256, dtype=np.uint8).reshape(1, 1, 16, 16), (1, 3, 16, 16))
        result = lookup(images, tables)
        assert not result.indices.any()
        for ch, v in enumerate((1.5, -2.0, 0.25)):
            assert np.all(result.values.data[0, ch] == v)

    def test_u4_batch256_peak_is_output_plus_two_index_planes(self):
        images = np.random.default_rng(15).integers(0, 256, size=(256, 3, 32, 32)).astype(np.uint8)
        tables = init_tables("full", 4, seed=0)
        output = 12 * images[:, 0].size * 8
        index_plane = images[:, 0].size * np.dtype(np.intp).itemsize
        tracemalloc.start()
        try:
            lookup(images, tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= output + 2 * index_plane, f"lookup peaked at {peak / 2**20:.1f} MiB"

    def test_permutation_consistency(self):
        """Swapping two color rows and recoloring the image is a no-op."""
        rng = np.random.default_rng(9)
        tables = init_tables("full", 3, seed=2)
        image = rng.integers(0, 256, size=(3, 6, 6)).astype(np.uint8)
        baseline = lookup(image, tables).values.data.copy()

        v1, v2 = 13, 200
        swapped_maps = [t.data.copy() for t in tables.tables]
        for m in swapped_maps:
            m[[v1, v2]] = m[[v2, v1]]
        swapped = FullLookupTables.from_channel_maps(swapped_maps)
        recolored = image.copy()
        recolored[image == v1] = v2
        recolored[image == v2] = v1
        assert np.array_equal(lookup(recolored, swapped).values.data, baseline)


def loop_lookup(images, tables):
    """Pixel-by-pixel gather and scatter oracles for lookup/lookup_backward.

    Returns (coded planes, scatter) where scatter(upstream) adds each
    pixel's upstream value into its row, one pixel at a time in C order.
    """
    n, _, h, w = images.shape
    width = tables.u if tables.kind == "full" else 1
    rows = [t.data.reshape(t.data.shape[0], width) for t in tables.tables]
    step = tables.c if tables.kind == "compressed" else 1
    out = np.zeros((n, 3 * width, h, w))
    for ni, ch, hi, wi in np.ndindex(n, 3, h, w):
        out[ni, ch * width : (ch + 1) * width, hi, wi] = rows[ch][int(images[ni, ch, hi, wi]) // step]

    def scatter(upstream):
        grads = [np.zeros_like(r) for r in rows]
        for ni, ch, hi, wi in np.ndindex(n, 3, h, w):
            row = int(images[ni, ch, hi, wi]) // step
            for k in range(width):
                grads[ch][row, k] += upstream[ni, ch * width + k, hi, wi]
        return [g.reshape(t.data.shape) for g, t in zip(grads, tables.tables)]

    return out, scatter


def check_against_loop_oracle(kind, value, images, seed):
    rng = np.random.default_rng(seed)
    tables = init_tables(kind, value, seed=seed)
    result = lookup(images, tables)
    upstream = rng.normal(size=result.values.data.shape)
    want_out, scatter = loop_lookup(images, tables)
    assert result.values.data.tobytes() == want_out.tobytes()
    for got, want in zip(lookup_backward(upstream, result.indices, tables), scatter(upstream)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLookupBackward:
    @pytest.mark.parametrize(
        "kind,value", [("full", 1), ("full", 4), ("compressed", 1), ("compressed", 16), ("compressed", 256)]
    )
    def test_matches_loop_oracle_bit_for_bit(self, kind, value):
        rng = np.random.default_rng(12)
        # few distinct colors, so rows accumulate many pixels
        images = rng.choice(np.array([0, 1, 17, 128, 255], dtype=np.uint8), size=(3, 3, 7, 5))
        check_against_loop_oracle(kind, value, images, seed=13)

    @settings(max_examples=60, deadline=None)
    @given(
        kind_value=st.one_of(
            st.tuples(st.just("full"), st.integers(1, 5)),
            st.tuples(st.just("compressed"), st.integers(1, 256)),
        ),
        n=st.integers(1, 4),
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        colors=st.integers(1, 256),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_loop_oracle(self, kind_value, n, h, w, colors, seed):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, colors, size=(n, 3, h, w)).astype(np.uint8)
        check_against_loop_oracle(*kind_value, images, seed=seed)

    def test_single_pixel_single_occurrence(self):
        tables = init_tables("full", 1, seed=0)
        image = np.zeros((1, 3, 1, 1), dtype=np.uint8)
        image[0, 0, 0, 0] = 42
        result = lookup(image, tables)
        upstream = np.zeros_like(result.values.data)
        upstream[0, 0, 0, 0] = 1.0
        grads = lookup_backward(upstream, result.indices, tables)
        assert grads[0][42, 0] == 1.0
        assert np.count_nonzero(grads[0]) == 1

    def test_same_color_accumulates(self):
        tables = init_tables("full", 1, seed=0)
        image = np.full((1, 3, 1, 2), 7, dtype=np.uint8)
        result = lookup(image, tables)
        upstream = np.zeros_like(result.values.data)
        upstream[0, 0, 0, 0] = 1.0
        upstream[0, 0, 0, 1] = 2.0
        grads = lookup_backward(upstream, result.indices, tables)
        assert grads[0][7, 0] == 3.0

    def test_absent_colors_have_zero_gradient(self):
        tables = init_tables("compressed", 64, seed=0)
        image = np.zeros((1, 3, 2, 2), dtype=np.uint8)  # only bucket 0 used
        result = lookup(image, tables)
        grads = lookup_backward(np.ones_like(result.values.data), result.indices, tables)
        for g in grads:
            assert g[0] == 4.0
            assert np.all(g[1:] == 0.0)

    @pytest.mark.parametrize("kind,value", [("full", 1), ("full", 3), ("compressed", 16)])
    def test_matches_finite_differences(self, kind, value):
        rng = np.random.default_rng(10)
        tables = init_tables(kind, value, seed=3)
        images = rng.integers(0, 256, size=(2, 3, 8, 8)).astype(np.uint8)
        cotangent = rng.normal(size=lookup(images, tables).values.data.shape)

        def loss_fn():
            values = lookup(images, tables).values
            from lookupvnet.gradcore import Tensor

            return sum_all(mul(values, Tensor(cotangent)))

        grads = backward(loss_fn())
        for tensor in tables.tables:
            err = max_rel_error(grads[tensor], finite_diff_grad(loss_fn, tensor), floor=1e-6)
            assert err < 1e-4

    def test_gather_scatter_adjointness(self):
        """<lookup(x, T+eps*E) - lookup(x, T), G>/eps -> <E, scatter(G)>."""
        rng = np.random.default_rng(11)
        tables = init_tables("full", 2, seed=4)
        images = rng.integers(0, 256, size=(2, 3, 6, 6)).astype(np.uint8)
        result = lookup(images, tables)
        cotangent = rng.normal(size=result.values.data.shape)
        directions = [rng.normal(size=t.data.shape) for t in tables.tables]

        eps = 1e-7
        bumped = FullLookupTables.from_channel_maps(
            [t.data + eps * e for t, e in zip(tables.tables, directions)]
        )
        lhs = ((lookup(images, bumped).values.data - result.values.data) * cotangent).sum() / eps
        grads = lookup_backward(cotangent, result.indices, tables)
        rhs = sum((e * g).sum() for e, g in zip(directions, grads))
        assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-6
