"""CTAStore columns and the CTA-id range of every kernel accessor."""

import numpy as np
import pytest

from repro.exceptions import TraceError
from repro.trace.io import load_trace, save_trace, trace_digest
from repro.trace.kernel import CTAStore, CTATrace, KernelTrace, WarpTrace
from repro.workloads import STRONG_SCALING, build_trace
from repro.workloads.generators import _generate_trace


def cta(cta_id):
    return CTATrace(cta_id, [
        WarpTrace([1, 2], [10 + cta_id, 11], tail_compute=3, start_offset=5.0),
        WarpTrace([], [], tail_compute=1),
        WarpTrace([4], [12]),
    ])


class TestColumns:
    def test_layout(self):
        store = CTAStore()
        store.append(cta(0))
        store.append(cta(1))
        assert len(store) == 2
        assert store.lines.tolist() == [10, 11, 12, 11, 11, 12]
        assert store.compute.tolist() == [1, 2, 4, 1, 2, 4]
        assert store.warp_ends.tolist() == [2, 2, 3, 5, 5, 6]
        assert store.warp_tails.tolist() == [3, 1, 0, 3, 1, 0]
        assert store.warp_offsets.tolist() == [5.0, 0.0, 0.0, 5.0, 0.0, 0.0]
        assert store.cta_warp_ends.tolist() == [3, 6]

    def test_reads_match_the_stored_cta(self):
        store = CTAStore()
        for cta_id in range(2):
            store.append(cta(cta_id))
        assert store.cta(1) == cta(1)
        assert store.warps(1) == [
            ([1, 2], [11, 11], 3, 5.0), ([], [], 1, 0.0), ([4], [12], 0, 0.0),
        ]
        warp_lines, instructions = store.line_arrays(1)
        assert [w.tolist() for w in warp_lines] == [[11, 11], [], [12]]
        assert all(w.dtype == np.int64 for w in warp_lines)
        assert instructions == cta(1).warp_instructions

    def test_integral_floats_are_stored_as_ints(self):
        store = CTAStore()
        store.append(CTATrace(0, [WarpTrace([2.0], [np.int64(7)], tail_compute=1.0)]))
        assert store.warps(0) == [([2], [7], 1, 0.0)]
        assert all(type(v) is int for v in store.warps(0)[0][0] + store.warps(0)[0][1])

    @pytest.mark.parametrize(
        "warp, what",
        [
            (WarpTrace([1.5], [0]), "compute burst"),
            (WarpTrace([float("nan")], [0]), "compute burst"),
            (WarpTrace([1], [float("inf")]), "line address"),
            (WarpTrace([1], [1 << 70]), "line address"),
        ],
    )
    def test_non_integers_are_rejected_and_nothing_is_kept(self, warp, what):
        store = CTAStore()
        store.append(cta(0))
        with pytest.raises(TraceError, match=what):
            store.append(CTATrace(1, [WarpTrace([1], [1]), warp]))
        assert len(store) == 1
        assert len(store.lines) == len(store.compute) == 3
        assert len(store.warp_ends) == len(store.warp_tails) == 3
        assert len(store.warp_offsets) == 3


def _accessors(kernel):
    return (kernel.cta, kernel.warps, kernel.line_arrays, kernel.store.cta)


def _store_all(kernel):
    kernel.storing = True
    kernel.warps(kernel.num_ctas - 1)


class TestCtaIdRange:
    """Out-of-range ids raise; they used to build a CTA past the grid
    (generated) or read the next kernel's CTAs (loaded)."""

    @pytest.mark.parametrize("stored", [False, True], ids=["unstored", "stored"])
    @pytest.mark.parametrize("bad", [-1, "end"])
    def test_generated_kernel(self, bad, stored):
        kernel = _generate_trace(STRONG_SCALING["gr"], 1.0, 0.125, 0).kernels[0]
        cta_id = kernel.num_ctas if bad == "end" else bad
        if stored:
            _store_all(kernel)
        for read in _accessors(kernel):
            with pytest.raises(TraceError):
                read(cta_id)
        kernel.storing = True
        with pytest.raises(TraceError):
            kernel.warps(cta_id)
        assert len(kernel.store) == (kernel.num_ctas if stored else 0)

    @pytest.mark.parametrize("bad", [-1, "end"])
    def test_loaded_kernel(self, bad, tmp_path):
        path = str(tmp_path / "gr.npz")
        save_trace(build_trace(STRONG_SCALING["gr"]), path)
        kernel = load_trace(path).kernels[0]
        cta_id = kernel.num_ctas if bad == "end" else bad
        for read in _accessors(kernel) + (kernel.build_cta,):
            with pytest.raises(TraceError):
                read(cta_id)


class TestStoringPolicy:
    def test_unstored_kernel_generates_and_keeps_nothing(self):
        kernel = KernelTrace("k", 4, 64, cta)
        assert kernel.cta(3) == cta(3)
        assert kernel.warps(2)[0][1] == [12, 11]
        warp_lines, instructions = kernel.line_arrays(1)
        assert [w.tolist() for w in warp_lines] == [[11, 11], [], [12]]
        assert instructions == cta(1).warp_instructions
        assert len(kernel.store) == 0

    def test_storing_kernel_fills_up_to_the_cta_read(self):
        kernel = KernelTrace("k", 4, 64, cta)
        kernel.storing = True
        assert kernel.warps(2)[0][1] == [12, 11]
        assert len(kernel.store) == 3
        # Functional reads never store.
        assert kernel.cta(3) == cta(3)
        kernel.line_arrays(3)
        assert len(kernel.store) == 3

    def test_stored_ctas_are_read_even_when_not_storing(self):
        calls = []

        def counted(cta_id):
            calls.append(cta_id)
            return cta(cta_id)

        kernel = KernelTrace("k", 4, 64, counted)
        _store_all(kernel)
        kernel.storing = False
        calls.clear()
        for cta_id in range(4):
            assert kernel.cta(cta_id) == cta(cta_id)
            kernel.warps(cta_id)
            kernel.line_arrays(cta_id)
        assert calls == []


class TestLoadedStores:
    def test_loaded_kernels_come_with_full_stores(self, tmp_path):
        path = str(tmp_path / "gr.npz")
        trace = build_trace(STRONG_SCALING["gr"])
        save_trace(trace, path)
        loaded = load_trace(path)
        for original, kernel in zip(trace.kernels, loaded.kernels):
            assert len(kernel.store) == kernel.num_ctas
            want = original.full_store()
            for name in CTAStore.__slots__:
                assert getattr(kernel.store, name) == getattr(want, name)

    def test_save_leaves_the_callers_stores_as_they_were(self, tmp_path):
        trace = _generate_trace(STRONG_SCALING["gr"], 1.0, 0.125, 0)
        trace.kernels[0].storing = True
        trace.kernels[0].warps(2)
        save_trace(trace, str(tmp_path / "gr.npz"))
        assert [len(k.store) for k in trace.kernels] == [3] + [0] * (
            len(trace.kernels) - 1
        )
        loaded = load_trace(str(tmp_path / "gr.npz"))
        assert trace_digest(loaded) == trace_digest(trace)

    def test_header_and_arrays_must_agree(self, tmp_path):
        path = str(tmp_path / "gr.npz")
        save_trace(build_trace(STRONG_SCALING["gr"]), path)
        data = dict(np.load(path))
        data["cta_warp_counts"] = data["cta_warp_counts"][:-1]
        bad = str(tmp_path / "bad.npz")
        np.savez_compressed(bad, **data)
        with pytest.raises(TraceError, match="CTAs"):
            load_trace(bad)
