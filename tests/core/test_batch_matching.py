"""Batch/loop equivalence of the matching layer.

The per-frame ``match`` path is a thin wrapper over ``match_batch``; these
tests pin the batch kernels to an explicit per-frame reference computation
(re-implementing the original loop semantics), so a regression in the
broadcasting cannot hide behind the wrapper.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.matching as matching
from repro.core.fingerprint import FingerprintMatrix
from repro.core.matching import (
    BatchMatchResult,
    KnnMatcher,
    NearestNeighborMatcher,
    ProbabilisticMatcher,
)
from repro.core.multi_target import MultiTargetMatcher
from repro.sim.geometry import Grid, Room


@pytest.fixture()
def grid():
    return Grid(Room(3.0, 2.4), 0.6)  # 5 x 4 = 20 cells


@pytest.fixture()
def fingerprint(grid):
    rng = np.random.default_rng(7)
    values = rng.normal(-50.0, 6.0, size=(8, grid.cell_count))
    return FingerprintMatrix(values=values, empty_rss=np.full(8, -44.0))


@pytest.fixture()
def frames(fingerprint):
    rng = np.random.default_rng(11)
    return rng.normal(-50.0, 6.0, size=(40, fingerprint.link_count))


def reference_euclidean_distances(values, vector):
    deltas = values - vector[:, None]
    return np.sqrt(np.sum(deltas**2, axis=0))


class TestNearestNeighborBatch:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_batch_equals_per_frame_reference(self, fingerprint, grid, frames, metric):
        matcher = NearestNeighborMatcher(fingerprint, grid, metric=metric)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            deltas = fingerprint.values - frame[:, None]
            if metric == "euclidean":
                distances = np.sqrt(np.sum(deltas**2, axis=0))
            else:
                distances = np.sum(np.abs(deltas), axis=0)
            assert batch.cells[index] == np.argmin(distances)
            # The batch kernel computes euclidean distances via the Gram
            # expansion (BLAS matmul), so agreement is tight-tolerance
            # rather than bitwise.
            np.testing.assert_allclose(
                batch.scores[index], -distances, rtol=1e-9, atol=1e-9
            )
            center = grid.center_of(int(batch.cells[index]))
            np.testing.assert_array_equal(
                batch.positions[index], [center.x, center.y]
            )

    def test_match_is_wrapper_over_batch(self, fingerprint, grid, frames):
        matcher = NearestNeighborMatcher(fingerprint, grid)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            single = matcher.match(frame)
            assert single.cell == batch.cells[index]
            # BLAS accumulates a batch-of-one and a row of a batch-of-N in
            # different orders, so scores agree to tolerance, not bitwise.
            np.testing.assert_allclose(
                single.scores, batch.scores[index], rtol=1e-9, atol=1e-9
            )

    def test_dips_mode_batch(self, fingerprint, grid, frames):
        live_empty = fingerprint.empty_rss + 1.5
        matcher = NearestNeighborMatcher(
            fingerprint, grid, use_dips=True, live_empty_rss=live_empty
        )
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            assert matcher.match(frame).cell == batch.cells[index]

    def test_frame_shape_validated(self, fingerprint, grid, frames):
        matcher = NearestNeighborMatcher(fingerprint, grid)
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(frames[:, :-1])
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(frames[0])

    def test_chunked_scoring_identical(self, fingerprint, grid, frames, monkeypatch):
        # Manhattan is the metric that takes the chunked delta-tensor path.
        matcher = NearestNeighborMatcher(fingerprint, grid, metric="manhattan")
        full = matcher.match_batch(frames)
        # Force the blocked code path: at most ~1 frame per chunk.
        monkeypatch.setattr(matching, "_BLOCK_ELEMENTS", 1)
        chunked = matcher.match_batch(frames)
        np.testing.assert_array_equal(full.cells, chunked.cells)
        np.testing.assert_array_equal(full.scores, chunked.scores)


class TestKnnBatch:
    def test_batch_equals_per_frame_reference(self, fingerprint, grid, frames):
        matcher = KnnMatcher(fingerprint, grid, k=3)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            distances = reference_euclidean_distances(fingerprint.values, frame)
            order = np.argsort(distances)[:3]
            weights = 1.0 / (distances[order] + matcher.epsilon)
            weights = weights / weights.sum()
            xs = [grid.center_of(int(c)).x for c in order]
            ys = [grid.center_of(int(c)).y for c in order]
            assert batch.cells[index] == order[0]
            np.testing.assert_allclose(
                batch.positions[index],
                [np.dot(weights, xs), np.dot(weights, ys)],
                rtol=1e-10,
            )

    def test_k_equal_cell_count(self, fingerprint, grid, frames):
        matcher = KnnMatcher(fingerprint, grid, k=grid.cell_count)
        batch = matcher.match_batch(frames[:5])
        for index in range(5):
            distances = reference_euclidean_distances(
                fingerprint.values, frames[index]
            )
            assert batch.cells[index] == np.argmin(distances)


class TestProbabilisticBatch:
    def test_log_likelihoods_batch_matches_reference(
        self, fingerprint, grid, frames
    ):
        matcher = ProbabilisticMatcher(fingerprint, grid, sigma_db=2.5)
        batch = matcher.log_likelihoods_batch(frames)
        for index, frame in enumerate(frames):
            deltas = fingerprint.values - frame[:, None]
            reference = -0.5 * np.sum(deltas**2, axis=0) / 2.5**2
            np.testing.assert_allclose(
                batch[index], reference, rtol=1e-9, atol=1e-9
            )

    def test_posterior_batch_rows_normalized(self, fingerprint, grid, frames):
        matcher = ProbabilisticMatcher(fingerprint, grid)
        posteriors = matcher.posterior_batch(frames)
        np.testing.assert_allclose(posteriors.sum(axis=1), 1.0)
        for index, frame in enumerate(frames):
            np.testing.assert_allclose(
                posteriors[index], matcher.posterior(frame), rtol=1e-8, atol=1e-15
            )

    def test_match_batch_cells(self, fingerprint, grid, frames):
        matcher = ProbabilisticMatcher(fingerprint, grid)
        batch = matcher.match_batch(frames)
        for index, frame in enumerate(frames):
            assert batch.cells[index] == matcher.match(frame).cell


class TestBatchMatchResult:
    def test_sequence_protocol(self, fingerprint, grid, frames):
        batch = NearestNeighborMatcher(fingerprint, grid).match_batch(frames)
        assert isinstance(batch, BatchMatchResult)
        assert len(batch) == len(frames)
        assert batch.frame_count == len(frames)
        collected = list(batch)
        assert len(collected) == len(frames)
        assert collected[3].cell == batch.cells[3]
        assert batch[-1].cell == batch.cells[-1]
        sliced = batch[1:4]
        assert [r.cell for r in sliced] == list(batch.cells[1:4])
        with pytest.raises(IndexError):
            batch[len(frames)]

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="positions"):
            BatchMatchResult(
                cells=np.zeros(3, dtype=int),
                positions=np.zeros((2, 2)),
                scores=np.zeros((3, 5)),
            )
        with pytest.raises(ValueError, match="scores"):
            BatchMatchResult(
                cells=np.zeros(3, dtype=int),
                positions=np.zeros((3, 2)),
                scores=np.zeros((2, 5)),
            )


class TestMultiTargetBatch:
    def test_match_batch_equals_per_frame(self, fingerprint, grid, frames):
        matcher = MultiTargetMatcher(fingerprint, grid, prune_keep=8)
        results = matcher.match_batch(frames[:10])
        assert len(results) == 10
        for frame, batched in zip(frames[:10], results):
            single = matcher.match(frame)
            assert batched.count == single.count
            assert batched.cells == single.cells
            assert batched.residual == pytest.approx(single.residual)

    def test_frames_validated(self, fingerprint, grid):
        matcher = MultiTargetMatcher(fingerprint, grid)
        with pytest.raises(ValueError, match="frames shape"):
            matcher.match_batch(np.zeros((4, 3)))

    def test_row_sweep_pair_search_matches_broadcast(
        self, fingerprint, grid, frames, monkeypatch
    ):
        import repro.core.multi_target as multi_target

        matcher = MultiTargetMatcher(fingerprint, grid, prune_keep=None)
        broadcast = [matcher.match(frame) for frame in frames[:6]]
        # Force the memory-bounded row-at-a-time path.
        monkeypatch.setattr(multi_target, "_PAIR_BLOCK_ELEMENTS", 1)
        swept = [matcher.match(frame) for frame in frames[:6]]
        for a, b in zip(broadcast, swept):
            assert a.cells == b.cells
            assert a.residual == pytest.approx(b.residual)

    def test_pruned_pair_search_matches_exhaustive(self, fingerprint, grid):
        rng = np.random.default_rng(3)
        dips = fingerprint.dips()
        frame = fingerprint.empty_rss - (
            dips[:, 4] + dips[:, 17] + rng.normal(0, 0.05, fingerprint.link_count)
        )
        exhaustive = MultiTargetMatcher(fingerprint, grid, prune_keep=None)
        assert exhaustive.match(frame).cells == (4, 17)


class TestPipelineBatch:
    def test_localize_trace_consistent_with_localize(self, paper_scenario):
        from repro.core.pipeline import TafLoc
        from repro.sim.collector import CollectionProtocol, RssCollector

        protocol = CollectionProtocol(samples_per_cell=5, empty_room_samples=8)
        system = TafLoc(RssCollector(paper_scenario, protocol, seed=1), seed=2)
        system.commission(0.0)
        trace = RssCollector(paper_scenario, protocol, seed=3).live_trace(
            0.0, [5, 20, 60, 90]
        )
        batch = system.localize_trace(trace)
        assert isinstance(batch, BatchMatchResult)
        for index in range(trace.frame_count):
            single = system.localize(trace.rss[index], 0.0)
            assert batch[index].cell == single.cell
            np.testing.assert_allclose(
                [batch[index].position.x, batch[index].position.y],
                [single.position.x, single.position.y],
                rtol=1e-9,
                atol=1e-9,
            )
        errors = system.localization_errors(trace)
        assert errors.shape == (trace.frame_count,)
        reference = [
            batch[i].position.distance_to(
                type(batch[i].position)(*trace.true_positions[i])
            )
            for i in range(trace.frame_count)
        ]
        np.testing.assert_allclose(errors, reference, rtol=1e-12)


# ----------------------------------------------------------------------
# Frozen reference: the matching kernels as they stood before per-epoch
# norms, in-place row blocks and the one-row branch. Every matcher must
# stay bit-identical to them for every batch shape.
# ----------------------------------------------------------------------
def frozen_distances(frames, templates, metric="euclidean"):
    squared = np.sum(frames**2, axis=1)[:, None] - 2.0 * (frames @ templates)
    squared += np.sum(templates**2, axis=0)[None, :]
    np.maximum(squared, 0.0, out=squared)
    if metric == "sqeuclidean":
        return squared
    return np.sqrt(squared, out=squared)


def frozen_knn(frames, templates, centers, k, epsilon):
    distances = frozen_distances(frames, templates)
    if k < distances.shape[1]:
        nearest = np.argpartition(distances, k, axis=1)[:, :k]
        order_in_block = np.argsort(
            np.take_along_axis(distances, nearest, axis=1), axis=1
        )
        order = np.take_along_axis(nearest, order_in_block, axis=1)
    else:
        order = np.argsort(distances, axis=1)[:, :k]
    best_distances = np.take_along_axis(distances, order, axis=1)
    weights = 1.0 / (best_distances + epsilon)
    weights = weights / weights.sum(axis=1, keepdims=True)
    positions = np.einsum("fk,fkd->fd", weights, centers[order])
    return order[:, 0], positions, -distances


def frozen_nearest(frames, templates, centers, live_empty=None):
    if live_empty is not None:
        frames = live_empty[None, :] - frames
    distances = frozen_distances(frames, templates)
    cells = np.argmin(distances, axis=1)
    return cells, centers[cells], -distances


def frozen_posterior(frames, templates, sigma_db, prior):
    squared = frozen_distances(frames, templates, "sqeuclidean")
    log_like = -0.5 * squared / sigma_db**2 + np.log(prior)[None, :]
    log_like -= log_like.max(axis=1, keepdims=True)
    weights = np.exp(log_like)
    return weights / weights.sum(axis=1, keepdims=True)


def assert_bitwise(result, cells, positions, scores):
    np.testing.assert_array_equal(result.cells, cells)
    # array_equal treats -0.0 == 0.0; compare the raw bits as well.
    assert result.positions.tobytes() == np.asarray(positions).tobytes()
    assert result.scores.tobytes() == np.asarray(scores).tobytes()


@st.composite
def matching_cases(draw):
    """A fingerprint with whole-dB RSS (so exact ties occur), some template
    columns duplicated (pinning tie-breaking), and a batch of frames."""
    columns = draw(st.integers(1, 9))
    rows = draw(st.integers(1, 9))
    grid = Grid(Room(0.5 * columns, 0.5 * rows), 0.5)
    cells = grid.cell_count
    links = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(-50.0, 6.0, size=(links, cells)))
    duplicates = draw(st.integers(0, cells - 1))
    if duplicates:
        sources = rng.integers(0, cells, size=duplicates)
        targets = rng.integers(0, cells, size=duplicates)
        values[:, targets] = values[:, sources]
    fingerprint = FingerprintMatrix(
        values=values, empty_rss=np.round(rng.normal(-44.0, 2.0, links))
    )
    count = draw(st.sampled_from([1, 1, 2, 7, 64]) | st.integers(1, 300))
    frames = rng.normal(-50.0, 6.0, size=(count, links))
    if draw(st.booleans()):
        frames = np.round(frames)
    if draw(st.booleans()):
        # Frames equal to template columns: zero distances, exact ties.
        frames[: min(count, cells)] = values[:, : min(count, cells)].T
    # Row blocks: the default, and blocks small enough to split the batch.
    block = draw(
        st.sampled_from([matching._ROW_BLOCK_ELEMENTS, 1, cells, 3 * cells + 1])
    )
    return grid, fingerprint, frames, block


def _blocks(block):
    return mock.patch.object(matching, "_ROW_BLOCK_ELEMENTS", block)


def _ks(cells):
    return sorted({k for k in (1, 3, cells - 1, cells) if 1 <= k <= cells})


class TestFrozenReference:
    @given(case=matching_cases())
    @example(
        case=(
            Grid(Room(3.0, 2.4), 0.6),
            FingerprintMatrix(
                values=np.zeros((2, 20)), empty_rss=np.full(2, -44.0)
            ),
            np.zeros((5, 2)),
            matching._ROW_BLOCK_ELEMENTS,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_knn_bit_identical(self, case):
        grid, fingerprint, frames, block = case
        centers = grid.centers_array()
        for k in _ks(grid.cell_count):
            matcher = KnnMatcher(fingerprint, grid, k=k)
            with _blocks(block):
                batch = matcher.match_batch(frames)
            assert_bitwise(
                batch, *frozen_knn(frames, fingerprint.values, centers, k, 1e-6)
            )
            one = matcher.match_batch(frames[:1])
            assert_bitwise(
                one, *frozen_knn(frames[:1], fingerprint.values, centers, k, 1e-6)
            )
            single = matcher.match(frames[0])
            assert single.cell == one.cells[0]
            assert single.position == one[0].position
            assert single.scores.tobytes() == one.scores[0].tobytes()

    @given(case=matching_cases(), dips=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_nearest_neighbor_bit_identical(self, case, dips):
        grid, fingerprint, frames, block = case
        centers = grid.centers_array()
        live_empty = fingerprint.empty_rss + 1.5 if dips else None
        matcher = NearestNeighborMatcher(
            fingerprint, grid, use_dips=dips, live_empty_rss=live_empty
        )
        templates = fingerprint.dips() if dips else fingerprint.values
        for rows in (frames, frames[:1]):
            with _blocks(block):
                batch = matcher.match_batch(rows)
            assert_bitwise(
                batch, *frozen_nearest(rows, templates, centers, live_empty)
            )
        single = matcher.match(frames[0])
        one = matcher.match_batch(frames[:1])
        assert single.cell == one.cells[0]
        assert single.scores.tobytes() == one.scores[0].tobytes()

    @given(case=matching_cases(), sigma_db=st.sampled_from([0.5, 2.0, 7.3]))
    @settings(max_examples=100, deadline=None)
    def test_probabilistic_bit_identical(self, case, sigma_db):
        grid, fingerprint, frames, block = case
        centers = grid.centers_array()
        prior = np.random.default_rng(0).random(grid.cell_count) + 0.1
        matcher = ProbabilisticMatcher(
            fingerprint, grid, sigma_db=sigma_db, prior=prior
        )
        for rows in (frames, frames[:1]):
            reference = frozen_posterior(
                rows, fingerprint.values, sigma_db, prior / prior.sum()
            )
            with _blocks(block):
                posteriors = matcher.posterior_batch(rows)
                batch = matcher.match_batch(rows)
            assert posteriors.tobytes() == reference.tobytes()
            cells = np.argmax(reference, axis=1)
            assert_bitwise(
                batch, cells, centers[cells], np.log(reference + 1e-300)
            )
        assert (
            matcher.posterior(frames[0]).tobytes()
            == matcher.posterior_batch(frames[:1])[0].tobytes()
        )
        single = matcher.match(frames[0])
        assert single.scores.tobytes() == (
            matcher.match_batch(frames[:1]).scores[0].tobytes()
        )
