"""Fingerprint matching: estimate the target cell from a live RSS vector.

After reconstruction, "the real-time RSS measurements are collected as
``Y = (y_i)_{M×1}``; then the target location can be estimated by matching
``Y`` with ``X``" (paper, end of section 2). Three matchers are provided:

* :class:`NearestNeighborMatcher` — argmin over columns of a distance between
  ``Y`` and ``x_j`` (Euclidean by default). The baseline rule.
* :class:`KnnMatcher` — distance-weighted average of the K best cells'
  centers; returns sub-grid ("fine-grained") positions.
* :class:`ProbabilisticMatcher` — Gaussian likelihood per cell with a noise
  scale, returning a posterior over cells; composes with the particle-filter
  tracker.

All matchers consume a :class:`~repro.core.fingerprint.FingerprintMatrix`
and a grid so they can translate cells to coordinates.

The primitive operation is :meth:`Matcher.match_batch`: an entire
``(frames, links)`` trace is scored against every grid cell with one
``frames @ templates`` GEMM, which is what gives trace-level localization
its throughput (see ``benchmarks/bench_perf.py``). Per-frame
:meth:`Matcher.match` is a thin single-row wrapper around it.

Everything constant per epoch (the template matrix and its squared
column norms) is computed once when a matcher is built; matchers are
cached per epoch by :meth:`repro.core.pipeline.TafLoc.matcher_for_day`.
The GEMM output is the only ``(frames, cells)`` buffer: distances are
finished in place on it in cache-sized row blocks, and it is returned,
negated, as the scores. A one-row batch (the single-query path) takes a
1-D branch of the same arithmetic, which skips the per-call overhead of
2-D indexing. Every path gives the same bits as the straightforward
expression evaluated with fresh temporaries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.core.fingerprint import FingerprintMatrix
from repro.sim.geometry import Grid, Point
from repro.util.validation import check_positive

#: Cap on the elements of one broadcasted (frames, links, cells) distance
#: block; larger traces are scored in frame chunks to bound peak memory.
_BLOCK_ELEMENTS = 4_000_000

#: Elements of one row block of the ``(frames, cells)`` distance buffer.
#: A block (256 KB of float64, plus as much again of argpartition
#: indices) is finished, selected and negated while it stays in L2.
_ROW_BLOCK_ELEMENTS = 32_768


def _column_norms(templates: np.ndarray) -> np.ndarray:
    """Squared column norms ``||t_j||²``, a per-epoch constant."""
    return np.sum(templates**2, axis=0)


def _finish_euclidean(
    gram: np.ndarray, frames: np.ndarray, norms: np.ndarray, squared: bool
) -> np.ndarray:
    """Turn ``gram = frames @ templates`` into distances, in place.

    Works on one frame (``gram`` of shape ``(cells,)``) or a row block
    (``(rows, cells)``). The Gram expansion ``||f||² - 2 f·t + ||t||²``
    is evaluated in that order, so the bits equal the expression written
    out with fresh temporaries.
    """
    gram *= -2.0
    gram += np.add.reduce(np.square(frames), axis=-1, keepdims=True)
    gram += norms
    np.maximum(gram, 0.0, out=gram)
    if not squared:
        np.sqrt(gram, out=gram)
    return gram


def _block_rows(cells: int) -> int:
    return max(1, _ROW_BLOCK_ELEMENTS // cells)


@dataclass(frozen=True)
class MatchResult:
    """A localization estimate.

    Attributes:
        cell: Most likely grid cell.
        position: Estimated coordinates (may be off-center for KNN).
        scores: Per-cell score; higher is better (negated distance or
            log-likelihood, matcher-dependent).
    """

    cell: int
    position: Point
    scores: np.ndarray


@dataclass(frozen=True)
class BatchMatchResult:
    """Localization estimates for a whole trace.

    Behaves as a sequence of :class:`MatchResult` (indexing, iteration,
    ``len``) while storing everything columnar, so batch consumers can work
    on the arrays directly without re-boxing frames.

    Attributes:
        cells: Most likely grid cell per frame, shape ``(frames,)``.
        positions: Estimated coordinates per frame, shape ``(frames, 2)``.
        scores: Per-(frame, cell) score, shape ``(frames, cells)``; higher
            is better, same convention as :class:`MatchResult`.
    """

    cells: np.ndarray
    positions: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=int)
        positions = np.asarray(self.positions, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        if positions.shape != (len(cells), 2):
            raise ValueError(
                f"positions shape {positions.shape} must be ({len(cells)}, 2)"
            )
        if scores.shape[0] != len(cells):
            raise ValueError(
                f"scores cover {scores.shape[0]} frames, expected {len(cells)}"
            )
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "scores", scores)

    @property
    def frame_count(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return self.frame_count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self.frame_count))]
        if not -self.frame_count <= index < self.frame_count:
            raise IndexError(f"frame {index} out of range [0, {self.frame_count})")
        return MatchResult(
            cell=int(self.cells[index]),
            position=Point(
                float(self.positions[index, 0]), float(self.positions[index, 1])
            ),
            scores=self.scores[index],
        )

    def __iter__(self) -> Iterator[MatchResult]:
        for index in range(self.frame_count):
            yield self[index]


class Matcher(abc.ABC):
    """Interface of fingerprint matchers."""

    def __init__(self, fingerprint: FingerprintMatrix, grid: Grid) -> None:
        if fingerprint.cell_count != grid.cell_count:
            raise ValueError(
                f"fingerprint covers {fingerprint.cell_count} cells, grid has "
                f"{grid.cell_count}"
            )
        self.fingerprint = fingerprint
        self.grid = grid
        self._centers = grid.centers_array()

    @abc.abstractmethod
    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        """Estimate target locations for a whole ``(frames, links)`` trace."""

    def match(self, live_rss: np.ndarray) -> MatchResult:
        """Estimate the target location from one live RSS vector."""
        return self.match_batch(self._as_row(live_rss))[0]

    def _as_row(self, live_rss: np.ndarray) -> np.ndarray:
        """One live vector, converted once, as a one-row batch."""
        vector = np.asarray(live_rss, dtype=float)
        if vector.shape != (self.fingerprint.link_count,):
            raise ValueError(
                f"live vector shape {vector.shape} must be "
                f"({self.fingerprint.link_count},)"
            )
        return vector[None, :]

    def _check_frames(self, frames: np.ndarray) -> np.ndarray:
        array = np.asarray(frames, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.fingerprint.link_count:
            raise ValueError(
                f"frames shape {array.shape} must be "
                f"(n_frames, {self.fingerprint.link_count})"
            )
        return array

    def _distances_batch(
        self,
        frames: np.ndarray,
        templates: np.ndarray,
        norms: Optional[np.ndarray] = None,
        metric: str = "euclidean",
    ) -> np.ndarray:
        """``(frames, cells)`` distances between rows and template columns.

        Euclidean distances go through the Gram expansion
        ``||f - t||² = ||f||² - 2 f·t + ||t||²`` so the inner product runs
        as one BLAS matmul — an order of magnitude faster than
        materializing the ``(frames, links, cells)`` delta tensor, at the
        cost of ~1e-12 relative rounding versus the direct form. ``norms``
        holds the ``||t||²`` column norms, computed once per epoch by the
        matcher; the matmul output is finished in place in row blocks
        (:func:`_finish_euclidean`); a single 1-D ``frames`` vector (the
        one-row branch of :meth:`KnnMatcher.match_batch`) takes the same
        arithmetic on a 1-D buffer. Manhattan distances have no such
        factorization and broadcast the delta tensor in frame chunks to
        bound peak memory.
        """
        if metric in ("euclidean", "sqeuclidean"):
            squared = metric == "sqeuclidean"
            distances = frames @ templates
            if distances.ndim == 1:
                return _finish_euclidean(distances, frames, norms, squared)
            rows = _block_rows(templates.shape[1])
            for start in range(0, len(frames), rows):
                _finish_euclidean(
                    distances[start : start + rows],
                    frames[start : start + rows],
                    norms,
                    squared,
                )
            return distances
        count, links = frames.shape
        cells = templates.shape[1]
        block = max(1, _BLOCK_ELEMENTS // max(1, links * cells))
        out = np.empty((count, cells))
        for start in range(0, count, block):
            stop = min(count, start + block)
            deltas = templates[None, :, :] - frames[start:stop, :, None]
            out[start:stop] = np.sum(np.abs(deltas), axis=1)
        return out


class NearestNeighborMatcher(Matcher):
    """Nearest column in Euclidean (or Manhattan) distance.

    ``use_dips=True`` matches on attenuation relative to the empty room
    instead of absolute dBm, which cancels any residual common drift between
    the fingerprint's calibration and the live measurement; it requires the
    caller to supply the live empty-room RSS estimate.
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        metric: str = "euclidean",
        use_dips: bool = False,
        live_empty_rss: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(fingerprint, grid)
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        self.metric = metric
        self.use_dips = use_dips
        if use_dips:
            empty = (
                fingerprint.empty_rss if live_empty_rss is None else np.asarray(
                    live_empty_rss, dtype=float
                )
            )
            if empty.shape != (fingerprint.link_count,):
                raise ValueError(
                    f"live_empty_rss shape {empty.shape} must be "
                    f"({fingerprint.link_count},)"
                )
            self._live_empty = empty
            self._templates = fingerprint.dips()
        else:
            self._live_empty = None
            self._templates = fingerprint.values
        self._norms = (
            _column_norms(self._templates) if metric == "euclidean" else None
        )

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        vectors = self._check_frames(frames)
        if self.use_dips:
            vectors = self._live_empty[None, :] - vectors
        distances = self._distances_batch(
            vectors, self._templates, self._norms, self.metric
        )
        cells = np.argmin(distances, axis=1)
        return BatchMatchResult(
            cells=cells,
            positions=self._centers[cells],
            scores=np.negative(distances, out=distances),
        )


class KnnMatcher(Matcher):
    """K nearest columns, inverse-distance-weighted centroid of their cells.

    This is what makes the estimate "fine-grained": the returned position
    interpolates between grid centers, so error is not floored at half a
    cell diagonal.
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        k: int = 3,
        epsilon: float = 1e-6,
    ) -> None:
        super().__init__(fingerprint, grid)
        if not 1 <= k <= fingerprint.cell_count:
            raise ValueError(
                f"k must lie in [1, {fingerprint.cell_count}], got {k}"
            )
        check_positive("epsilon", epsilon)
        self.k = k
        self.epsilon = epsilon
        self._templates = fingerprint.values
        self._norms = _column_norms(self._templates)

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        vectors = self._check_frames(frames)
        if len(vectors) == 1:
            return self._match_row(vectors[0])
        # One GEMM over the whole batch: its bits depend on the row count,
        # so it is never split. Everything after it runs per row block.
        distances = vectors @ self._templates
        (count, cells), k = distances.shape, self.k
        rows = _block_rows(cells)
        order = np.empty((count, k), dtype=np.intp)
        best = np.empty((count, k))
        for start in range(0, count, rows):
            stop = start + rows
            block = _finish_euclidean(
                distances[start:stop], vectors[start:stop], self._norms, False
            )
            if k < cells:
                nearest = np.argpartition(block, k, axis=1)[:, :k]
                # argpartition leaves the k winners unordered; order them so
                # the reported best cell matches the argsort convention.
                within = np.argsort(
                    np.take_along_axis(block, nearest, axis=1), axis=1
                )
                order[start:stop] = np.take_along_axis(nearest, within, axis=1)
            else:
                order[start:stop] = np.argsort(block, axis=1)[:, :k]
            best[start:stop] = np.take_along_axis(
                block, order[start:stop], axis=1
            )
            np.negative(block, out=block)
        return BatchMatchResult(
            cells=order[:, 0],
            positions=self._weighted_positions(order, best),
            scores=distances,
        )

    def _match_row(self, vector: np.ndarray) -> BatchMatchResult:
        """The one-row batch: the same arithmetic on 1-D buffers."""
        distances = self._distances_batch(vector, self._templates, self._norms)
        # Array methods and plain indexing: the same kernels as the 2-D
        # path without the per-call cost of the np.* wrappers.
        if self.k < distances.shape[0]:
            nearest = distances.argpartition(self.k)[: self.k]
            order = nearest[distances[nearest].argsort()]
        else:
            order = distances.argsort()[: self.k]
        positions = self._weighted_positions(order, distances[order])
        np.negative(distances, out=distances)
        return BatchMatchResult(
            cells=order[:1], positions=positions[None], scores=distances[None]
        )

    def _weighted_positions(
        self, order: np.ndarray, best: np.ndarray
    ) -> np.ndarray:
        """Inverse-distance-weighted centroids; overwrites ``best``."""
        best += self.epsilon
        weights = np.divide(1.0, best, out=best)
        weights /= np.add.reduce(weights, axis=-1, keepdims=True)
        return np.einsum("...k,...kd->...d", weights, self._centers[order])


class ProbabilisticMatcher(Matcher):
    """Per-cell Gaussian likelihood ``N(Y; x_j, sigma^2 I)``.

    Returns the MAP cell; :meth:`posterior` exposes the normalized posterior
    for consumers that need full uncertainty (e.g. the tracker).
    """

    def __init__(
        self,
        fingerprint: FingerprintMatrix,
        grid: Grid,
        *,
        sigma_db: float = 2.0,
        prior: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(fingerprint, grid)
        check_positive("sigma_db", sigma_db)
        self.sigma_db = sigma_db
        if prior is None:
            prior = np.full(fingerprint.cell_count, 1.0 / fingerprint.cell_count)
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (fingerprint.cell_count,):
            raise ValueError(
                f"prior shape {prior.shape} must be ({fingerprint.cell_count},)"
            )
        if np.any(prior < 0) or prior.sum() <= 0:
            raise ValueError("prior must be non-negative and not all zero")
        self.prior = prior / prior.sum()
        self._norms = _column_norms(fingerprint.values)

    def log_likelihoods_batch(self, frames: np.ndarray) -> np.ndarray:
        """Unnormalized Gaussian log-likelihoods, shape ``(frames, cells)``."""
        vectors = self._check_frames(frames)
        squared = self._distances_batch(
            vectors, self.fingerprint.values, self._norms, "sqeuclidean"
        )
        squared *= -0.5
        squared /= self.sigma_db**2
        return squared

    def log_likelihoods(self, live_rss: np.ndarray) -> np.ndarray:
        """Unnormalized per-cell Gaussian log-likelihoods."""
        return self.log_likelihoods_batch(self._as_row(live_rss))[0]

    def posterior_batch(self, frames: np.ndarray) -> np.ndarray:
        """Normalized per-frame posteriors, shape ``(frames, cells)``."""
        log_like = self.log_likelihoods_batch(frames)
        log_like += np.log(self.prior)[None, :]
        log_like -= log_like.max(axis=1, keepdims=True)
        weights = np.exp(log_like, out=log_like)
        weights /= weights.sum(axis=1, keepdims=True)
        return weights

    def posterior(self, live_rss: np.ndarray) -> np.ndarray:
        """Normalized posterior over cells given the live vector."""
        return self.posterior_batch(self._as_row(live_rss))[0]

    def match_batch(self, frames: np.ndarray) -> BatchMatchResult:
        posteriors = self.posterior_batch(frames)
        cells = np.argmax(posteriors, axis=1)
        return BatchMatchResult(
            cells=cells,
            positions=self._centers[cells],
            scores=np.log(posteriors + 1e-300),
        )


def expected_position(posterior: np.ndarray, grid: Grid) -> Point:
    """Posterior-mean position (used by the tracker and examples)."""
    posterior = np.asarray(posterior, dtype=float)
    if posterior.shape != (grid.cell_count,):
        raise ValueError(
            f"posterior shape {posterior.shape} must be ({grid.cell_count})"
        )
    total = posterior.sum()
    if total <= 0:
        raise ValueError("posterior sums to zero")
    centers = grid.centers_array()
    return Point(
        float(posterior @ centers[:, 0] / total),
        float(posterior @ centers[:, 1] / total),
    )
