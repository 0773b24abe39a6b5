"""Invariant boundary measure, its sampler, volumes, preservation tests.

The boundary measure has density cos(angle to the inward normal) against
the product of boundary area and direction measure, restricted to inward
hemispheres.  Its total mass is the volume of the trajectory space,
vol(B^{n-1}) * vol(boundary).  Sampling is exact: boundary points come from
per-piece area samplers and directions from lifting a uniform point of the
equatorial unit ball to the hemisphere.  Each sample keeps its piece and
inward normal, and its first chord takes them as carried boundary state.
Phase-box coordinates come from the table's boundary-geometry step, so a
row off the boundary has NaN coordinates and lies in no box.  The
preservation test derives them twice per block, for the entries and their
images, and every box tests those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import billiard_batch
from .errors import ConfigError, DegenerateSet
from .parallel import block_counts, run_blocks

__all__ = [
    "Estimate", "WeightedSampleSet", "PhaseBox", "phase_coordinates",
    "sample_mu_theta", "trajectory_space_volume", "domain_volumes",
    "measure_preservation_test", "unit_ball_volume", "unit_sphere_volume",
    "random_phase_boxes", "boundary_rng", "boundary_points", "sample_blocks", "merge_blocks",
]


def unit_ball_volume(k):
    """Euclidean volume of the unit ball B^k (B^0 is a point of volume 1)."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def unit_sphere_volume(k):
    """Euclidean k-volume of the unit sphere S^k in R^{k+1}."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


# ---------------------------------------------------------------------------
# Mergeable Monte Carlo estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Mean, spread, and sample count of a Monte Carlo statistic.

    Internally carries the sum of squared deviations (m2), so merging two
    estimates pools mean and variance exactly (Chan's parallel update).
    """

    mean: float
    count: int
    m2: float = 0.0

    @property
    def stderr(self):
        if self.count < 2:
            return float("inf") if self.count else float("nan")
        return math.sqrt(self.m2 / (self.count - 1) / self.count)

    @staticmethod
    def from_samples(x):
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            return Estimate(mean=float("nan"), count=0, m2=0.0)
        mean = float(np.mean(x))
        return Estimate(mean=mean, count=int(x.size), m2=float(np.sum((x - mean) ** 2)))

    def merge(self, other):
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = (self.count * self.mean + other.count * other.mean) / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return Estimate(mean=mean, count=n, m2=m2)

    def scaled(self, factor):
        """Estimate of factor * X."""
        return Estimate(mean=self.mean * factor, count=self.count, m2=self.m2 * factor * factor)

    @staticmethod
    def merge_all(estimates):
        out = Estimate(mean=0.0, count=0, m2=0.0)
        for e in estimates:
            out = out.merge(e)
        return out


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def boundary_rng(seed, stream=0):
    """Counter-based generator for (seed, stream) pairs; streams are disjoint."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


@dataclass
class WeightedSampleSet:
    """Entry phase points distributed according to the boundary measure: per row
    the piece index, position, direction, g-unit inward normal and incidence
    cosine, and the fraction of directions drawn again for lying in the grazing
    band.  Their total mass is `trajectory_space_volume(table)`."""

    q: np.ndarray
    v: np.ndarray
    piece: np.ndarray
    cos_in: np.ndarray
    resampled_fraction: float
    normal: np.ndarray

    def __len__(self):
        return self.q.shape[0]


def _lift_directions(space, q, normals, rng, gtol):
    """Cosine-distributed inward unit directions at boundary points."""
    dim = space.dim
    frame = space.tangent_frame(q, normals)         # (N, dim-1, cd)
    out, todo, resampled = None, slice(None), 0     # the first draw takes every row, ungathered
    while out is None or todo.size:
        m = q.shape[0] if out is None else todo.size
        if dim == 2:
            u = rng.uniform(-1.0, 1.0, (m, 1))
        else:
            r = np.sqrt(rng.uniform(0.0, 1.0, m))
            phi = rng.uniform(0.0, 2.0 * np.pi, m)
            u = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1)
        u2 = np.sum(u * u, axis=1)
        cos = np.sqrt(np.maximum(1.0 - u2, 0.0))
        vec = cos[:, None] * normals[todo]
        for j in range(dim - 1):
            vec = vec + u[:, j:j + 1] * frame[todo, j]
        ok = cos > gtol
        if out is None:
            out, todo = vec, np.flatnonzero(~ok)
        else:
            out[todo[ok]] = vec[ok]
            todo = todo[~ok]
        resampled += int(np.sum(~ok))
    return out, resampled


def boundary_points(table, count, rng):
    """Boundary points weighted by area: piece index, chart position, inward normal."""
    space = table.space
    weights = np.array([p.boundary_volume(space) for p in table.pieces])
    probs = weights / np.sum(weights)
    piece_idx = rng.choice(len(table.pieces), size=count, p=probs)
    q = np.empty((count, space.chart_dim))
    for k, piece in enumerate(table.pieces):
        mask = piece_idx == k
        m = int(np.sum(mask))
        if m:
            q[mask] = piece.sample_boundary(space, rng, m)
    return piece_idx, q, table.inward_normal_at(q, piece_idx)


def sample_mu_theta(table, count, seed, stream=0):
    """Draw `count` inward boundary phase points from the cosine measure."""
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    space = table.space
    rng = boundary_rng(seed, stream)
    piece_idx, q, normals = boundary_points(table, count, rng)
    v, resampled = _lift_directions(space, q, normals, rng, table.tol.grazing_tol)
    cos_in = space.metric_dot(q, v, normals)
    return WeightedSampleSet(q=q, v=v, piece=piece_idx.astype(np.int64), cos_in=cos_in,
                             resampled_fraction=resampled / count, normal=normals)


def _sample_block(task):
    block, table, count, seed, stream, args = task
    return block(table, sample_mu_theta(table, count, seed, stream), *args)


def sample_blocks(block, table, count, seed, *args, workers=None):
    """Apply `block(table, samples, *args)` to fixed blocks of measure samples.

    Block b of `parallel.block_counts(count)` draws the stream (seed, b) and
    the partial results come back in block order, so they do not depend on the
    worker count.  A single block draws exactly `sample_mu_theta`'s stream.
    """
    if count < 1:
        raise ConfigError("sample count must be at least 1")
    tasks = [(block, table, c, seed, b, args) for b, c in enumerate(block_counts(count))]
    return run_blocks(_sample_block, tasks, workers)


def merge_blocks(parts):
    """Merge per-block sequences of estimates position by position."""
    return [Estimate.merge_all(column) for column in zip(*parts)]


# ---------------------------------------------------------------------------
# Densities and volumes
# ---------------------------------------------------------------------------


def trajectory_space_volume(table):
    """vol(B^{n-1}) times the g-volume of the boundary."""
    space = table.space
    vol_dm = sum(p.boundary_volume(space) for p in table.pieces)
    return unit_ball_volume(space.dim - 1) * vol_dm


@dataclass(frozen=True)
class DomainVolumes:
    vol_m: float
    vol_dm: float


def domain_volumes(table):
    """g-volumes of the domain and its boundary.

    Closed form: every piece reports the volume it encloses (balls, sphere
    caps, Fourier walls), and a torus domain is its cell less its obstacles.
    """
    space = table.space
    vol_dm = float(sum(p.boundary_volume(space) for p in table.pieces))
    vol = float(np.prod(space.periods)) if table.outer is None else 0.0
    for p in table.pieces:
        vol += p.domain_volume(space) if p is table.outer else -p.domain_volume(space)
    return DomainVolumes(vol_m=vol, vol_dm=vol_dm)


# ---------------------------------------------------------------------------
# Phase-space boxes and measure preservation
# ---------------------------------------------------------------------------


def phase_coordinates(table, q, v, piece=None, normal=None):
    """What `PhaseBox.test` reads, computed once for any number of boxes: per row,
    the piece (-1 off the boundary), the boundary angle and signed incidence angle
    (None unless n = 2) and the incidence cosine, with NaN angles and cosines off
    the boundary.  `piece` and `normal` carry what the hit at q found; unset, they
    are derived from q."""
    space = table.space
    q, v = np.atleast_2d(q), np.atleast_2d(v)
    piece, normal, cos = table._boundary_geometry(q, v, piece, normal)
    if space.dim != 2:
        return piece, None, None, cos
    angle = table._per_piece("boundary_param", piece, q, np.full(q.shape[0], np.nan))
    sin = space.metric_dot(q, v, space.tangent_frame(q, normal)[:, 0])
    return piece, angle, np.arctan2(sin, cos), cos


@dataclass(frozen=True)
class PhaseBox:
    """Product box in (boundary parameter) x (direction parameter) coordinates.

    boundary: angle interval on the piece.  One of length 2 pi or more covers
    the whole piece; a shorter one is taken modulo 2 pi (lo > hi wraps).
    incidence: signed-angle interval, n = 2 only.  cos_range: interval of
    the incidence cosine, any dimension.  Unset constraints are ignored.  An
    empty interval (lo >= hi, or a boundary arc from an angle to itself)
    raises ConfigError.
    """

    piece: int | None = None
    boundary: tuple | None = None
    incidence: tuple | None = None
    cos_range: tuple | None = None

    def __post_init__(self):
        for name in ("incidence", "cos_range"):
            interval = getattr(self, name)
            if interval is not None and not interval[0] < interval[1]:
                raise ConfigError(f"phase box {name} {tuple(interval)} is empty: it needs lo < hi")
        if self.boundary is not None and self._arc is not None:
            lo, hi = self._arc
            if not (lo < hi or lo > hi):
                raise ConfigError(f"phase box boundary {tuple(self.boundary)} is empty: "
                                  f"it needs lo != hi modulo 2 pi")

    @cached_property
    def _arc(self):
        lo, hi = self.boundary
        return None if hi - lo >= 2.0 * np.pi else np.mod(self.boundary, 2.0 * np.pi)

    def test(self, coords):
        """Rows of `phase_coordinates` inside the box; rows off the boundary never are."""
        piece, angle, incidence, cos = coords
        keep = piece >= 0 if self.piece is None else piece == self.piece
        if self.boundary is not None:
            if angle is None:
                raise ConfigError("boundary angles need an n = 2 table")
            if self._arc is not None:
                lo, hi = self._arc
                keep &= (angle >= lo) & (angle < hi) if lo <= hi else (angle >= lo) | (angle < hi)
        if self.cos_range is not None:
            keep &= _within(cos, self.cos_range)
        if self.incidence is not None:
            if incidence is None:
                raise ConfigError("signed incidence angles need an n = 2 table")
            keep &= _within(incidence, self.incidence)
        return keep

    def contains(self, table, q, v, piece_idx=None, normal=None):
        """`test` of the `phase_coordinates` of rows (q, v); `piece_idx` and `normal`
        carry what the hit at q found, and unset they are derived from q."""
        return self.test(phase_coordinates(table, q, v, piece_idx, normal))


def _within(x, interval):
    lo, hi = interval
    return (x >= lo) & (x < hi)


def random_phase_boxes(table, count, rng):
    """Random nondegenerate boxes for preservation testing (n = 2)."""
    if table.space.dim != 2:
        raise ConfigError("phase boxes are defined for n = 2 tables only")
    boxes = []
    for _ in range(count):
        piece = int(rng.integers(0, len(table.pieces)))
        a = rng.uniform(0.0, 2.0 * np.pi)
        width = rng.uniform(0.4, 1.6)
        t0 = rng.uniform(-1.2, 0.7)
        tw = rng.uniform(0.25, 0.5)
        boxes.append(PhaseBox(piece=piece, boundary=(a, np.mod(a + width, 2 * np.pi)),
                              incidence=(t0, t0 + tw)))
    return boxes


@dataclass(frozen=True)
class PreservationResult:
    box: PhaseBox
    mu_k: Estimate
    mu_preimage_k: Estimate
    z_score: float
    excluded_fraction: float


def _preservation_block(table, samples, law, boxes):
    """Per box, estimates of 1_K(z) - 1_K(Bz), 1_K(z) and 1_K(Bz) over valid rows."""
    batch, state = billiard_batch(table, law, samples.q, samples.v, samples.piece, samples.normal)
    valid = ~batch.stops
    now = phase_coordinates(table, *(a[valid] for a in (batch.entry_q, batch.entry_v,
                                                        batch.entry_piece, batch.entry_normal)))
    after = state.take(valid)
    nxt = phase_coordinates(table, after.q, after.v, after.piece, after.normal)
    parts = []
    for box in boxes:
        in_now, in_next = box.test(now).astype(float), box.test(nxt).astype(float)
        parts.append([Estimate.from_samples(x) for x in (in_now - in_next, in_now, in_next)])
    return parts


def measure_preservation_test(table, law, boxes, count, seed, workers=None):
    """Compare the measure of each box with the measure of its preimage.

    Both are estimated on the same samples: mu(K) from indicator means at
    entries z, mu(B^{-1}K) from indicators at B(z).  The paired z-score of
    the difference tests the pushforward invariance.
    """
    parts = sample_blocks(_preservation_block, table, count, seed, law, boxes, workers=workers)
    mass = trajectory_space_volume(table)
    results = []
    for j, box in enumerate(boxes):
        diff, now, nxt = merge_blocks(block[j] for block in parts)
        if now.count == 0 or now.mean == 0.0:
            raise DegenerateSet(f"box {box} has empirical measure zero")
        z = 0.0 if diff.stderr == 0.0 else diff.mean / diff.stderr
        results.append(PreservationResult(
            box=box,
            mu_k=now.scaled(mass),
            mu_preimage_k=nxt.scaled(mass),
            z_score=float(z),
            excluded_fraction=1.0 - now.count / count,
        ))
    return results
