"""Birkhoff time averages, space averages, the trapping probe, inequality checks.

Space averages integrate observables of one free chord against the cosine
boundary measure.  Time averages iterate the billiard map and log running
means at powers of two.  For ergodic tables the two agree; the mean free
path additionally matches the closed-form ratio of bulk to boundary volume
scaled by unit-ball constants.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import causality_batch, lockstep_orbits
from .errors import DegenerateSet, EmptySequence, TooManyTrapped
from .lyapunov import delta_F_batch, slice_identity
from .measure import (DomainVolumes, Estimate, domain_volumes, sample_blocks, sample_mu_theta,
                      trajectory_space_volume, unit_ball_volume, unit_sphere_volume)

__all__ = [
    "ChordLength", "DeltaF", "SpaceAverage", "space_average",
    "time_average_many", "mean_free_path", "hear_volume",
    "recurrence_test", "trapping_probe", "inequality_report",
]

_MAX_EXCLUDED = 0.01       # largest excluded sample fraction of a space average
_SLICE_GRID_POINTS = 64    # grid of the inequality report's slice checks
_IDENTITY_TOL = 0.03       # relative gap the slice identity may show there


class ChordLength:
    """Observable: arclength of the free chord."""

    name = "chord-length"

    def values(self, batch):
        return batch.length


class DeltaF:
    """Observable: variation of a Lyapunov function along the chord."""

    name = "delta-F"

    def __init__(self, f):
        self.f = f

    def values(self, batch):
        return delta_F_batch(self.f, batch)


@dataclass(frozen=True, kw_only=True)
class SpaceAverage(Estimate):
    """Measure average of a chord observable over the samples kept, with the
    fractions of all samples excluded as trapped and as grazing."""

    trapped_fraction: float
    grazing_fraction: float


def _average_block(table, samples, observable):
    batch = causality_batch(table, samples.q, samples.v, samples.piece, samples.normal)
    return (Estimate.from_samples(observable.values(batch)[batch.ok]),
            int(np.sum(batch.trapped)), int(np.sum(batch.grazing)))


def space_average(table, observable, count, seed, workers=None):
    """E_mu[f] over one free chord; trapped, grazing and degenerate samples are excluded.

    Raises TooManyTrapped when the excluded fraction exceeds _MAX_EXCLUDED.
    """
    parts = sample_blocks(_average_block, table, count, seed, observable, workers=workers)
    estimate = Estimate.merge_all(p[0] for p in parts)
    excluded = 1.0 - estimate.count / count
    if excluded > _MAX_EXCLUDED:
        raise TooManyTrapped(f"excluded fraction {excluded:.2e} exceeds {_MAX_EXCLUDED:.0e}")
    return SpaceAverage(**asdict(estimate), trapped_fraction=sum(p[1] for p in parts) / count,
                        grazing_fraction=sum(p[2] for p in parts) / count)


# ---------------------------------------------------------------------------
# Time averages
# ---------------------------------------------------------------------------


def _checkpoint_list(m):
    return [2 ** k for k in range((m - 1).bit_length())] + [m]


def time_average_many(table, law, observable, z0_q, z0_v, bounces):
    """Lockstep Birkhoff sums for a batch of starters.

    Returns (checkpoints, running-means array of shape (starters, checkpoints),
    bounces completed, termination kinds).  Orbits that trap or graze stop
    contributing; their partial averages stay at the last completed bounce.  An
    orbit that stops on its first chord has no mean: NaN at every checkpoint.
    """
    n = np.atleast_2d(z0_q).shape[0]
    checkpoints = _checkpoint_list(bounces)
    marks = {m: j for j, m in enumerate(checkpoints)}
    running = np.full((n, len(checkpoints)), np.nan)
    sums = np.zeros(n)
    done_bounces = np.zeros(n, dtype=int)
    termination = np.array(["completed"] * n, dtype=object)
    for step, rows, batch, _ in lockstep_orbits(table, law, z0_q, z0_v, bounces):
        vals = observable.values(batch)
        bad = batch.stops
        if bad.any():
            termination[rows[bad]] = np.where(batch.trapped[bad], "trapped", "grazing")
            rows, vals = rows[~bad], vals[~bad]
        sums[rows] += vals
        done_bounces[rows] = step
        if step in marks:
            j = marks[step]
            live = done_bounces >= step
            running[live, j] = sums[live] / step
    # fill checkpoints beyond early termination with the final partial mean
    partial = np.where(done_bounces > 0, sums / np.maximum(done_bounces, 1), np.nan)
    running = np.where(np.isnan(running), partial[:, None], running)
    return checkpoints, running, done_bounces, termination


# ---------------------------------------------------------------------------
# Mean free path and volume recovery
# ---------------------------------------------------------------------------


def mean_free_path_prediction(table):
    vols = domain_volumes(table)
    n = table.space.dim
    ratio = unit_sphere_volume(n - 1) / unit_ball_volume(n - 1)
    return ratio * vols.vol_m / vols.vol_dm, vols


@dataclass(frozen=True)
class MeanFreePathReport:
    prediction: float
    volumes: DomainVolumes
    space: SpaceAverage
    relative_gap: float
    note: str


def mean_free_path(table, count=100_000, seed=0, workers=None):
    """Closed-form mean free path next to its Monte Carlo estimate."""
    prediction, volumes = mean_free_path_prediction(table)
    space = space_average(table, ChordLength(), count, seed, workers=workers)
    gap = abs(space.mean - prediction) / abs(prediction)
    note = (f"free paths capped at l_max={table.l_max:g}; capped fraction "
            f"{space.trapped_fraction:.2e} (excluded from the mean). On tables with "
            "unbounded free paths the estimate is cap-limited even when no sample "
            "reaches the cap.")
    return MeanFreePathReport(prediction=float(prediction), volumes=volumes, space=space,
                              relative_gap=float(gap), note=note)


def hear_volume(lengths, vol_dm, n):
    """Running bulk-volume estimates from a bounce-length sequence.

    Inverts the mean free path identity: vol_M = (vol B^{n-1} / vol S^{n-1})
    times the boundary volume times the running mean chord length.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size == 0:
        raise EmptySequence("need at least one bounce length")
    if vol_dm <= 0:
        raise ValueError("boundary volume must be positive")
    ratio = unit_ball_volume(n - 1) / unit_sphere_volume(n - 1)
    running_mean = np.cumsum(lengths) / np.arange(1, lengths.size + 1)
    return ratio * vol_dm * running_mean


# ---------------------------------------------------------------------------
# Recurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceResult:
    returned_fraction: float
    mean_return_count: float
    starters: int
    bounces: int


def recurrence_test(table, law, box, starters, bounces, seed):
    """Fraction of measure-sampled starters in the box whose orbit re-enters it."""
    found_q, found_v = [], []
    found = 0
    stream = 101
    for _ in range(400):
        if found >= starters:
            break
        chunk = sample_mu_theta(table, max(4 * starters, 4096), seed, stream)
        stream += 1
        mask = box.contains(table, chunk.q, chunk.v, chunk.piece, chunk.normal)
        if np.any(mask):
            found_q.append(chunk.q[mask])
            found_v.append(chunk.v[mask])
            found += int(np.sum(mask))
    if found == 0:
        raise DegenerateSet("box has empirical measure zero")
    q = np.concatenate(found_q)[:starters]
    v = np.concatenate(found_v)[:starters]
    n = q.shape[0]
    returned = np.zeros(n, dtype=bool)
    counts = np.zeros(n)
    for _, rows, batch, state in lockstep_orbits(table, law, q, v, bounces):
        good = ~batch.stops
        gi = rows[good]
        if gi.size:
            nxt = state.take(good)
            member = box.contains(table, nxt.q, nxt.v, nxt.piece, nxt.normal)
            returned[gi] |= member
            counts[gi] += member
    return RecurrenceResult(returned_fraction=float(np.mean(returned)),
                            mean_return_count=float(np.mean(counts)),
                            starters=n, bounces=bounces)


# ---------------------------------------------------------------------------
# Trapping probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrappingProbe:
    escape_fraction: float
    max_chord: float
    grazing_fraction: float
    max_chord_progression: tuple
    gd_stabilized: bool
    l_max: float


def _probe_block(table, samples):
    batch = causality_batch(table, samples.q, samples.v, samples.piece, samples.normal)
    return batch.length, batch.trapped, batch.grazing


def trapping_probe(table, sample_count, seed=0, workers=None):
    """Monte Carlo escape statistics; max_chord is a lower bound for gd(M,g).

    Tables with unbounded free paths have power tails in the chord length,
    so some chords land far beyond the bulk of the distribution.  The probe
    flags the longest-chord estimate as unstabilized when any chord exceeds
    twice the 99.5% quantile: for a bounded geodesic diameter the top
    chords cluster below it, while a power tail always populates it.
    """
    parts = sample_blocks(_probe_block, table, sample_count, seed, workers=workers)
    length, trapped, grazing = (np.concatenate(column) for column in zip(*parts))
    escaped = ~trapped
    lengths = length[escaped]
    # escaped lengths are >= 0, so 0 for the others leaves every maximum exact
    quarters = np.array_split(np.where(escaped, length, 0.0), 4)
    progression = np.maximum.accumulate([np.max(part, initial=0.0) for part in quarters])
    if lengths.size < 200:
        stabilized = True  # not enough data to judge the tail
    else:
        stabilized = bool(np.all(lengths <= 2.0 * np.quantile(lengths, 0.995)))
    stabilized = stabilized and bool(np.all(escaped))
    return TrappingProbe(
        escape_fraction=float(np.mean(escaped)),
        max_chord=float(np.max(lengths)) if lengths.size else 0.0,
        grazing_fraction=float(np.mean(grazing)),
        max_chord_progression=tuple(progression.tolist()),
        gd_stabilized=stabilized,
        l_max=table.l_max,
    )


# ---------------------------------------------------------------------------
# Inequality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    status: str              # "pass" | "fail" | "skipped"
    lhs: float = float("nan")
    rhs: float = float("nan")
    margin: float = float("nan")
    note: str = ""


@dataclass(frozen=True)
class InequalityReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)


def inequality_report(table, f=None, probe=None, count=50_000, seed=0):
    """Structured pass/fail checks of the volume inequalities and identities."""
    checks = []
    n = table.space.dim
    vols = domain_volumes(table)
    if probe is None:
        probe = trapping_probe(table, max(count // 5, 2000), seed=seed)
    gd_est = probe.max_chord
    ratio = unit_ball_volume(n - 1) / unit_sphere_volume(n - 1)
    rhs = ratio * gd_est * vols.vol_dm
    margin = rhs / vols.vol_m if vols.vol_m > 0 else float("inf")
    note = "gd estimated from sampled chords (lower bound); a failure is decisive only up to gd underestimation"
    if not probe.gd_stabilized:
        note += "; longest-chord estimate has not stabilized (possible trapping)"
    checks.append(InequalityCheck(
        name="geodesic-diameter bound", status="pass" if vols.vol_m <= rhs else "fail",
        lhs=vols.vol_m, rhs=rhs, margin=margin, note=note))

    if f is None:
        checks += [InequalityCheck(name=name, status="skipped",
                                   note="no well-balanced Lyapunov function available")
                   for name in ("slice-area bound", "slice-average identity")]
    else:
        res = slice_identity(table, f, count, seed, _SLICE_GRID_POINTS)
        bound = trajectory_space_volume(table)
        worst = res.max_area
        checks.append(InequalityCheck(
            name="slice-area bound", status="pass" if worst <= bound * (1.0 + 1e-9) else "fail",
            lhs=worst, rhs=bound, margin=bound / worst if worst > 0 else float("inf"),
            note=f"max of A(t) over a {_SLICE_GRID_POINTS}-point grid"))
        rel = res.relative_gap
        checks.append(InequalityCheck(
            name="slice-average identity", status="pass" if rel <= _IDENTITY_TOL else "fail",
            lhs=res.integral, rhs=res.predicted, margin=rel,
            note=f"av(A) * var(F) vs sphere-volume * vol(M), tolerance {_IDENTITY_TOL:.0%}"))
    return InequalityReport(checks=tuple(checks))
