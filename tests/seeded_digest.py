"""One SHA-256 over seeded outputs on every preset, for bit-identity checks.

A change that must keep every seeded bit (a speed-up, a refactor) prints the
same digest as its parent.  Run it from the repository root on both trees:

    PYTHONPATH=src python tests/seeded_digest.py

It hashes, per preset: 65536 sampler rows (q, v, piece, cos_in, normal);
the chords of `causality_batch` on them, carried and derived, and on 8192 of
them under a cap that traps some; `lockstep_orbits` of 3, 10 and 128 rows
(chords, rows and next states; a tangent start added on the disk and the
ellipse; the 10-row run also under a rescaled law); carried and derived
`phase_coordinates`; `recurrence_test`; and `time_average_many`.  Each
section's digest is printed before the total, so a mismatch names where it
starts.  pytest does not collect this file, and no digest is pinned.
"""

import hashlib
from dataclasses import fields

import numpy as np

from billiardlab.dynamics import ChordBatch, Elastic, Rescaled, causality_batch, lockstep_orbits
from billiardlab.ergodic import ChordLength, recurrence_test, time_average_many
from billiardlab.measure import PhaseBox, phase_coordinates, sample_mu_theta
from billiardlab.presets import PRESETS, preset_table

CHORD_FIELDS = [f.name for f in fields(ChordBatch)]
STATE_FIELDS = ("q", "v", "piece", "normal")


def feed(h, name, a):
    a = np.ascontiguousarray(a)
    h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
    h.update(a.tobytes())


def feed_chords(h, name, batch):
    for key in CHORD_FIELDS:
        feed(h, f"{name}.{key}", getattr(batch, key))


def rescaled_law(table):
    axis = np.zeros(table.space.chart_dim)
    axis[:2] = (1.0, 0.4)
    return Rescaled(1.6, axis)


def tangent_start(table, q, v):
    """Append a start tangent to the outer wall: a degenerate first chord."""
    wall = table.pieces[0]
    q_tan = wall.point_at_param(table.space, np.array([0.3]))
    n_tan = table.inward_normal_at(q_tan, np.zeros(1, dtype=np.int64))
    return np.vstack([q, q_tan]), np.vstack([v, np.stack([-n_tan[:, 1], n_tan[:, 0]], axis=1)])


def section_sampler_and_chords(h, name, table):
    s = sample_mu_theta(table, 65536, seed=1)
    for key in ("q", "v", "piece", "cos_in", "normal"):
        feed(h, f"sample.{key}", getattr(s, key))
    feed_chords(h, "carried", causality_batch(table, s.q, s.v, s.piece, s.normal))
    feed_chords(h, "derived", causality_batch(table, s.q[:8192], s.v[:8192]))
    capped = table.with_l_max(0.7 * table._diameter)
    feed_chords(h, "capped", causality_batch(capped, s.q[:8192], s.v[:8192],
                                             s.piece[:8192], s.normal[:8192]))


def section_lockstep(h, name, table):
    runs = [(3, 300, Elastic()), (10, 300, Elastic()), (10, 300, rescaled_law(table)),
            (128, 100, Elastic())]
    for j, (rows, bounces, law) in enumerate(runs):
        s = sample_mu_theta(table, rows, seed=2 + j)
        q, v = s.q, s.v
        if name in ("disk", "ellipse"):
            q, v = tangent_start(table, q, v)
        for step, idx, batch, state in lockstep_orbits(table, law, q, v, bounces):
            feed(h, f"run{j}.rows", idx)
            feed_chords(h, f"run{j}", batch)
            for key in STATE_FIELDS:
                feed(h, f"run{j}.state.{key}", getattr(state, key))


def section_phase(h, name, table):
    s = sample_mu_theta(table, 4096, seed=6)
    batch, = (b for _, _, b, _ in lockstep_orbits(table, Elastic(), s.q, s.v, 1))
    for tag, coords in (("derived", phase_coordinates(table, batch.exit_q, batch.exit_v)),
                        ("carried", phase_coordinates(table, batch.exit_q, batch.exit_v,
                                                      batch.exit_piece, batch.exit_normal))):
        for key, a in zip(("piece", "angle", "incidence", "cos"), coords):
            if a is not None:
                feed(h, f"phase.{tag}.{key}", a)


def phase_box(table):
    if table.space.dim == 2:
        return PhaseBox(piece=0, boundary=(0.0, 0.6), incidence=(0.2, 0.7))
    return PhaseBox(piece=0, cos_range=(0.3, 0.5))


def section_averages(h, name, table):
    r = recurrence_test(table, Elastic(), phase_box(table), 64, 500, seed=3)
    feed(h, "recurrence", np.array([r.returned_fraction, r.mean_return_count]))
    s = sample_mu_theta(table, 10, seed=4)
    _, running, done, kinds = time_average_many(table, Elastic(), ChordLength(), s.q, s.v, 500)
    feed(h, "birkhoff.running", running)
    feed(h, "birkhoff.done", done)
    h.update(repr(kinds.tolist()).encode())


def main():
    total = hashlib.sha256()
    for name in sorted(PRESETS):
        table = preset_table(name)
        for section in (section_sampler_and_chords, section_lockstep, section_phase,
                        section_averages):
            h = hashlib.sha256()
            section(h, name, table)
            digest = h.hexdigest()
            total.update(digest.encode())
            print(f"{name:20s} {section.__name__[8:]:20s} {digest[:16]}")
    print(f"sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
