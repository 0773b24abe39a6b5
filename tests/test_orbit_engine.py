"""The lockstep orbit engine against the derive-every-step loops it replaces.

The references below re-derive the boundary piece and inward normal at
every entry and every exit, as the loops did before the boundary state was
carried: `reference_causality_batch` classifies each entry from
`active_piece`, the reflection finds its normal from the exit piece, and
`reference_iterate_orbit` steps one phase point at a time.  Floats are
compared as int64 bit patterns, so a carried value must equal the derived
one exactly.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from billiardlab.dynamics import (Elastic, Rescaled, causality_batch, lockstep_orbits,
                                  orbit_batches, reflect_batch)
from billiardlab.ergodic import ChordLength, time_average_many
from billiardlab.errors import DegenerateStart, NotOnBoundary
from billiardlab.measure import PhaseBox, sample_mu_theta
from billiardlab.presets import PRESETS, preset_table
from billiardlab.tables import StratumLabel

_OUT = int(StratumLabel.TRANSVERSAL_OUT)
_CONVEX = int(StratumLabel.TANGENT_CONVEX)
_CONCAVE = int(StratumLabel.TANGENT_CONCAVE)
FIELDS = ("entry_q", "entry_v", "exit_q", "exit_v", "length", "entry_label", "exit_label",
          "entry_cos", "exit_cos", "entry_piece", "exit_piece", "degenerate", "trapped")


@functools.cache
def table(name):
    return preset_table(name)


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(bits(a), bits(b))


def reference_causality_batch(tab, q, v):
    """Chord fields of one step, piece and normal derived at both ends."""
    entry_piece = tab.active_piece(q)
    entry_label, entry_cos = tab.classify(q, v, entry_piece)
    if np.any(entry_label == _OUT):
        raise DegenerateStart("causality map applied to an outward phase point")
    degenerate = entry_label == _CONVEX
    out = {"entry_q": q, "entry_v": v, "exit_q": q.copy(), "exit_v": v.copy(),
           "length": np.zeros(q.shape[0]), "entry_label": entry_label,
           "exit_label": entry_label.copy(), "entry_cos": entry_cos,
           "exit_cos": entry_cos.copy(), "entry_piece": entry_piece,
           "exit_piece": entry_piece.copy(), "degenerate": degenerate,
           "trapped": np.zeros(q.shape[0], dtype=bool)}
    trace = ~degenerate
    if np.any(trace):
        hit = tab.first_hit(q[trace], v[trace])
        idx = np.flatnonzero(trace)
        out["trapped"][idx] = hit.trapped
        good, sel = idx[~hit.trapped], ~hit.trapped
        for key, val in (("exit_q", hit.q), ("exit_v", hit.v), ("length", hit.s),
                         ("exit_label", hit.label), ("exit_cos", hit.cos_in),
                         ("exit_piece", hit.piece)):
            out[key][good] = val[sel]
    tangent = (out["exit_label"] == _CONVEX) | (out["exit_label"] == _CONCAVE)
    out["grazing"] = tangent & ~out["degenerate"] & ~out["trapped"]
    return out


def reference_lockstep(tab, law, q, v, bounces):
    """(rows, chord fields) per step of the derive-every-step lockstep loop."""
    q, v = q.copy(), v.copy()
    active = np.ones(q.shape[0], dtype=bool)
    steps = []
    for _ in range(bounces):
        if not np.any(active):
            break
        ai = np.flatnonzero(active)
        batch = reference_causality_batch(tab, q[ai], v[ai])
        next_q, next_v = batch["exit_q"].copy(), batch["exit_v"].copy()
        ok = ~batch["trapped"] & ~batch["degenerate"] & ~batch["grazing"]
        if np.any(ok):
            next_v[ok] = reflect_batch(law, tab, batch["exit_q"][ok], batch["exit_v"][ok],
                                       piece=batch["exit_piece"][ok])
        steps.append((ai, batch))
        bad = batch["trapped"] | batch["grazing"]
        gi = ai[~bad]
        q[gi], v[gi] = next_q[~bad], next_v[~bad]
        active[ai[bad]] = False
    return steps


def reference_iterate_orbit(tab, law, q0, v0, k_max):
    """(chord fields, termination kind) of the one-point-at-a-time loop."""
    chords = []
    q, v = q0[None, :], v0[None, :]
    for _ in range(k_max):
        rec = reference_causality_batch(tab, q, v)
        if rec["trapped"][0]:
            return chords, "trapped"
        chords.append(rec)
        if rec["grazing"][0]:
            return chords, "grazing"
        q = rec["exit_q"]
        v = rec["exit_v"] if rec["degenerate"][0] else reflect_batch(law, tab, q, rec["exit_v"])
    return chords, "completed"


def law_for(tab, rescaled):
    if not rescaled:
        return Elastic()
    axis = np.zeros(tab.space.chart_dim)
    axis[:2] = (1.0, 0.4)
    return Rescaled(1.6, axis)


def starters(tab, name, count, seed):
    s = sample_mu_theta(tab, count, seed)
    q, v = s.q, s.v
    if name == "disk":   # append a tangent start, a fixed point of the billiard map
        q = np.vstack([q, [[1.0, 0.0]]])
        v = np.vstack([v, [[0.0, 1.0]]])
    return q, v


def check_engine(name, rescaled, count, seed, bounces):
    tab = table(name)
    law = law_for(tab, rescaled)
    q, v = starters(tab, name, count, seed)
    want = reference_lockstep(tab, law, q, v, bounces)
    got = list(lockstep_orbits(tab, law, q, v, bounces))
    assert len(got) == len(want)
    for (_, rows, batch, state), (ai, ref) in zip(got, want):
        assert_same(rows, ai)
        for key in FIELDS:
            assert_same(getattr(batch, key), ref[key])
        assert_same(batch.grazing, ref["grazing"])
        assert_same(batch.entry_normal, tab.inward_normal_at(batch.entry_q, batch.entry_piece))
        go = ~batch.stops
        if np.any(go):
            carried = state.take(go)
            assert_same(carried.piece, tab.active_piece(carried.q))
            assert_same(carried.normal, tab.inward_normal_at(carried.q, carried.piece))
    # one orbit: orbit_batches on a single (d,) start against the one-point loop
    kinds, (chords,) = orbit_batches(tab, law, q[-1], v[-1], bounces)
    ref_chords, kind = reference_iterate_orbit(tab, law, q[-1], v[-1], bounces)
    assert kinds == [kind]
    assert len(chords) == len(ref_chords)
    for j, ref in enumerate(ref_chords):
        for key in FIELDS:
            assert_same(getattr(chords, key)[j], ref[key][0])
        assert_same(chords.grazing[j], ref["grazing"][0])


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(PRESETS)), rescaled=st.booleans(),
       count=st.integers(1, 5), seed=st.integers(0, 2 ** 16), bounces=st.integers(1, 30))
def test_engine_matches_derived_state(name, rescaled, count, seed, bounces):
    check_engine(name, rescaled, count, seed, bounces)


@pytest.mark.parametrize("name", sorted(PRESETS))
@pytest.mark.parametrize("rescaled", [False, True])
def test_engine_every_preset(name, rescaled):
    check_engine(name, rescaled, 4, 7, 60)


def test_orbit_batches_equals_one_orbit_at_a_time(two_balls):
    s = sample_mu_theta(two_balls, 4, seed=9)
    kinds, together = orbit_batches(two_balls, Elastic(), s.q, s.v, 50)
    for i, chords in enumerate(together):
        kind, (alone,) = orbit_batches(two_balls, Elastic(), s.q[i], s.v[i], 50)
        assert kind == [kinds[i]]
        assert len(chords) == len(alone)
        for key in FIELDS:
            assert_same(getattr(chords, key), getattr(alone, key))


@pytest.mark.parametrize("name", ["disk", "ellipse"])
def test_one_exit_path_mixes_degenerate_trapped_and_clean_rows(name):
    # chords longer than the 0.5 cap are trapped; tangent starts are degenerate
    tab = table(name).with_l_max(0.5)
    s = sample_mu_theta(tab, 64, 5)
    q_tan = tab.pieces[0].point_at_param(tab.space, np.array([0.0, 2.0]))
    n_tan = tab.inward_normal_at(q_tan, np.zeros(2, dtype=np.int64))
    q = np.vstack([s.q, q_tan])
    v = np.vstack([s.v, np.stack([-n_tan[:, 1], n_tan[:, 0]], axis=1)])
    piece, normal = np.concatenate([s.piece, [0, 0]]), np.vstack([s.normal, n_tan])
    ref = reference_causality_batch(tab, q, v)
    for batch in (causality_batch(tab, q, v), causality_batch(tab, q, v, piece, normal)):
        assert batch.degenerate[-2:].all() and batch.trapped.any() and batch.ok.any()
        for key in FIELDS:
            assert_same(getattr(batch, key), ref[key])
        assert_same(batch.grazing, ref["grazing"])


def test_engine_drops_trapped_orbits(one_ball):
    # from the east point of the obstacle: the horizontal ray bounces between
    # images (chords of 0.5), the tilted one runs past the 0.6 cap
    work = one_ball.with_l_max(0.6)
    q = np.array([[0.75, 0.5], [0.75, 0.5]])
    v = np.array([[1.0, 0.0], [np.cos(0.3), np.sin(0.3)]])
    steps = list(lockstep_orbits(work, Elastic(), q, v, 4))
    assert [rows.tolist() for _, rows, _, _ in steps] == [[0, 1], [0], [0], [0]]
    assert steps[0][2].trapped.tolist() == [False, True]
    ref = reference_causality_batch(work, q, v)
    for key in FIELDS:   # the trapped row exits where it entered, with length 0
        assert_same(getattr(steps[0][2], key), ref[key])
    kinds, orbits = orbit_batches(work, Elastic(), q, v, 4)
    assert [(k, len(o)) for k, o in zip(kinds, orbits)] == [("completed", 4), ("trapped", 0)]
    assert np.all(np.abs(orbits[0].length - 0.5) < 1e-12)


@pytest.mark.parametrize("bounces", [0, -3])
def test_every_orbit_loop_rejects_bounce_counts_below_one(disk, bounces):
    # recurrence_test: see test_recurrence_zero_bounces
    q, v = np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])
    loops = [lambda: next(lockstep_orbits(disk, Elastic(), q, v, bounces)),
             lambda: orbit_batches(disk, Elastic(), q, v, bounces),
             lambda: time_average_many(disk, Elastic(), ChordLength(), q, v, bounces)]
    for loop in loops:
        with pytest.raises(ValueError, match="bounces must be at least 1"):
            loop()


def test_carried_point_off_its_piece_raises(disk):
    q = np.array([[1.0, 0.0]])
    v = np.array([[-1.0, 0.0]])
    normal = disk.inward_normal_at(q, np.array([0]))
    with pytest.raises(NotOnBoundary):
        causality_batch(disk, q * 0.5, v, np.array([0]), normal)


def test_carried_outward_entry_raises(disk):
    q = np.array([[1.0, 0.0]])
    normal = disk.inward_normal_at(q, np.array([0]))
    with pytest.raises(DegenerateStart):
        causality_batch(disk, q, np.array([[1.0, 0.0]]), np.array([0]), normal)


def test_phase_box_excludes_points_off_the_boundary(disk):
    q = np.array([[0.5, 0.0], [1.0, 0.0]])
    v = np.array([[-1.0, 0.0], [-1.0, 0.0]])
    assert disk.active_piece(q).tolist() == [-1, 0]
    assert PhaseBox(cos_range=(0.5, 1.01)).contains(disk, q, v).tolist() == [False, True]
    assert PhaseBox(incidence=(-0.1, 0.1)).contains(disk, q, v).tolist() == [False, True]
    assert PhaseBox().contains(disk, q, v).tolist() == [False, True]
