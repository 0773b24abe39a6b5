"""Geometric billiard and inverse-scattering laboratory.

Exact geodesic billiards on constant-curvature tables, the invariant cosine
boundary measure, well-balanced Lyapunov functions, ergodic averages, and
numerical holography checks, with a batch CLI on top.
"""

__version__ = "0.1.0"

from .config import load_table_config, table_from_dict
from .dynamics import (ChordBatch, Elastic, Rescaled, billiard_batch, causality_batch,
                       lockstep_orbits, orbit_batches, reflect_batch)
from .ergodic import (ChordLength, DeltaF, hear_volume, inequality_report, mean_free_path,
                      recurrence_test, space_average, time_average_many, trapping_probe)
from .errors import (AmbiguousGeodesic, BilliardError, BodyTooSmall, ConfigError,
                     DegenerateSet, DegenerateStart, EmptySequence, NotOnBoundary,
                     TooManyTrapped)
from .holography import (ScatteringDataset, conjugacy_residual,
                         generate_scattering_dataset, reconstruct_chords)
from .lyapunov import (LyapunovF, build_well_balanced_F, delta_F_batch, slice_identity,
                       var_F_boundary)
from .measure import (Estimate, PhaseBox, WeightedSampleSet, domain_volumes,
                      measure_preservation_test, sample_mu_theta, trajectory_space_volume)
from .presets import PRESETS, preset_table
from .spaces import Euclidean, FlatTorus, HyperbolicBall, Sphere
from .tables import (Ball, HalfSpaceOrCap, RadialFourierCurve, StratumLabel, Table,
                     Tolerances)
