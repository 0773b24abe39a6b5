"""Geometric billiard and inverse-scattering laboratory.

Exact geodesic billiards on constant-curvature tables, the invariant cosine
boundary measure, well-balanced Lyapunov functions, ergodic averages, and
numerical holography checks, with a batch CLI on top.
"""

__version__ = "0.1.0"

from .config import load_table_config, table_from_dict
from .dynamics import (ChordRecord, Elastic, OrbitRecord, Rescaled, Termination,
                       billiard_map, causality_map, iterate_orbit, reflect)
from .ergodic import (AverageReport, ChordLength, DeltaF, hear_volume,
                      inequality_report, mean_free_path, recurrence_test,
                      space_average, time_average, trapping_probe)
from .errors import (AmbiguousGeodesic, BilliardError, BodyTooSmall, ConfigError,
                     DegenerateSet, DegenerateStart, EmptySequence, NotOnBoundary,
                     TooManyTrapped, Trapped)
from .holography import (ScatteringDataset, conjugacy_residual,
                         generate_scattering_dataset, reconstruct_chords)
from .lyapunov import (EnclosingBody, LyapunovF, build_well_balanced_F, delta_F,
                       slice_identity, var_F_boundary)
from .measure import (Estimate, PhaseBox, WeightedSampleSet, domain_volumes,
                      measure_preservation_test, mu_theta_density,
                      sample_mu_theta, trajectory_space_volume)
from .presets import PRESETS, preset_table
from .spaces import Euclidean, FlatTorus, HyperbolicBall, PhasePoint, Sphere
from .tables import (Ball, HalfSpaceOrCap, RadialFourierCurve, Stratum,
                     StratumLabel, Table, Tolerances)
