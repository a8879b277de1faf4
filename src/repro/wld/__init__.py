"""Wire length distributions.

The paper evaluates an IA against the stochastic wire length distribution
of Davis--De--Meindl (its reference [4]), generated from a gate count and
a Rent exponent.  This package provides:

* :mod:`repro.wld.distribution` — the discrete
  :class:`~repro.wld.distribution.WireLengthDistribution` (lengths in
  gate pitches, integer counts, non-increasing length order = rank order),
* :mod:`repro.wld.rent` — Rent's-rule utilities,
* :mod:`repro.wld.davis` — the Davis stochastic WLD generator,
* :mod:`repro.wld.coarsen` — the paper's Section 5.1 *bunching* and
  *binning* instance-size reductions,
* :mod:`repro.wld.synthetic` — hand-built WLDs for tests and the
  Figure 2 counterexample,
* :mod:`repro.wld.io` — CSV/JSON persistence.
"""

from .coarsen import bin_wld, bunch_wld, max_bunch_count
from .davis import DavisParameters, davis_wld, davis_density
from .distribution import WireLengthDistribution
from .io import load_wld_csv, load_wld_json, save_wld_csv, save_wld_json
from .rent import average_fanout, rent_terminals, total_connections
from .synthetic import (
    geometric_wld,
    single_length_wld,
    uniform_wld,
    wld_from_pairs,
)

__all__ = [
    "WireLengthDistribution",
    "DavisParameters",
    "davis_wld",
    "davis_density",
    "bunch_wld",
    "bin_wld",
    "max_bunch_count",
    "rent_terminals",
    "average_fanout",
    "total_connections",
    "uniform_wld",
    "geometric_wld",
    "single_length_wld",
    "wld_from_pairs",
    "save_wld_csv",
    "load_wld_csv",
    "save_wld_json",
    "load_wld_json",
]
