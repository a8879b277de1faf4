"""Physical constants and paper-fixed model constants.

The two switching constants ``a`` and ``b`` come from the Otten--Brayton
delay model used by the paper (its Eq. (2) footnote: ``a = 0.4`` and
``b = 0.7`` for wire delay computation).  The gate-pitch multiplier is the
ITRS-2001 empirical rule quoted in the paper's Section 5.2 (gate pitch =
12.6 x technology node).
"""

from __future__ import annotations

#: Vacuum permittivity, farads per metre.
EPS0 = 8.854187817e-12

#: Otten--Brayton quadratic (distributed-RC) switching constant ``a``.
SWITCHING_A = 0.4

#: Otten--Brayton linear (driver/load) switching constant ``b``.
SWITCHING_B = 0.7

#: Gate pitch as a multiple of the technology node (ITRS 2001 empirical
#: rule used by the paper: gate pitch = 12.6 x tech node).
GATE_PITCH_FACTOR = 12.6

#: Bulk resistivity of copper, ohm-metres (effective value including a
#: thin-barrier penalty typical of early-2000s damascene copper).
RESISTIVITY_COPPER = 2.2e-8

#: Bulk resistivity of aluminium interconnect, ohm-metres.
RESISTIVITY_ALUMINIUM = 3.3e-8

#: Relative permittivity of thermal SiO2 -- the paper's baseline ILD k.
K_SILICON_DIOXIDE = 3.9
