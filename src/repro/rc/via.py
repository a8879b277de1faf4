"""Via blockage accounting.

The paper charges two kinds of via blockage against the routing capacity
of a layer-pair (its Algorithm 5, step 2):

* every wire assigned to a layer-pair *above* contributes ``v`` vias,
  each blocking ``v_a`` of area in every layer-pair it passes through
  (the wire must descend to its pins on the device layer), and
* every repeater inserted in a wire above blocks one via footprint
  ``v_a`` in every layer-pair below it (repeaters live on the substrate,
  so the signal must descend to each repeater);
  :meth:`~repro.assign.tables.AssignmentTables.capacity` charges it.

This is a compact model in the spirit of Chen--Davis--Meindl--Zarkesh-Ha
("A Compact Physical Via Blockage Model", the paper's reference [3]):
blockage is a per-via constant footprint, not a detailed congestion map.
"""

from __future__ import annotations

#: Default number of vias contributed by one L-shaped wire: two pin
#: descents at the ends plus two at the bend between the H and V layers
#: of the pair (the paper's ``v``; via area "for the L, and of the ends
#: of the L segments, is computed as a part of the wire").
DEFAULT_VIAS_PER_WIRE = 4
