"""Hostile wire payloads: ``from_wire`` answers a request or a SchemaError.

Any JSON value a client can send, and any object keyed by the real
field names, must either parse into a typed request or raise
:class:`~repro.errors.SchemaError` (the service's 400).  Any other
exception would surface as a 500.  An accepted request must also
survive its own canonical form: ``canonicalize()`` fed back through
``from_wire`` keeps the fingerprint; and a choice field it accepts
(``node``, ``solver``, ...) is one the solve accepts.
"""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.core.rank import SOLVERS
from repro.errors import SchemaError
from repro.schema import CornersRequest, OptimizeRequest, RankRequest, SweepRequest
from repro.tech.presets import get_node

REQUEST_TYPES = (RankRequest, SweepRequest, CornersRequest, OptimizeRequest)

FIELD_NAMES = sorted(
    {f.name for t in REQUEST_TYPES for f in dataclasses.fields(t)}
    | {"schema_version", "backend"}
)

#: Integers beyond float range: ``json.loads`` parses them exactly.
huge_integers = st.integers(min_value=2**1024, max_value=2**1100).flatmap(
    lambda n: st.sampled_from([n, -n])
)

#: Anything ``json.loads`` can return, NaN and infinities included.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | huge_integers
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Values a real client might plausibly send for some field.
plausible_values = st.one_of(
    st.integers(min_value=-5, max_value=3_000_000),
    st.floats(min_value=-2.0, max_value=2e9),
    st.sampled_from(
        ["500MHz", "1.2 GHz", "130nm", "dp", "greedy", "K", "C", "R",
         "linear", "quadratic", "nominal", "slow-device", "numpy"]
    ),
    st.lists(
        st.one_of(st.floats(min_value=0.05, max_value=4.0),
                  st.sampled_from(["nominal", "fast-clock", "600MHz"])),
        max_size=3,
    ),
    st.lists(st.integers(min_value=-2, max_value=70), max_size=4),
)

field_objects = st.dictionaries(
    st.sampled_from(FIELD_NAMES),
    st.one_of(plausible_values, huge_integers, json_values),
    max_size=4,
)

#: An arbitrary string for one field that names one of a fixed set.
choice_objects = st.one_of(
    *(st.fixed_dictionaries({name: st.text(max_size=12)})
      for name in ("node", "target_kind", "solver", "knob")),
    st.fixed_dictionaries({"corners": st.lists(st.text(max_size=12), max_size=3)}),
)


@given(
    request_type=st.sampled_from(REQUEST_TYPES),
    payload=st.one_of(json_values, field_objects, choice_objects),
)
def test_from_wire_returns_a_request_or_raises_schema_error(request_type, payload):
    try:
        request = request_type.from_wire(payload)
    except SchemaError:
        return
    again = request_type.from_wire(request.canonicalize())
    assert again.fingerprint() == request.fingerprint()
    # An accepted choice is one the solve accepts: never a 500 later.
    get_node(request.node)
    assert request.target_kind in ("linear", "quadratic")
    assert request.solver in SOLVERS
