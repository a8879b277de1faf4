"""Hostile node files: loading gives a node or a ConfigurationError.

``--node-file`` reads user JSON; the CLI turns a
:class:`~repro.errors.ConfigurationError` into a one-line ``error:``
message, and any other exception would be a traceback.  So any JSON
object, any preset with one field replaced or deleted, and any file
bytes must load or raise ``ConfigurationError``.
"""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.tech.io import load_node, node_from_dict, node_to_dict
from repro.tech.node import TechnologyNode
from repro.tech.presets import NODE_130NM

PRESET = node_to_dict(NODE_130NM)


def _paths(tree, prefix=()):
    """Every key path of a nested dict, inner and leaf."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


FIELD_PATHS = sorted(_paths(PRESET))

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

_DELETE = object()


def _mutated(path, value):
    """The preset with the field at ``path`` replaced (or deleted)."""
    payload = json.loads(json.dumps(PRESET))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


mutated_presets = st.builds(
    _mutated,
    st.sampled_from(FIELD_PATHS),
    st.one_of(st.just(_DELETE), json_values),
)

top_level_objects = st.dictionaries(
    st.sampled_from(sorted(PRESET)), json_values, max_size=6
)


def _load(payload):
    try:
        node = node_from_dict(payload)
    except ConfigurationError:
        return
    assert isinstance(node, TechnologyNode)


@given(payload=st.one_of(mutated_presets, top_level_objects))
@example(payload=_mutated(("feature_size",), 10**400))
@example(payload=_mutated(("device", "output_resistance"), -(10**400)))
def test_node_from_dict_loads_or_raises_configuration_error(payload):
    _load(payload)


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "huge-int"]
)
def test_non_finite_field_is_named(value):
    with pytest.raises(ConfigurationError, match="'feature_size': expected a finite"):
        node_from_dict(_mutated(("feature_size",), value))


@pytest.fixture(scope="module")
def node_file(tmp_path_factory):
    return tmp_path_factory.mktemp("node-fuzz") / "node.json"


@given(raw=st.binary(max_size=256))
@example(raw=b"\xff\xfe{")
@example(raw=json.dumps(PRESET).replace("1.3e-07", "1" + "0" * 5000).encode())
def test_load_node_loads_or_raises_configuration_error(node_file, raw):
    node_file.write_bytes(raw)
    try:
        load_node(node_file)
    except ConfigurationError as exc:
        assert str(node_file) in str(exc)
