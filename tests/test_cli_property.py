"""No schema-valid config ends in a traceback.

Configs for the march subcommands and ``riemann`` are drawn from the
pinned ``cli.SCHEMAS`` by a small translator: every key and enum the
schema offers, moderate values within each key's bounds, and at most one
leaf replaced by an extreme (+-1e300, 1e-300, 5e-324) that its bounds
allow.  Two extremes can combine into a finite but tiny stable step (a
density of 1e300 under gamma 1.1 gives a sound speed near 1e15): a march
of 1e13 steps that never ends, which is not a fault.  For the same
reason grids have at most 8 cells per axis and the horizon is bounded,
t_end <= 1 and t_end / sample_dt <= 4.

``plot`` takes a CSV instead of a config: any short table of finite floats
draws, with finite coordinates and labels, also where a column's range
exceeds the float range.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerlab.cli import SCHEMAS, main

EXTREMES = (1e300, -1e300, 1e-300, 5e-324)
MAX_CELLS = 8
MAX_T_END = 1.0
MAX_SAMPLES = 4

# moderate values, each inside any schema bound it meets
_SIGNED = (-1.0, -0.5, 0.0, 0.5, 1.0)
_POSITIVE = (0.25, 0.5, 1.0, 2.0)
_POOLS = {"gamma": (1.4, 2.0, 3.0), "cfl": (0.25, 0.5, 0.9, 1.0),
          "nu": (0.0, 0.01, 0.1, 0.5), "nu_list": (0.0, 0.01, 0.1, 0.5)}
_INTEGER_CAPS = {"counts": MAX_CELLS, "samples": 33, "modes": 3, "seed": 3}


def _within(schema, x) -> bool:
    return (x >= schema.get("minimum", -float("inf"))
            and x > schema.get("exclusiveMinimum", -float("inf"))
            and x <= schema.get("maximum", float("inf")))


def _number(schema, key):
    pool = _POOLS.get(key) or (_POSITIVE if "exclusiveMinimum" in schema
                               or "minimum" in schema else _SIGNED)
    return st.sampled_from([x for x in pool if _within(schema, x)])


def from_schema(schema, key=None):
    """A strategy for the instances of ``schema`` with moderate leaves; ``key``
    is the name the schema sits under, which picks a leaf's value pool."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema.get("type")
    if isinstance(kind, list):
        return st.one_of([from_schema({**schema, "type": k}, key) for k in kind])
    if kind == "object":
        props = {k: _SHAPED[k](s) | from_schema(s, k) if k in _SHAPED else from_schema(s, k)
                 for k, s in schema["properties"].items()}
        required = schema.get("required", [])
        return st.fixed_dictionaries({k: props[k] for k in required},
                                     optional={k: v for k, v in props.items()
                                               if k not in required})
    if kind == "array":
        items = schema.get("items", {"type": "number"})
        return st.lists(from_schema(items, key), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 3))
    if kind == "number":
        return _number(schema, key)
    if kind == "integer":
        lo = schema.get("minimum", 0)
        return st.integers(lo, max(lo, _INTEGER_CAPS.get(key, lo + 3)))
    if kind == "string":
        return st.just(os.path.join(tempfile.gettempdir(), "eulerlab-missing", key))
    if kind == "null":
        return st.none()
    raise NotImplementedError(f"schema type {kind!r}")


@st.composite
def _grids(draw, schema):
    """A grid whose arrays share one dimension and whose upper bounds exceed
    the lower ones."""
    d = draw(st.integers(1, 2))
    lower = draw(st.lists(st.sampled_from(_SIGNED), min_size=d, max_size=d))
    grid = {"counts": draw(st.lists(st.integers(2, MAX_CELLS), min_size=d, max_size=d)),
            "lower": lower,
            "upper": [x + draw(st.sampled_from(_POSITIVE)) for x in lower]}
    if draw(st.booleans()):
        kinds = schema["properties"]["boundary"]["items"]["enum"]
        grid["boundary"] = draw(st.lists(st.sampled_from(kinds), min_size=d, max_size=d))
    return grid


def _presets(schema):
    """Initial data naming a preset together with the keys it reads."""
    props = {k: s for k, s in schema["properties"].items() if k != "file"}
    return st.one_of([from_schema({**schema, "properties": {**props, "preset": {"enum": [p]}},
                                   "required": ["preset", *keys]})
                      for p, keys in (("constant", ["rho"]),
                                      ("riemann", ["rho_l", "u_l", "rho_r", "u_r"]),
                                      ("acoustic", ["rho0"]))])


# schema-valid shapes that the program can build, drawn beside the generic ones
_SHAPED = {"grid": _grids, "initial": _presets}


def _leaves(doc, schema, path=()):
    """``(path, schema)`` of every number in ``doc``."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, schema["properties"][k], path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, schema.get("items", {"type": "number"}), path + (i,))
    elif isinstance(doc, float) and "enum" not in schema:
        kinds = schema.get("type")
        yield path, {**schema, "type": "number"} if isinstance(kinds, list) else schema


def _set(doc, path, value):
    for p in path[:-1]:
        doc = doc[p]
    doc[path[-1]] = value


def _bounded_horizon(doc) -> bool:
    if "t_end" not in doc:
        return True
    return doc["t_end"] <= MAX_T_END and doc["t_end"] / doc["sample_dt"] <= MAX_SAMPLES


@st.composite
def configs(draw, kind):
    schema = SCHEMAS[kind]
    doc = draw(from_schema(schema))
    doc["kind"] = kind
    if "t_end" in doc:
        doc["t_end"] = draw(st.sampled_from([0.25, 0.5, MAX_T_END]))
        doc["sample_dt"] = draw(st.sampled_from(
            [doc["t_end"] / n for n in range(1, MAX_SAMPLES + 1)] + [0.3]))
    swaps = []
    for path, leaf in _leaves(doc, schema):
        for x in EXTREMES:
            if _within(leaf, x):
                trial = json.loads(json.dumps(doc))
                _set(trial, path, x)
                if _bounded_horizon(trial):
                    swaps.append((path, x))
    swap = draw(st.none() | st.sampled_from(swaps)) if swaps else None
    if swap is not None:
        _set(doc, *swap)
    return doc


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["run", "ensemble", "dt1-demo", "dt2-demo", "riemann"]))
def test_schema_valid_config_never_raises(data, kind):
    doc = data.draw(configs(kind), label="config")
    jsonschema.Draft202012Validator(SCHEMAS[kind]).validate(doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([kind, "--config", cfg, "--out", os.path.join(tmp, "o")])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


_PLOT_COLUMNS = {"energy": ("t", "E"), "defect": ("t", "defect", "traceR", "slack")}
# values whose differences overflow
_HUGE = (sys.float_info.max, -sys.float_info.max, 1e308, -1e308)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_PLOT_COLUMNS)))
def test_finite_table_always_plots(data, kind):
    names = _PLOT_COLUMNS[kind]
    value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_HUGE)
    rows = data.draw(st.lists(st.tuples(*[value] * len(names)), min_size=1, max_size=5),
                     label="rows")
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "t.csv")
        with open(csv, "w") as f:
            f.write("\n".join([",".join(names), *(",".join(map(repr, r)) for r in rows)]) + "\n")
        assert main(["plot", "--csv", csv, "--kind", kind, "--out", os.path.join(tmp, "o")]) == 0
        with open(os.path.join(tmp, "o", f"{kind}.svg")) as f:
            svg = f.read()
    assert not re.search(r"(?<![a-z])(nan|inf)(?![a-z])", svg)
