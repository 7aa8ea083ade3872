"""No schema-valid config ends in a traceback.

Configs for the march subcommands and ``riemann`` are drawn from the
pinned ``cli.SCHEMAS`` by a small translator: every key and enum the
schema offers, moderate values within each key's bounds, and at most one
leaf replaced by an extreme (+-1e300, 1e-300, 5e-324) that its bounds
allow.  Two extremes can combine into a finite but tiny stable step (a
density of 1e300 under gamma 1.1 gives a sound speed near 1e15): a march
of 1e13 steps that never ends, which is not a fault.  For the same
reason grids have at most 8 cells per axis and the horizon is bounded,
t_end <= 1 and t_end / sample_dt <= 4.  ``riemann`` does not march, so its
configs take up to two extremes, an x range from -1e300 to 1e300 for
instance.

``plot`` takes a CSV instead of a config: any short table of finite floats
draws, with finite coordinates and labels, also where a column's range
exceeds the float range.

``diagnose`` and ``select`` take bundles: the bundles of a tiny 1D
``ensemble`` with one leaf swapped (a ``meta.json`` value, one cell of a
state or energy CSV, or one ``reynolds.npz`` entry) give exit 0, 1 or 2,
and a changed ``t`` value of an ``energy.csv`` never exits 0.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import sys
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings
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
    # the extreme branch first: Hypothesis draws the first branch of a one_of
    # most often, and with st.none() first about 70 % of march configs and
    # 83 % of riemann configs carried no extreme
    swap = draw(st.sampled_from(swaps) | st.none()) if swaps else None
    if swap is not None:
        _set(doc, *swap)
        # ``riemann`` does not march, so a second extreme cannot make an endless march
        others = [s for s in swaps if s[0] != swap[0]] if kind == "riemann" else []
        second = draw(st.sampled_from(others) | st.none()) if others else None
        if second is not None:
            _set(doc, *second)
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


# -- bundles with one swapped leaf ------------------------------------------------

_ENSEMBLE = {"kind": "ensemble", "law": {"a": 1.0, "gamma": 2.0},
             "grid": {"counts": [8], "lower": [-1.0], "upper": [1.0]},
             "initial": {"preset": "riemann", "rho_l": 1.0, "u_l": 0.0, "rho_r": 0.25,
                         "u_r": 0.0},
             "scheme": {"flux": "hll"}, "nu_list": [0.2, 0.1], "t_end": 0.5,
             "sample_dt": 0.25}
_BUNDLES = ("average", "member_00", "member_01")
_NUMBERS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, -1.0, 0.5, 2.5,
            1e300, -1e300, sys.float_info.max)
_JSON_VALUES = _NUMBERS + (0, 3, -1, 2**64, None, True, "x", "reflective", [], {})
_CSV_TOKENS = tuple(map(repr, _NUMBERS)) + ("1e400", "abc", "", "0x10")


@pytest.fixture(scope="module")
def ensemble_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundles")
    cfg = root / "ensemble.json"
    cfg.write_text(json.dumps(_ENSEMBLE))
    assert main(["ensemble", "--config", str(cfg), "--out", str(root / "ens")]) == 0
    return root / "ens"


def _json_paths(doc, path=()):
    """The path of every scalar in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from _json_paths(v, path + (k,))
        else:
            yield path + (k,)


def _bits(token: str):
    try:
        return struct.pack("<d", float(token))
    except ValueError:
        return token


def _swap_leaf(draw, tree, bundle, kind) -> bool:
    """Swap one leaf of ``kind`` in ``tree``; True if an energy.csv time changed."""
    where = os.path.join(tree, bundle)
    if kind == "meta":
        path = os.path.join(where, "meta.json")
        with open(path) as f:
            meta = json.load(f)
        _set(meta, draw(st.sampled_from(list(_json_paths(meta)))),
             draw(st.sampled_from(_JSON_VALUES)))
        with open(path, "w") as f:
            json.dump(meta, f)
        return False
    if kind == "reynolds":
        path = os.path.join(tree, "reynolds.npz")
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        entry = arrays[draw(st.sampled_from(sorted(arrays)))]
        pool = (0, -1, 7, 2**62) if entry.dtype.kind == "i" else _NUMBERS
        entry.flat[draw(st.integers(0, entry.size - 1))] = draw(st.sampled_from(pool))
        np.savez(path, **arrays)
        return False
    name = "energy.csv" if kind == "energy" else f"state_{draw(st.integers(0, 2)):06d}.csv"
    path = os.path.join(where, name)
    with open(path) as f:
        lines = f.read().splitlines()
    row = draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    col = draw(st.integers(0, len(cells) - 1))
    old, cells[col] = cells[col], draw(st.sampled_from(_CSV_TOKENS))
    lines[row] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return kind == "energy" and col == 0 and _bits(cells[col]) != _bits(old)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(["diagnose", "select"]))
def test_bundle_with_one_swapped_leaf_never_raises(ensemble_tree, data, command):
    bundle = data.draw(st.sampled_from(_BUNDLES), label="bundle")
    kinds = ["meta", "state", "energy"] + ["reynolds"] * (command == "diagnose")
    kind = data.draw(st.sampled_from(kinds), label="leaf")
    with tempfile.TemporaryDirectory() as tmp:
        tree = shutil.copytree(ensemble_tree, os.path.join(tmp, "ens"))
        time_changed = _swap_leaf(data.draw, tree, bundle, kind)
        cfg = {"kind": command}
        if command == "select":
            cfg["candidates"] = tree
        else:
            cfg["bundle"] = os.path.join(tree, "average" if kind == "reynolds" else bundle)
            if kind == "reynolds" or data.draw(st.booleans(), label="with stress"):
                cfg["reynolds"] = os.path.join(tree, "reynolds.npz")
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", os.path.join(tmp, "o")])
    event(f"{command} {kind}: exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if time_changed:
        assert code != 0
