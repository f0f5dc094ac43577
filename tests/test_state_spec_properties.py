"""Property tests for StateSpec parsing: canonical specs round-trip through
JSON, parsing is idempotent, and malformed parameter documents raise only
ValidationError."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcslab import StateSpec, ValidationError
from qcslab.states import KINDS

real = st.floats(-4.0, 4.0, allow_nan=False)
complex_value = st.one_of(
    real, st.tuples(real, real).map(list),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False))


@st.composite
def mixture_params(draw):
    k = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    weights = [w / math.fsum(raw) for w in raw[:-1]]
    weights.append(1.0 - math.fsum(weights))
    return {"weights": weights,
            "amplitudes": draw(st.lists(complex_value, min_size=k, max_size=k))}


@st.composite
def gaussian_params(draw):
    a, b = draw(st.floats(0.5, 4.0)), draw(st.floats(0.5, 4.0))
    c = draw(st.floats(-1.0, 1.0)) * math.sqrt(a * b - 0.25)
    params = {"gamma": [[a, c], [c, b]]}
    if draw(st.booleans()):
        params["mean"] = draw(st.lists(real, min_size=2, max_size=2))
    return params


def fock_space_params(kind):
    return {
        "coherent": st.fixed_dictionaries({"alpha": complex_value}),
        "fock": st.fixed_dictionaries({"n": st.integers(0, 200)}),
        "thermal": st.one_of(
            st.fixed_dictionaries({"q": st.floats(0.0, 1.0, exclude_max=True)}),
            st.fixed_dictionaries({"mean_n": st.floats(0.0, 1e6)})),
        "squeezed_vacuum": st.fixed_dictionaries({"r": real}),
        "rho_2M": st.fixed_dictionaries({"M": st.integers(1, 100)}),
        "rho_even_M": st.fixed_dictionaries({"M": st.integers(1, 100)}),
        "mixture": mixture_params(),
    }[kind]


SIMPLE_KINDS = ["coherent", "fock", "thermal", "squeezed_vacuum", "rho_2M", "rho_even_M",
                "mixture"]
base_doc = st.sampled_from(SIMPLE_KINDS).flatmap(
    lambda kind: fock_space_params(kind).map(lambda p: {"kind": kind, "params": p}))
PARAMS = {**{kind: fock_space_params(kind) for kind in SIMPLE_KINDS},
          "displaced": st.fixed_dictionaries({"base": base_doc, "beta": complex_value}),
          "gaussian": gaussian_params()}


def test_strategies_cover_every_kind():
    assert set(PARAMS) == set(KINDS)


kind_and_params = st.sampled_from(sorted(PARAMS)).flatmap(
    lambda kind: PARAMS[kind].map(lambda p: (kind, p)))
cutoffs = st.none() | st.integers(2, 200)


@settings(max_examples=200, deadline=None)
@given(kind_and_params, cutoffs)
def test_canonical_spec_round_trips(kind_params, cutoff):
    kind, params = kind_params
    spec = StateSpec(kind, params, cutoff)
    text = spec.to_json()
    assert StateSpec.from_json(text).to_json() == text
    assert StateSpec(spec.kind, spec.params, spec.cutoff).to_json() == text


BAD_VALUES = ["0.3", True, {"x": 1}, [True, "x"], math.nan, math.inf]


@st.composite
def malformed_docs(draw):
    """A valid document with one parameter given a wrong type, a non-finite or
    non-integral value, removed, or joined by an unknown key."""
    kind, params = draw(kind_and_params)
    params = json.loads(StateSpec(kind, params).to_json())["params"]
    key = draw(st.sampled_from([k for k in params if k != "mean"]))  # mean is optional
    how = draw(st.sampled_from(["bad value", "missing", "unknown key"]))
    if how == "bad value":
        non_integral = [params[key] + 0.5] if key in ("n", "M") else []
        params[key] = draw(st.sampled_from(BAD_VALUES + non_integral))
    elif how == "missing":
        del params[key]
    else:
        params["unexpected"] = 1
    return {"schema": 1, "kind": kind, "params": params}


@settings(max_examples=300, deadline=None)
@given(malformed_docs())
def test_malformed_params_raise_validation_error(doc):
    with pytest.raises(ValidationError):
        StateSpec.from_json(json.dumps(doc))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)
param_keys = st.sampled_from(["alpha", "n", "q", "mean_n", "r", "M", "weights",
                              "amplitudes", "base", "beta", "gamma", "mean", "kind",
                              "params"]) | st.text(max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(KINDS)) | st.text(max_size=4) | json_values,
       st.dictionaries(param_keys, json_values, max_size=4) | json_values)
def test_arbitrary_documents_raise_only_validation_error(kind, params):
    try:
        StateSpec.from_json(json.dumps({"schema": 1, "kind": kind, "params": params}))
    except ValidationError:
        pass
