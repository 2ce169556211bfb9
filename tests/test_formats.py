"""Round trips and single-byte corruptions of every on-disk format.

Each format must read back what it wrote.  A file with one byte changed
must either raise ConfigError naming the file, which the CLI turns into
exit 2, or load as a value the format writes back and reads unchanged: a
changed digit is still a well-formed file, so "loads equal to the
original" cannot be asked of a text format without a checksum.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulgain.errors import ConfigError
from simulgain.metrics import ParetoPoint, read_pareto_csv, write_pareto_csv
from simulgain.policy import (
    PolicyConfig,
    load_params,
    params_to_vector,
    save_params,
    vector_to_params,
)
from simulgain.streaming import EmissionLog, load_logs, save_logs
from simulgain.synth import Utterance, load_dataset, save_dataset

positive = st.floats(1e-3, 1e3)
ints = st.integers(0, 10**6)


@st.composite
def utterances(draw):
    n = draw(st.integers(1, 5))
    boundaries = np.cumsum(draw(st.lists(positive, min_size=n, max_size=n)))
    return Utterance(id=draw(st.text(max_size=12)), duration_s=float(boundaries[-1]) + draw(st.floats(0.0, 10.0)),
                     target_tokens=draw(st.lists(ints, min_size=n, max_size=n)), boundaries_s=boundaries,
                     ambiguous_mask=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                     aligned=draw(st.booleans()))


@st.composite
def emission_logs(draw):
    n = draw(st.integers(0, 5))
    duration = draw(positive)
    delays = sorted(draw(st.lists(st.floats(duration * 1e-3, duration), min_size=n, max_size=n)))
    return EmissionLog(utt_id=draw(st.text(max_size=12)), tokens=draw(st.lists(ints, min_size=n, max_size=n)),
                       delays_s=delays, duration_s=duration, n_forced=draw(st.integers(0, n)),
                       truncated=draw(st.booleans()))


pareto_points = st.builds(ParetoPoint, alpha=st.floats(allow_nan=False), mean_laal_s=st.floats(0.0, 1e3),
                          quality=st.floats(0.0, 100.0), read_loop_pct=st.floats(0.0, 100.0))

json_values = st.one_of(st.none(), st.booleans(), ints, st.floats(allow_nan=False), st.text(max_size=8))


@st.composite
def checkpoints(draw):
    """(params, extra) of a small head; the parameters may be any float64, NaN and inf included."""
    timed = draw(st.booleans())
    config = PolicyConfig(input_dim=draw(st.sampled_from([2, 4] if timed else [1, 2, 3])),
                          hidden_dims=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))),
                          use_time_embedding=timed, time_base=draw(st.floats(1.5, 1e4)))
    dims = config.layer_dims
    size = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    vector = np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=np.float64)
    extra = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
    return vector_to_params(config, vector), extra


def _save_checkpoint(value, path):
    params, extra = value
    save_params(params, path, extra)


def _canon_checkpoint(value):
    params, extra = value
    return params.config, params_to_vector(params).tobytes(), json.dumps(extra, sort_keys=True)


def _canon_utterance(utt):
    return (utt.id, float(utt.duration_s), repr(utt.target_tokens.tolist()), utt.boundaries_s.tolist(),
            utt.ambiguous_mask.tolist(), utt.aligned)


def _canon_log(log):
    return (log.utt_id, repr(log.tokens), [float(d) for d in log.delays_s], float(log.duration_s),
            repr(log.n_forced), log.truncated)


# name: (value strategy, save(value, path), load(path), canonical form of a loaded value).  The
# canonical forms keep the type of every integer field, so a token read as 3.5 and written as 3
# shows.
FORMATS = {
    "dataset": (st.lists(utterances(), min_size=1, max_size=3), save_dataset, load_dataset,
                lambda utts: [_canon_utterance(u) for u in utts]),
    "emission_logs": (st.lists(emission_logs(), min_size=1, max_size=3), save_logs, load_logs,
                      lambda logs: [_canon_log(log) for log in logs]),
    "pareto_csv": (st.lists(pareto_points, min_size=1, max_size=3), write_pareto_csv, read_pareto_csv,
                   lambda points: [tuple(map(repr, (p.alpha, p.mean_laal_s, p.quality, p.read_loop_pct)))
                                   for p in points]),
    "checkpoint": (checkpoints(), _save_checkpoint, load_params, _canon_checkpoint),
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_round_trip(folder, name, data):
    values, save, load, canon = FORMATS[name]
    value = data.draw(values)
    path = folder / f"{name}.rt"
    save(value, path)
    assert canon(load(path)) == canon(value)


def check_corrupted(name, path, blob):
    """Write ``blob`` to ``path``: it must raise ConfigError naming it or load a value that round-trips."""
    _, save, load, canon = FORMATS[name]
    path.write_bytes(bytes(blob))
    try:
        loaded = load(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
        return
    again = path.with_name(path.name + ".again")
    save(loaded, again)
    assert canon(load(again)) == canon(loaded), bytes(blob)


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_single_byte_corruption(folder, name, data):
    values, save, _, _ = FORMATS[name]
    path = folder / f"{name}.bad"
    save(data.draw(values), path)
    blob = bytearray(path.read_bytes())
    i = data.draw(st.integers(0, len(blob) - 1), label="position")
    blob[i] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[i]), label="byte")
    check_corrupted(name, path, blob)


# Fixed files, corrupted at every position (every header position for the checkpoint,
# whose float bytes may take any value) by every byte that can change a number or the
# structure: 305 -> 3.5, -1, 3e5 are the changes a random search rarely draws.
EXAMPLES = {
    "dataset": [Utterance(id="u-1", duration_s=2.05, target_tokens=[305, 0, 12], boundaries_s=[0.5, 1.25, 2.0],
                          ambiguous_mask=[False, True, False])],
    "emission_logs": [EmissionLog("u-1", [305, 12, 0], [0.25, 0.5, 2.05], 2.05, n_forced=1),
                      EmissionLog("u-2", [], [], 1.5)],
    "pareto_csv": [ParetoPoint(-0.5, 1.25, 33.5, 0.0), ParetoPoint(float("inf"), 0.25, 1e-5, 100.0)],
    "checkpoint": (vector_to_params(PolicyConfig(input_dim=2, hidden_dims=(2,), use_time_embedding=True),
                                    np.linspace(-1.0, 1.0, 9)), {"variant": "REINA_TAN", "n": 305}),
}
STRUCTURAL_BYTES = b'0123456789.-+eE_,:"[]{} \n\r\\ntfaINx\x00\x7f\x85\xff'


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_every_structural_byte_change(folder, name):
    _, save, _, _ = FORMATS[name]
    path = folder / f"{name}.each"
    save(EXAMPLES[name], path)
    original = path.read_bytes()
    positions = range(original.index(b"\n") + 1 if name == "checkpoint" else len(original))
    for i in positions:
        for byte in STRUCTURAL_BYTES:
            if byte != original[i]:
                blob = bytearray(original)
                blob[i] = byte
                check_corrupted(name, path, blob)



# (format, text of an EXAMPLES file, its replacement): a NaN or infinite number where the format
# needs a finite one.  An infinite alpha is a valid pareto row (always write), and a checkpoint's
# weights may take any float64 value.
NON_FINITE = [
    *[(name, old, new.format(v)) for v in ("NaN", "Infinity") for name, old, new in [
        ("dataset", '"duration_s":2.05', '"duration_s":{}'),
        ("dataset", '[0.5,1.25,', '[0.5,{},'),
        ("emission_logs", '"T":2.05', '"T":{}'),
        ("emission_logs", '[0.25,0.5,', '[0.25,{},'),
        ("emission_logs", '"T":1.5', '"T":{}'),
    ]],
    *[("pareto_csv", "-0.5,1.25,33.5,0.0", row) for row in (
        "nan,1.25,33.5,0.0", "-0.5,nan,33.5,0.0", "-0.5,inf,33.5,0.0", "-0.5,1.25,nan,0.0", "-0.5,1.25,inf,0.0",
        "-0.5,1.25,33.5,nan", "-0.5,1.25,33.5,inf")],
    ("checkpoint", '"time_base":100.0', '"time_base":NaN'),
]


# A value of a JSON type its field does not take, a number no float can hold, or a token id no
# 64-bit integer can.  A string id or a bool flag is never coerced: "no" is not false, and 2 is not true.
WRONG_TYPE = [
    ("dataset", '"id":"u-1"', '"id":5'),
    ("dataset", '"duration_s":2.05', '"duration_s":"2.05"'),
    ("dataset", '"aligned":true', '"aligned":"no"'),
    ("dataset", '"aligned":true', '"aligned":1'),
    ("dataset", '"ambiguous":[false,true,false]', '"ambiguous":[2,0,false]'),
    ("dataset", '[0.5,1.25,', '["0.5",1.25,'),
    pytest.param("dataset", '[0.5,1.25,', '[0.5,1' + '0' * 400 + ',', id="dataset-boundary-of-401-digits"),
    pytest.param("dataset", '[305,0,12]', f'[305,{2**70},12]', id="dataset-token-beyond-int64"),
    ("emission_logs", '"utt_id":"u-1"', '"utt_id":5'),
    ("emission_logs", '[0.25,0.5,', '["0.25",0.5,'),
    ("emission_logs", '"T":1.5', '"T":true'),
    ("emission_logs", '"forced_tail":1', '"forced_tail":true'),
    ("emission_logs", '"read_loop":false,"truncated":false', '"read_loop":false,"truncated":"no"'),
    ("emission_logs", '"read_loop":false,"truncated":false', '"read_loop":false,"truncated":0'),
    ("checkpoint", '"use_time_embedding":true', '"use_time_embedding":"no"'),
]


def check_replaced(folder, name, old, new):
    """An EXAMPLES file with its one ``old`` text replaced by ``new`` must raise ConfigError naming it."""
    _, save, load, _ = FORMATS[name]
    path = folder / f"{name}.replaced"
    save(EXAMPLES[name], path)
    blob = path.read_bytes()
    assert blob.count(old.encode()) == 1
    path.write_bytes(blob.replace(old.encode(), new.encode()))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("name, old, new", NON_FINITE)
def test_non_finite_number_is_config_error(folder, name, old, new):
    check_replaced(folder, name, old, new)


@pytest.mark.parametrize("name, old, new", WRONG_TYPE)
def test_value_of_the_wrong_type_is_config_error(folder, name, old, new):
    check_replaced(folder, name, old, new)
