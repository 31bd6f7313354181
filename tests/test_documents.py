"""The strict JSON loader, and the CLI's handling of malformed config and checkpoint files."""

import ast
import builtins
import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tracemalloc
import types
import typing
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecast_uq import documents
from forecast_uq.cli import ModelPair, RunConfig, main
from forecast_uq.data import GeneratorConfig, generate_synthetic, write_series_csv
from forecast_uq.documents import _key, from_document, load_csv, load_json
from forecast_uq.exceptions import ConfigError
from forecast_uq.models import (
    ModelSpec,
    TrainConfig,
    _Checkpoint,
    _SavedParameter,
    build,
    save_checkpoint,
)
from forecast_uq.selective import ErrorKeepCurve, read_curve_csv, write_curve_csv


def rejects(cls, raw, message):
    with pytest.raises(ConfigError) as info:
        from_document(cls, raw, "config")
    assert str(info.value) == message


class TestFieldTypes:
    def test_int_rejects_bool_and_float(self):
        rejects(TrainConfig, {"max_epochs": True}, "config.max_epochs: expected an integer, got true")
        rejects(TrainConfig, {"max_epochs": 2.0}, "config.max_epochs: expected an integer, got 2.0")

    def test_float_takes_finite_numbers_and_stores_a_float(self):
        config = from_document(TrainConfig, {"learning_rate": 1}, "config")
        assert type(config.learning_rate) is float and config.learning_rate == 1.0
        rejects(TrainConfig, {"beta1": False}, "config.beta1: expected a finite number, got false")
        rejects(TrainConfig, {"eps": 10**400},
                "config.eps: expected a finite number, got 1" + "0" * 36 + "...")

    def test_bool_takes_only_true_and_false(self):
        assert from_document(RunConfig, {"desk": True}, "config").desk is True
        rejects(RunConfig, {"desk": 1}, "config.desk: expected true or false, got 1")

    def test_tuples_are_checked_element_by_element(self):
        assert from_document(RunConfig, {"seeds": [3, 4]}, "config").seeds == (3, 4)
        rejects(RunConfig, {"seeds": [0, "1"]}, 'config.seeds[1]: expected an integer, got "1"')
        families = {"families": {"trend": 1}}
        rejects(GeneratorConfig, {**families, "amplitude_range": [1, 2, 3]},
                "config.amplitude_range: expected 2 items, got 3")
        config = from_document(GeneratorConfig, {**families, "amplitude_range": [1, 2]}, "config")
        assert config.amplitude_range == (1.0, 2.0)

    def test_dict_values_are_checked(self):
        rejects(GeneratorConfig, {"families": {"trend": 1.5}},
                "config.families.trend: expected an integer, got 1.5")
        rejects(GeneratorConfig, {"families": {"a b": None}},
                'config.families."a b": expected an integer, got null')

    def test_nested_dataclass_follows_the_same_rule(self):
        run = from_document(RunConfig, {"train": {"max_epochs": 5}}, "config")
        assert run.train == TrainConfig(max_epochs=5)
        rejects(RunConfig, {"train": {"epochs": 5}}, "config.train.epochs: unknown key")
        rejects(RunConfig, {"train": []}, "config.train: expected an object, got []")

    def test_semantic_errors_carry_the_path(self):
        rejects(RunConfig, {"train": {"learning_rate": -1}},
                "config.train: learning_rate must be positive")
        rejects(GeneratorConfig, {"families": {"sawtooth": 1}},
                "config: unknown family 'sawtooth', expected one of "
                "('periodic', 'spikes', 'trend', 'noise')")

    def test_learning_rate_must_be_positive_and_finite(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigError, match="learning_rate must be positive"):
                TrainConfig(learning_rate=bad)
        for bad, shown in ((float("nan"), "NaN"), (float("inf"), "Infinity")):
            with pytest.raises(ConfigError) as info:
                TrainConfig(learning_rate=bad)
            assert str(info.value) == f"learning_rate: expected a finite number, got {shown}"
        assert TrainConfig(learning_rate=0.5).learning_rate == 0.5

    def test_model_pairs_are_objects_that_unpack_as_pairs(self):
        run = from_document(
            RunConfig, {"models": [{"backbone": "lstm", "uncertainty": "point"}]}, "config"
        )
        assert run.models == (("lstm", "point"),)
        ((backbone, uncertainty),) = run.models
        assert (backbone, uncertainty) == ("lstm", "point")
        rejects(RunConfig, {"models": [{"backbone": "lstm"}]}, "config.models[0].uncertainty: missing")
        rejects(RunConfig, {"models": [["lstm", "point"]]},
                'config.models[0]: expected an object, got ["lstm", "point"]')

    def test_required_and_unknown_keys(self):
        rejects(GeneratorConfig, {}, "config.families: missing")
        rejects(RunConfig, {"k": 2, "\n": 0}, 'config."\\n": unknown key')
        rejects(RunConfig, [], "config: expected an object, got []")

    def test_null_only_where_the_type_allows_it(self):
        rejects(RunConfig, {"k": None}, "config.k: expected an integer, got null")

    def test_round_trips_through_asdict(self):
        spec = ModelSpec.default("lstm", "mc_dropout", 14, desk=True)
        assert from_document(ModelSpec, asdict(spec), "config") == spec
        config = TrainConfig(seed=3, learning_rate=0.5)
        assert from_document(TrainConfig, json.loads(json.dumps(asdict(config))), "config") == config


# -- the same kind rule for configs built in Python -------------------------------

# a valid constructor call for every class that load_json can build
VALID = {
    RunConfig: {},
    ModelPair: {"backbone": "dense", "uncertainty": "point"},
    TrainConfig: {},
    GeneratorConfig: {"families": {"trend": 1}},
    ModelSpec: {"backbone": "dense", "uncertainty": "point", "input_dim": 3, "layer_sizes": (2,)},
    _Checkpoint: {"schema_version": 1, "architecture": ModelSpec("dense", "point", 3, (2,)),
                  "parameters": {}, "rng_seed": 0, "training_config": None},
    _SavedParameter: {"shape": (1,), "data": [0.0]},
}
# a NamedTuple checks nothing when built; the class holding it does
HOLDERS = {ModelPair: ("models[0].", lambda pair: RunConfig(models=(pair,)))}


def is_class(tp) -> bool:
    return dataclasses.is_dataclass(tp) or hasattr(tp, "_fields")


def loadable_classes() -> list:
    """Every class that load_json builds, found through the field types of the three documents."""
    found, todo = [], [RunConfig, GeneratorConfig, _Checkpoint]
    while todo:
        tp = todo.pop()
        todo += typing.get_args(tp)  # the parts of X | None, tuple[X, ...] and dict[str, X]
        if is_class(tp) and tp not in found:
            found.append(tp)
            todo += typing.get_type_hints(tp).values()
    return found


@pytest.mark.parametrize("cls", loadable_classes(), ids=lambda cls: cls.__name__)
def test_a_wrong_kind_built_in_python_names_the_field(cls):
    # a field added without a kind rule, or a class that skips check_kinds, fails here
    assert cls in VALID, f"add a valid {cls.__name__} call to VALID"
    place, hold = HOLDERS.get(cls, ("", lambda obj: obj))
    hold(cls(**VALID[cls]))
    for name, tp in typing.get_type_hints(cls).items():
        with pytest.raises(ConfigError) as info:
            hold(cls(**{**VALID[cls], name: 1 if tp is str else "1"}))
        assert str(info.value).startswith(f"{place}{name}: expected "), str(info.value)


def test_numpy_integers_are_stored_as_python_ints():
    config = GeneratorConfig(families={"trend": np.int64(3)}, seed=np.int64(3))
    assert config == GeneratorConfig(families={"trend": 3}, seed=3)
    assert type(config.families["trend"]) is int and type(config.seed) is int
    spec = ModelSpec("dense", "point", np.int32(3), (np.int64(2),))
    assert type(spec.input_dim) is int and type(spec.layer_sizes[0]) is int


def test_python_values_are_stored_as_a_document_stores_them():
    doc = {"train": {"learning_rate": 1}, "seeds": [3, 4],
           "models": [{"backbone": "lstm", "uncertainty": "point"}]}
    run = RunConfig(**copy.deepcopy(doc))
    assert run == from_document(RunConfig, doc, "config")
    assert run.train == TrainConfig(learning_rate=1.0) and run.seeds == (3, 4)
    assert run.models == (ModelPair("lstm", "point"),) and type(run.models[0]) is ModelPair


def test_an_integer_for_a_float_field_writes_the_same_checkpoint(tmp_path):
    model = build(ModelSpec("dense", "point", 3, (2,)), seed=0)
    configs = [TrainConfig(learning_rate=1), TrainConfig(learning_rate=1.0),
               from_document(TrainConfig, {"learning_rate": 1}, "config")]
    for i, config in enumerate(configs):
        assert type(config.learning_rate) is float
        save_checkpoint(model, tmp_path / f"{i}.json", config)
    assert len({(tmp_path / f"{i}.json").read_bytes() for i in range(3)}) == 1


class TestLoadJson:
    @pytest.mark.parametrize("text, reason", [
        ('{"train": {"learning_rate": NaN}}', ".train.learning_rate: expected a finite number, got NaN"),
        ('{"train": {"learning_rate": -Infinity}}',
         ".train.learning_rate: expected a finite number, got -Infinity"),
        ('{"train": {"learning_rate": 1e400}}',
         ".train.learning_rate: expected a finite number, got Infinity"),
        ('{"k": 2,}', ": invalid JSON: Expecting property name enclosed in double quotes: "
                      "line 1 column 9 (char 8)"),
        ("", ": invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[" * 100000, ": invalid JSON: maximum recursion depth exceeded while decoding a JSON "
                       "array from a unicode string"),
    ])
    def test_rejections_name_the_file(self, tmp_path, text, reason):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_json(path, RunConfig)
        assert str(info.value) == f"{path}{reason}"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xef\xbb\xbf" + b'{"k": 3}')
        assert load_json(path, RunConfig).k == 3

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xff{}")
        with pytest.raises(ConfigError, match="run.json: invalid JSON: 'utf-8' codec"):
            load_json(path, RunConfig)

    @pytest.mark.parametrize("prefix, position", [
        (b"", 6),
        (b"\xef\xbb\xbf", 9),  # the byte-order mark is counted, as load_csv counts it
        (b"\xef\xbb\xbf" + b" " * 20000, 20009),
    ], ids=["plain", "bom", "bom_then_20000_spaces"])
    def test_undecodable_byte_offset_counts_from_the_first_byte(self, tmp_path, prefix, position):
        path = tmp_path / "run.json"
        path.write_bytes(prefix + b'{"k": \xff}')
        with pytest.raises(ConfigError) as info:
            load_json(path, RunConfig)
        assert str(info.value) == (f"{path}: invalid JSON: 'utf-8' codec can't decode byte 0xff "
                                   f"in position {position}: invalid start byte")

    def test_readme_run_config_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        run = from_document(RunConfig, json.loads(block), "README.md")
        assert run.models == (("dense", "heteroscedastic"),) and run.desk


# -- the CLI on malformed files -------------------------------------------------

PROBES = [
    ("run", '{"seeds": 3}', "run.json.seeds: expected an array, got 3"),
    ("run", '{"k": "4"}', 'run.json.k: expected an integer, got "4"'),
    ("run", '{"desk": "no"}', 'run.json.desk: expected true or false, got "no"'),
    ("run", '{"seeds": [1.7]}', "run.json.seeds[0]: expected an integer, got 1.7"),
    ("run", '{"train": {"learning_rate": NaN}}',
     "run.json.train.learning_rate: expected a finite number, got NaN"),
    ("run", '{"std_threshold": 1e-6}', "run.json.std_threshold: unknown key"),
    ("generator", '{"families": {"trend": 3}, "noise": []}',
     "generator.json.noise: expected an object, got []"),
    ("generator", '{"families": {"trend": 3}, "seed": 1.5}',
     "generator.json.seed: expected an integer, got 1.5"),
    ("run", '{"train": {"beta1": 1.0}}', "run.json.train: beta1 must be in [0, 1)"),
    ("run", '{"train": {"beta1": -0.5}}', "run.json.train: beta1 must be in [0, 1)"),
    ("run", '{"train": {"beta2": 1.0}}', "run.json.train: beta2 must be in [0, 1)"),
    ("run", '{"train": {"beta2": 1.5}}', "run.json.train: beta2 must be in [0, 1)"),
    ("run", '{"train": {"eps": 0.0}}', "run.json.train: eps must be positive"),
    ("run", '{"train": {"eps": -1.0}}', "run.json.train: eps must be positive"),
    ("run", '{"seeds": [-1]}', "run.json: seeds must be non-negative, got -1"),
    ("run", '{"seeds": [0, 0]}', "run.json: seeds must not repeat"),
    ("run", '{"models": [{"backbone": "lstm", "uncertainty": "point"}, '
            '{"backbone": "lstm", "uncertainty": "point"}]}', "run.json: models must not repeat"),
    ("generator", '{"families": {"trend": 3}, "seed": -1}',
     "generator.json: seed must be non-negative, got -1"),
    ("run", '{"train": {"seed": 5}}', "run.json: train.seed is set per job by seeds; remove it"),
    ("run", '{"train": {"seed": -1}}', "run.json.train: seed must be non-negative"),
]

# Each document's valid base, and the JSON kinds each path accepts. Paths
# are "/"-separated; a numeric part indexes an array.
INT, NUM, BOOL, STR = {"int"}, {"int", "float"}, {"bool"}, {"str"}
ARR, OBJ = {"array"}, {"object"}
RUN_BASE = {
    "models": [{"backbone": "dense", "uncertainty": "point"}],
    "train": {"max_epochs": 1},
    "seeds": [0],
    "k": 2,
}
RUN_PATHS = {
    "schema_version": INT, "models": ARR, "models/0": OBJ, "models/0/backbone": STR,
    "models/0/uncertainty": STR, "train": OBJ, "train/max_epochs": INT, "train/patience": INT,
    "train/validation_fraction": NUM, "train/batch_size": INT, "train/seed": INT,
    "train/learning_rate": NUM, "train/beta1": NUM, "train/beta2": NUM, "train/eps": NUM,
    "seeds": ARR, "seeds/0": INT, "desk": BOOL, "mc_samples": INT, "curve_points": INT,
    "scatter_rows": INT, "k": INT,
}
GENERATOR_BASE = {
    "families": {"trend": 3},
    "series_length": 4,
    "amplitude_range": [10.0, 100.0],
    "noise": {"law": "constant", "scale": 1.0},
    "seed": 0,
}
GENERATOR_PATHS = {
    "families": OBJ, "families/trend": INT, "series_length": INT, "amplitude_range": ARR,
    "amplitude_range/1": NUM, "noise": OBJ, "noise/scale": NUM, "seed": INT,
    "schema_version": INT,
}
BIAS = "parameters/forecast_tower.out.bias"
CHECKPOINT_PATHS = {
    "schema_version": INT, "architecture": OBJ, "architecture/backbone": STR,
    "architecture/uncertainty": STR, "architecture/input_dim": INT,
    "architecture/layer_sizes": ARR, "architecture/layer_sizes/0": INT,
    "architecture/head_size": INT, "architecture/dropout_p": NUM, "parameters": OBJ,
    BIAS: OBJ, f"{BIAS}/shape": ARR, f"{BIAS}/shape/0": INT, f"{BIAS}/data": ARR,
    f"{BIAS}/data/0": NUM, "rng_seed": INT, "training_config": OBJ | {"null"},
    "training_config/max_epochs": INT, "training_config/learning_rate": NUM,
}
# objects whose keys are fixed, and the keys a document may not leave out
OBJECTS = {
    "run": ["", "train", "models/0"],
    "generator": ["", "noise"],
    "checkpoint": ["", "architecture", "parameters", BIAS, "training_config"],
}
REQUIRED = {
    "generator": ["families", "noise/scale"],
    "checkpoint": [
        "schema_version", "architecture", "parameters", "rng_seed", "training_config",
        "architecture/backbone", "architecture/uncertainty", "architecture/input_dim",
        "architecture/layer_sizes", BIAS, f"{BIAS}/shape", f"{BIAS}/data",
    ],
}
PATHS = {"run": RUN_PATHS, "generator": GENERATOR_PATHS, "checkpoint": CHECKPOINT_PATHS}

JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=6),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}


def csv_outcome(load, path):
    """What ``load`` makes of a CSV file: header, shape and array bytes, or the error message.

    ``load`` runs with warnings as errors, so a warning it prints fails the
    test. The filter covers only the call: a session-wide one would also
    catch warnings raised while pytest reports a failing example.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, data = load(path, "rows")
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return header, data.shape, data.tobytes()


def _scan_lines(path, rows: str) -> tuple[list[str], np.ndarray]:
    """The reference ``load_csv``: the whole file split into lines, each checked, then one loadtxt.

    It gives the array, or the message that names the file and line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if lines[-1] == "":
        lines.pop()
    # one column of blank lines is no rows either: loadtxt would skip them and warn
    if len(lines) < 2 or "," not in lines[0] and not any(lines[1:]):
        raise ValueError(f"{path}: no {rows} after the header")
    header = lines[0].split(",")
    for number, line in enumerate(lines[1:], start=2):
        if line.count(",") != len(header) - 1:
            raise ValueError(f"{path}, line {number}: {line.count(',') + 1} cells, header has {len(header)}")
    try:
        return header, np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        # parse line by line to find the first bad one, with numpy's reason
        for number, line in enumerate(lines[1:], start=2):
            try:
                if line:  # loadtxt skips a blank line, and warns of no data when it is alone
                    np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as line_exc:
                reason = str(line_exc).replace(" at row 0, column ", " in column ")
                raise ValueError(f"{path}, line {number}: {reason}") from None
        raise ValueError(f"{path}: {exc}") from None


# valid rows far past the text reader's first chunk, so a decode offset must count from byte 0
BIG_CSV = b"a,b,c\n" + b"1.5,-2.0,3e2\n" * 90_000


@st.composite
def csv_files(draw):
    """CSV bytes: a header of 1-3 columns (an empty one is one column), then rows that mostly fit it."""
    width = draw(st.integers(1, 3))
    fitting = st.lists(st.sampled_from([b"1", b"-2.5", b"3e2", b"0.1", b"7"]),
                       min_size=width, max_size=width).map(b",".join)
    odd = st.sampled_from([b"1,2,3", b"1.5,-2", b"7", b"", b" ", b"nan,1e999,0x1",
                           b"1,,3", b"\xff,1", b"\xc3\xa9", b"\x00,1", b"4,5\r6,7"])
    header = b"" if width == 1 and draw(st.booleans()) else b"a,b,c"[:2 * width - 1]
    blanks = draw(st.lists(st.just(b""), max_size=2))  # blank lines right after the header
    rows = draw(st.lists(st.one_of(fitting, fitting, odd), max_size=6))
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    return newline.join([header, *blanks, *rows]) + (newline if draw(st.booleans()) else b"")


class TestLoadCsv:
    """``load_csv`` gives the line-by-line scan's array or message for every file."""

    @pytest.mark.parametrize("data, want", [
        (b"a,b,c\n1,2,3\n4,5,6\n", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        (b"a,b,c\n1,2,3\n4,5,6", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),  # no final newline
        (b"a,b,c\r\n1,2,3\r\n4,5,6\r\n", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),  # CRLF
        (b"a,b,c\n1,2,3\n\n4,5,6\n", "{path}, line 3: 1 cells, header has 3"),  # blank line in the middle
        (b"a,b,c\n1,2,3\n\n", "{path}, line 3: 1 cells, header has 3"),  # blank last line
        (b"a,b,c\n\n1,2,3\n", "{path}, line 2: 1 cells, header has 3"),  # blank first data line
        (b"a,b,c\n\n", "{path}, line 2: 1 cells, header has 3"),  # only a blank line: loadtxt would warn
        (b"a,b,c\n", "{path}: no rows after the header"),  # header only
        (b"a,b,c", "{path}: no rows after the header"),
        (b"", "{path}: no rows after the header"),
        (b"a,b,c\n1,2,3\n4,5\n", "{path}, line 3: 2 cells, header has 3"),  # short last line
        (b"a,b,c\n1,2,3\n4,x,6\n", "{path}, line 3: could not convert string 'x' to float64 in column 2."),
        (b"a,b,c\n1,2,3\r4,5,6\n\n", "{path}, line 4: 1 cells, header has 3"),  # lone CR
        (b"a\n1\n\n2\n", [[1.0], [2.0]]),  # one column: loadtxt skips the blank line
        (b"a\n\n", "{path}: no rows after the header"),  # one column, every data line blank
        (b"a\n\n\n\n", "{path}: no rows after the header"),
        pytest.param(BIG_CSV[:1_100_000] + b"\xff" + BIG_CSV[1_100_001:],
                     "{path}: not UTF-8 text: invalid start byte at byte 1100000", id="big-bad-byte"),
        (b"\xef\xbb\xbfa,b\n1,\xff\n", "{path}: not UTF-8 text: invalid start byte at byte 9"),  # BOM counted
    ])
    def test_matches_the_line_scan(self, tmp_path, data, want):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        got = csv_outcome(load_csv, path)
        assert got == csv_outcome(_scan_lines, path)
        if isinstance(want, str):
            assert got == "ValueError: " + want.format(path=path)
        else:
            assert got[2] == np.array(want).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data, rows", [
        (b"a,b,c\n1.5,-2.0,3e2\n", 1),
        (b"a,b,c\n1.5,-2.0,3e2", 1),
        pytest.param(BIG_CSV, 90_000, id="big"),
    ])
    def test_well_formed_files_are_opened_once(self, tmp_path, monkeypatch, data, rows):
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        header, got = load_csv(path, "rows")
        monkeypatch.undo()
        assert opened == [path]
        assert header == ["a", "b", "c"]
        assert got.tobytes() == np.tile([1.5, -2.0, 300.0], (rows, 1)).tobytes()

    def test_peak_memory_stays_near_the_array(self, tmp_path):
        path = tmp_path / "wide.csv"
        row = ",".join(repr(0.1 * (i + 1) - 1.3) for i in range(26))
        path.write_text(",".join(f"c{i}" for i in range(26)) + "\n" + f"{row}\n" * 20_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, data = load_csv(path, "rows")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (20_000, 26)
        assert peak - before < 1.5 * data.nbytes

    def test_byte_order_mark_is_skipped(self, tmp_path):
        curve = ErrorKeepCurve(
            threshold=np.array([0.5, 1.5]), keep_fraction=np.array([0.5, 1.0]),
            mae=np.array([0.25, 0.75]), n_kept=np.array([1, 2]),
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = read_curve_csv(path)
        for name in ("threshold", "keep_fraction", "mae", "n_kept"):
            assert getattr(back, name).tobytes() == getattr(curve, name).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_curve_round_trip(self, tmp_path):
        curve = ErrorKeepCurve(
            threshold=np.array([-np.inf, 0.1, 0.30000000000000004, 7.5]),
            keep_fraction=np.array([0.0, 0.25, 0.5, 1.0]),
            mae=np.array([np.nan, 1e-300, 2.0 / 3.0, 1e300]),
            n_kept=np.array([0, 1, 2, 4]),
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        for name in ("threshold", "keep_fraction", "mae", "n_kept"):
            assert getattr(back, name).tobytes() == getattr(curve, name).tobytes()
        assert csv_outcome(load_csv, path) == csv_outcome(_scan_lines, path)

    @settings(max_examples=300, deadline=None)
    @given(data=csv_files())
    def test_random_files_match_the_line_scan(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        path.write_bytes(data)
        assert csv_outcome(load_csv, path) == csv_outcome(_scan_lines, path)


# floats whose repr a format could get wrong, beside ints that must keep no ".0"
EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 2.0 / 3.0]


@pytest.mark.parametrize("write, text, table", [
    (lambda path: documents.write_csv(path, ("n", "x"), enumerate(EDGE_FLOATS)),
     "n,x\n0,nan\n1,inf\n2,-inf\n3,-0.0\n4,5e-324\n5,1.7976931348623157e+308\n6,0.1\n"
     "7,0.6666666666666666\n",
     np.column_stack([np.arange(len(EDGE_FLOATS)), EDGE_FLOATS])),
    (lambda path: documents.write_json(path, {"b": [1, -0.0, 5e-324], "a": {"z": None, "y": "\u00e9\n"}}),
     '{\n  "a": {\n    "y": "\\u00e9\\n",\n    "z": null\n  },\n'
     '  "b": [\n    1,\n    -0.0,\n    5e-324\n  ]\n}\n',
     None),
], ids=["csv", "json"])
def test_writers_give_the_format_byte_for_byte(tmp_path, write, text, table):
    """Sorted keys, two-space indents and "\n" line ends; a CSV's floats read back bit for bit."""
    path = tmp_path / "artifact"
    write(path)
    assert path.read_bytes() == text.encode()
    if table is not None:
        header, data = load_csv(path, "rows")
        assert header == ["n", "x"] and data.tobytes() == table.tobytes()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_json_never_holds_nan_or_infinity(tmp_path, value):
    """No JSON artifact can hold ``Infinity`` or ``NaN``: the writer names the file and writes nothing."""
    path = tmp_path / "matrix.json"
    with pytest.raises(ValueError) as info:
        documents.write_json(path, {"rows": {"a": {"mean": value}}})
    assert str(info.value) == f"{path}: JSON cannot hold NaN or infinity"
    assert not path.exists()


SOURCE = Path(__file__).parents[1] / "src" / "forecast_uq"
WRITERS = {"dump", "dumps", "write_text", "write_bytes"}  # json's and pathlib's


def file_writes(tree) -> list[int]:
    """Lines that call ``open`` in a writing mode, ``json.dump``, ``json.dumps`` or a pathlib writer.

    A mode that is not a string literal counts as writing, since it may be.
    """
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":
            positional = node.args[1] if len(node.args) > 1 else None
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), positional)
            reads = mode is None or isinstance(mode, ast.Constant) and set(mode.value).isdisjoint("wax")
            writes = not reads
        else:
            writes = name in WRITERS
        if writes:
            lines.append(node.lineno)
    return lines


def test_only_documents_writes_files():
    """``documents.write_csv`` and ``documents.write_json`` own the on-disk format."""
    found = {}
    for module in sorted(SOURCE.rglob("*.py")):
        if module.name != "documents.py":
            lines = file_writes(ast.parse(module.read_text(encoding="utf-8")))
            if lines:
                found[str(module.relative_to(SOURCE))] = lines
    assert found == {}


def test_the_guard_sees_each_way_of_writing():
    calls = ['open(p, "w")', 'open(p, mode="a")', 'open(p, "xb")', "open(p, m)", "json.dump(d, fh)",
             "json.dumps(d)", "dumps(d)", "p.write_text(t)", "io.open(p, 'w')"]
    for call in calls:
        assert file_writes(ast.parse(call)) == [1], call
    for call in ['open(p)', 'open(p, "r")', 'open(p, "rb")', 'open(p, mode="r", encoding="utf-8")']:
        assert file_writes(ast.parse(call)) == [], call


def _parts(path: str) -> list:
    return [int(part) if part.isdigit() else part for part in path.split("/") if part]


def _at(doc, path: str):
    for part in _parts(path):
        doc = doc[part]
    return doc


@st.composite
def malformed(draw):
    """(document, operation, *arguments): one edit that makes a valid file invalid."""
    name = draw(st.sampled_from(sorted(PATHS)))
    ops = ["wrong_kind", "non_finite", "unknown_key", "truncate", "not_an_object"]
    op = draw(st.sampled_from(ops + (["delete"] if name in REQUIRED else [])))
    if op == "wrong_kind":
        path, accepted = draw(st.sampled_from(sorted(PATHS[name].items())))
        wrong = sorted(set(JSON_KINDS) - accepted)
        return name, "set", path, draw(st.sampled_from(wrong).flatmap(JSON_KINDS.get))
    if op == "non_finite":
        path = draw(st.sampled_from(sorted(p for p, k in PATHS[name].items() if k in (INT, NUM))))
        return name, "set", path, draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    if op == "unknown_key":
        return name, "add", draw(st.sampled_from(OBJECTS[name])), draw(st.text(max_size=6)), 0
    if op == "delete":
        return name, "delete", draw(st.sampled_from(REQUIRED[name]))
    if op == "truncate":
        return name, "truncate", draw(st.floats(0.0, 0.999))
    return name, "replace", draw(st.sampled_from(["null", "bool", "int", "str", "array"])
                                 .flatmap(JSON_KINDS.get))


def _render(base: dict, op: str, *args) -> str:
    doc = copy.deepcopy(base)
    if op == "truncate":
        text = json.dumps(doc)
        return text[: int(len(text) * args[0])]
    if op == "replace":
        return json.dumps(args[0])
    if op == "add":
        target = _at(doc, args[0])
        key = args[1] + "_" if args[1] in target else args[1]
        target[key] = args[2]
        return json.dumps(doc)
    *parents, last = _parts(args[0])
    parent = _at(doc, "/".join(map(str, parents)))
    if op == "delete":
        del parent[last]
    else:
        parent[last] = args[1]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("malformed")
    data = root / "data.csv"
    write_series_csv(generate_synthetic(GeneratorConfig(families={"trend": 20}, series_length=4)), data)
    ckpt_dir = root / "checkpoints"
    ckpt_dir.mkdir()
    ckpt = ckpt_dir / "model.ckpt.json"
    save_checkpoint(build(ModelSpec("dense", "point", 6, (2,)), seed=0), ckpt, TrainConfig())
    out = str(root / "out")
    paths = {"run": root / "run.json", "generator": root / "generator.json", "checkpoint": ckpt}
    argv = {
        "run": ["cluster", "--config", str(paths["run"]), "--data", str(data), "--out", out],
        "generator": ["generate", "--config", str(paths["generator"]), "--out", out + ".csv"],
        "checkpoint": ["evaluate", "--data", str(data), "--checkpoints", str(ckpt_dir), "--out", out],
    }
    bases = {"run": RUN_BASE, "generator": GENERATOR_BASE, "checkpoint": json.loads(ckpt.read_text())}
    return paths, argv, bases


def _run_cli(cli_files, name: str, text: str) -> tuple[int, str]:
    paths, argv, _ = cli_files
    paths[name].write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv[name])
    return code, err.getvalue()


@pytest.mark.parametrize("name, text, message", PROBES)
def test_probe_messages(cli_files, name, text, message):
    code, err = _run_cli(cli_files, name, text)
    assert code == 1
    assert err == f"error: {cli_files[0][name].parent}/{message}\n"


class Refused(Exception):
    """A constructor's ValueError, with the field path of the object it was building."""


def build_in_python(cls, raw: dict, place: str = ""):
    """``cls`` built by its constructor from decoded JSON, as a Python caller would build it.

    Arrays at tuple fields become tuples, and objects at class fields are
    built first. The first constructor to refuse raises ``Refused(place, message)``.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {k: decoded(hints[k], v, f"{place}.{k}" if place else k) for k, v in raw.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise Refused(place, str(exc)) from None


def decoded(tp, value, place: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_class(tp) and isinstance(value, dict):
        return build_in_python(tp, value, place)
    if origin in (typing.Union, types.UnionType):  # X | None
        return decoded(args[0], value, place)
    if origin is dict and isinstance(value, dict):
        return {k: decoded(args[1], v, f"{place}.{_key(k)}") for k, v in value.items()}
    if origin is tuple and isinstance(value, list):
        return tuple(decoded(args[0], v, f"{place}[{i}]") for i, v in enumerate(value))
    return value


CLASSES = {"run": RunConfig, "generator": GeneratorConfig, "checkpoint": _Checkpoint}


@settings(max_examples=150, deadline=None)
@given(case=malformed().filter(lambda case: case[1] == "set"))
@example(case=("run", "set", "train/max_epochs", 2.5))
@example(case=("run", "set", "train/learning_rate", "1"))
@example(case=("run", "set", "desk", 1))
@example(case=("run", "set", "seeds", [True]))
@example(case=("run", "set", "models/0/backbone", 3))
@example(case=("run", "set", "models/0", ["dense", "point"]))
@example(case=("run", "set", "train/learning_rate", float("inf")))
@example(case=("run", "set", "train/seed", 5))
@example(case=("generator", "set", "families/trend", True))
@example(case=("generator", "set", "noise/scale", float("nan")))
@example(case=("generator", "set", "noise/scale", [1]))
@example(case=("checkpoint", "set", "architecture/layer_sizes/0", 2.7))
@example(case=("checkpoint", "set", f"{BIAS}/data/0", float("nan")))
@example(case=("checkpoint", "set", f"{BIAS}/data/0", [1, 2]))
@example(case=("checkpoint", "set", "training_config", 3))
def test_a_wrong_value_built_in_python_fails_as_in_json(cli_files, case):
    name, _, path, value = case
    text = _render(cli_files[2][name], "set", path, value)
    with pytest.raises(ConfigError) as info:
        from_document(CLASSES[name], json.loads(text), "doc")
    with pytest.raises(Refused) as refused:
        build_in_python(CLASSES[name], json.loads(text))
    place, reason = refused.value.args
    where = f"doc.{place}" if place else "doc"
    assert str(info.value) in (f"{where}.{reason}", f"{where}: {reason}")


def test_valid_bases_run(cli_files):
    for name in ("run", "generator", "checkpoint"):
        assert _run_cli(cli_files, name, json.dumps(cli_files[2][name]))[0] == 0


@settings(max_examples=150, deadline=None)
@given(case=malformed())
@example(case=("run", "set", "seeds", 3))
@example(case=("run", "set", "k", "4"))
@example(case=("run", "set", "desk", "no"))
@example(case=("run", "set", "seeds", [1.7]))
@example(case=("run", "set", "train/learning_rate", float("nan")))
@example(case=("generator", "set", "noise", []))
@example(case=("generator", "set", "seed", 1.5))
@example(case=("generator", "set", "noise/scale", True))
@example(case=("run", "set", "train/beta1", 1.0))
@example(case=("run", "set", "train/beta1", -0.5))
@example(case=("run", "set", "train/beta2", 1.0))
@example(case=("run", "set", "train/beta2", 1.5))
@example(case=("run", "set", "train/eps", 0.0))
@example(case=("run", "set", "train/eps", -1.0))
@example(case=("run", "set", "seeds", [-1]))
@example(case=("run", "set", "seeds", [0, 0]))
@example(case=("run", "set", "models", [{"backbone": "dense", "uncertainty": "point"}] * 2))
@example(case=("generator", "set", "seed", -1))
@example(case=("run", "set", "train/seed", 5))
@example(case=("run", "set", "train/seed", -1))
@example(case=("checkpoint", "delete", "architecture/layer_sizes"))
@example(case=("checkpoint", "set", "architecture/dropout_p", "0.5"))
def test_malformed_file_gives_one_error_line(cli_files, case):
    name, *edit = case
    code, err = _run_cli(cli_files, name, _render(cli_files[2][name], *edit))
    assert code == 1
    assert err.startswith(f"error: {cli_files[0][name]}") and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err
