from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tabattr import (
    FeatureField,
    PromptTemplate,
    TabularInstance,
    build_prompts,
    load_dataset,
    load_schema,
    load_template,
    normalize_key,
    normalize_value,
)
from tabattr.errors import DatasetError, NormalizationError, SerializationError
from conftest import ADULT_KEYS, make_instance
from reference import load_dataset_eagerly


def parse_features(serialized: str) -> list[tuple[str, str]]:
    """Invert the feature string: split on spaces, then at the first colon."""
    return [tuple(token.split(":", 1)) for token in serialized.split(" ")]


def input_block(prompt: str) -> str:
    """The feature string between the default template's markers."""
    return prompt.partition("### Input:")[2].partition("### Response:")[0].strip("\n")


def one_prompt(instance, keep=None, template=PromptTemplate()) -> str:
    """``build_prompts`` of one membership row holding the keys in ``keep``, or all."""
    row = [[keep is None or key in keep for key in instance.keys]]
    return build_prompts(template, instance, np.array(row, dtype=bool))[0]


def serialize(fields) -> str:
    """The feature string ``build_prompts`` writes for exactly ``fields``."""
    return input_block(one_prompt(TabularInstance(0, tuple(fields))))


class TestNormalizeValue:
    def test_categorical_lowercases(self):
        assert normalize_value("Private", "categorical") == "private"

    def test_categorical_whitespace_to_underscore(self):
        assert normalize_value("Never married", "categorical") == "never_married"

    def test_whitespace_runs_collapse(self):
        assert normalize_value("Never \t married", "categorical") == "never_married"

    def test_numeric_truncates_toward_zero(self):
        # independent oracle: int(float(x)) truncates toward zero
        for raw, expected in [("50.9", 50), ("50", 50), ("-3.7", -3), ("0.99", 0)]:
            assert normalize_value(raw, "numeric") == str(expected) == str(int(float(raw)))

    def test_empty_after_trim_names_column(self):
        with pytest.raises(NormalizationError, match="age"):
            normalize_value("   ", "numeric", column="age")

    def test_bad_numeric_names_column(self):
        with pytest.raises(NormalizationError, match="fnlwgt"):
            normalize_value("n/a", "numeric", column="fnlwgt")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            normalize_value("x", "ordinal")


class TestSerializeFeatures:
    def test_two_fields(self):
        fields = (FeatureField("age", "50"), FeatureField("workclass", "private"))
        assert serialize(fields) == "age:50 workclass:private"

    def test_singleton(self):
        assert serialize((FeatureField("age", "50"),)) == "age:50"

    def test_adult_width_has_thirteen_spaces(self):
        instance = make_instance(0, ADULT_KEYS)
        assert serialize(instance.fields).count(" ") == len(ADULT_KEYS) - 1

    def test_empty_coalition_rejected(self):
        with pytest.raises(SerializationError):
            one_prompt(make_instance(0, ["age", "sex"]), keep=())

    def test_round_trip_with_colon_in_value(self):
        fields = (FeatureField("ratio", "50:50"), FeatureField("b", "x_y"))
        parsed = parse_features(serialize(fields))
        assert parsed == [("ratio", "50:50"), ("b", "x_y")]


_key_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12)
_value_st = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_:.<>=-", min_size=1, max_size=12
)


@given(st.dictionaries(_key_st, _value_st, min_size=1, max_size=10))
def test_serialize_round_trip_property(mapping):
    fields = tuple(FeatureField(k, v) for k, v in mapping.items())
    assert parse_features(serialize(fields)) == [(f.key, f.value) for f in fields]


class TestFeatureFieldInvariants:
    def test_key_whitespace_rejected(self):
        with pytest.raises(ValueError):
            FeatureField("a b", "x")

    def test_key_colon_rejected(self):
        with pytest.raises(ValueError):
            FeatureField("a:b", "x")

    def test_key_uppercase_rejected(self):
        with pytest.raises(ValueError):
            FeatureField("Age", "x")

    def test_value_whitespace_rejected(self):
        with pytest.raises(ValueError):
            FeatureField("age", "5 0")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_instance(0, ["age", "age"])


class TestBuildPrompt:
    def test_markers_appear_exactly_once(self, template):
        prompt = one_prompt(make_instance(0, ADULT_KEYS), template=template)
        assert prompt.count("### Input:") == 1
        assert prompt.count("### Response:") == 1
        assert prompt.index("### Input:") < prompt.index("### Response:")

    def test_absent_feature_leaves_no_residue(self, template):
        instance = make_instance(0, ADULT_KEYS)
        prompt = one_prompt(instance, set(ADULT_KEYS) - {"education"}, template)
        assert "education:" not in prompt
        assert "education_num:" in prompt
        assert "  " not in prompt

    def test_coalitions_differ_only_inside_input_block(self, template):
        # oracle: byte diff restricted to the region between the markers
        instance = make_instance(0, ADULT_KEYS)
        full = one_prompt(instance, template=template)
        partial = one_prompt(instance, ADULT_KEYS[:5], template)
        for prompt in (full, partial):
            head, _, rest = prompt.partition("### Input:")
            assert head == full.partition("### Input:")[0]
            assert rest.partition("### Response:")[2] == full.partition("### Input:")[2].partition("### Response:")[2]
        assert input_block(full) != input_block(partial)

    def test_deterministic(self, template):
        instance = make_instance(0, ADULT_KEYS)
        assert one_prompt(instance, template=template) == one_prompt(instance, template=template)

    def test_template_fixity_validation(self):
        with pytest.raises(ValueError):
            PromptTemplate(instruction="contains ### Input: marker")
        with pytest.raises(ValueError):
            PromptTemplate(input_marker="")


class TestNormalizeKey:
    def test_examples(self):
        assert normalize_key("Hours per week") == "hours_per_week"
        assert normalize_key("Marital Status") == "marital_status"
        assert normalize_key("odd:name") == "odd_name"

    def test_empty_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_key("   ")


def _write_csv(path, rows):
    path.write_text("\n".join(",".join(row) for row in rows) + "\n", encoding="utf-8")


@pytest.fixture
def toy_csv(tmp_path):
    csv_path = tmp_path / "toy.csv"
    _write_csv(
        csv_path,
        [
            ["Age", "Work Class", "income"],
            ["50.9", "Private", ">50K"],
            ["23", "Never worked", "<=50K"],
            ["31", "", ">50K"],
        ],
    )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps({"Age": "numeric", "Work Class": "categorical", "income": "label"})
    )
    return csv_path, schema_path


class TestLoadDataset:
    def test_toy_rows_in_order(self, toy_csv):
        csv_path, schema_path = toy_csv
        instances = load_dataset(csv_path, load_schema(schema_path))
        assert [i.index for i in instances] == [0, 1, 2]
        assert instances[0].keys == ("age", "work_class")
        assert instances[0].fields[0].value == "50"
        assert instances[0].fields[0].raw_value == "50.9"
        assert instances[1].fields[1].value == "never_worked"
        assert instances[0].label == ">50k"

    def test_missing_cell_becomes_unknown(self, toy_csv):
        csv_path, schema_path = toy_csv
        instances = load_dataset(csv_path, load_schema(schema_path))
        assert instances[2].fields[1].value == "unknown"

    def test_row_arity_mismatch_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        _write_csv(path, [["a", "b"], ["1", "2"], ["only-one"]])
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset(path, {"a": "numeric", "b": "numeric"})

    def test_schema_column_missing_from_header(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["a"], ["1"]])
        with pytest.raises(DatasetError, match="missing from header"):
            load_dataset(path, {"a": "numeric", "b": "numeric"})

    def test_header_column_not_in_schema(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["a", "b"], ["1", "2"]])
        with pytest.raises(DatasetError, match="not in schema"):
            load_dataset(path, {"a": "numeric"})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nope.csv", {"a": "numeric"})

    def test_columns_normalizing_to_same_key(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["a b", "a_b"], ["x", "y"]])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(path, {"a b": "categorical", "a_b": "categorical"})

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["a"], ["oops"]])
        with pytest.raises(DatasetError, match="row 2"):
            load_dataset(path, {"a": "numeric"})


COLUMN_NAMES = st.sampled_from(["a", "A", "b b", "b_b", "c:d", "c_d", "Age", " ", "x"])
COLUMN_KINDS = st.sampled_from(["numeric", "categorical", "label"])
CELLS = st.sampled_from(
    ["", "  ", "12", " 3.7 ", "-0.5", "1e3", "1e400", "inf", "nan", "abc", "Never  Worked",
     "x:y", "1,5", "Tab\tHere"]
)


@st.composite
def csv_files(draw):
    """A header, a schema that mostly matches it, and rows of mostly the right width."""
    header = draw(st.lists(COLUMN_NAMES, min_size=1, max_size=5, unique=True))
    schema = {name.strip(): draw(COLUMN_KINDS) for name in header}
    change = draw(st.sampled_from(["none"] * 6 + ["drop", "add"]))
    if change == "drop":
        schema.pop(next(iter(schema)))
    elif change == "add":
        schema["extra"] = "numeric"
    widths = st.sampled_from([len(header)] * 8 + [len(header) - 1, len(header) + 1])
    rows = draw(st.lists(widths.flatmap(lambda n: st.lists(CELLS, min_size=n, max_size=n)),
                         max_size=6))
    empty_file = draw(st.sampled_from([False] * 19 + [True]))
    return ([] if empty_file else [header] + rows), schema


# Numbers (with "_" and Arabic-Indic digits, which float reads) three to one.
NUMERIC_VALUES = st.sampled_from(["", " ", "7", "+3.9", "-0.5", "1_000", "\u0663\u0664"] * 3
                                 + ["nan", "inf", "1e400", "abc"])
PADDING = st.sampled_from(["", " ", "\x1c", "\x1d", "\x1e", "\x1f"])
PADDED_VALUES = st.builds(lambda left, value, right: left + value + right,
                          PADDING, NUMERIC_VALUES, PADDING)


@st.composite
def numeric_csv_files(draw):
    """Numeric columns whose cells may be blank, padded (in half the files)
    or not finite numbers, in rows of which a few have the wrong width."""
    header = ["a", "b", "c"][: draw(st.integers(1, 3))]
    cells = draw(st.sampled_from([NUMERIC_VALUES, PADDED_VALUES]))
    widths = st.sampled_from([len(header)] * 10 + [len(header) + 1])
    rows = draw(st.lists(widths.flatmap(lambda n: st.lists(cells, min_size=n, max_size=n)),
                         max_size=8))
    return [header] + rows, dict.fromkeys(header, "numeric")


def _loaded(load, path, schema):
    """Every row's instance as a list, or the type and message of the load error."""
    try:
        dataset = load(path, schema)
    except Exception as exc:  # the comparison covers every error the loaders raise
        return type(exc), str(exc)
    return [dataset[i] for i in range(len(dataset))]


class TestLazyDataset:
    """``load_dataset`` validates every row at load and builds a row's instance when read."""

    @staticmethod
    def _matches_the_eager_reference(case, tmp_path_factory):
        lines, schema = case
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle, lineterminator="\n").writerows(lines)
        expected = _loaded(load_dataset_eagerly, path, schema)
        assert _loaded(load_dataset, path, schema) == expected
        if isinstance(expected, list):
            dataset = load_dataset(path, schema)
            assert list(dataset) == expected
            assert [dataset[i - len(expected)] for i in range(len(expected))] == expected

    @settings(max_examples=300)
    @given(case=csv_files())
    def test_matches_the_eager_reference(self, case, tmp_path_factory):
        self._matches_the_eager_reference(case, tmp_path_factory)

    @settings(max_examples=300)
    @given(case=numeric_csv_files())
    def test_numeric_cells_match_the_eager_reference(self, case, tmp_path_factory):
        # A cell float() reads as a finite number skips the per-cell check;
        # every other cell must still get the reference's verdict, in order.
        self._matches_the_eager_reference(case, tmp_path_factory)

    def test_rows_are_built_when_read(self, toy_csv, built_rows):
        csv_path, schema_path = toy_csv
        dataset = load_dataset(csv_path, load_schema(schema_path))
        assert (len(dataset), built_rows) == (3, [])
        assert dataset[1].keys == ("age", "work_class")
        assert built_rows == [1]

    def test_negative_indices_count_from_the_end(self, toy_csv):
        csv_path, schema_path = toy_csv
        dataset = load_dataset(csv_path, load_schema(schema_path))
        assert dataset[-1] == dataset[2] and dataset[-1].index == 2
        assert dataset[-3] == dataset[0]

    @pytest.mark.parametrize("index", [3, 30, -4])
    def test_out_of_range_index_raises_index_error(self, toy_csv, index):
        csv_path, schema_path = toy_csv
        with pytest.raises(IndexError):
            load_dataset(csv_path, load_schema(schema_path))[index]

    def test_bad_cell_in_any_row_fails_at_load(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["a", "b"]] + [["1", "x"]] * 50 + [["oops", "x"]])
        with pytest.raises(DatasetError, match=r"row 52: cannot parse numeric value 'oops'"):
            load_dataset(path, {"a": "numeric", "b": "categorical"})

    def test_label_only_schema_fails_at_load(self, tmp_path):
        path = tmp_path / "d.csv"
        _write_csv(path, [["y"], ["yes"], ["no"]])
        with pytest.raises(ValueError, match="an instance needs at least one field"):
            load_dataset(path, {"y": "label"})


class TestSchemaAndTemplateFiles:
    def test_schema_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"a": "float"}))
        with pytest.raises(DatasetError, match="unknown kinds"):
            load_schema(path)

    def test_schema_rejects_two_labels(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"a": "label", "b": "label"}))
        with pytest.raises(DatasetError, match="multiple label"):
            load_schema(path)

    def test_text_template_is_instruction(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("Answer yes or no.\n")
        assert load_template(path) == PromptTemplate(instruction="Answer yes or no.")

    def test_json_template_sets_all_fields(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"instruction": "Go.", "suffix": ""}))
        template = load_template(path)
        assert template.instruction == "Go."
        assert template.suffix == ""
        prompt = one_prompt(make_instance(0, ["a"]), template=template)
        assert prompt.endswith("### Response:")
