"""Feature extraction, scaling, splitting, CSV round-trip, and stats."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proctriage.errors import DatasetTooSmall, EmptyListing, MalformedDatasetFile
from proctriage.features import (
    DATASET_HEADER,
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    ScalerParams,
    compute_stats,
    dataset_from_csv,
    dataset_to_csv,
    featurize,
    fit_scaler,
    format_stats,
    load_dataset,
    save_dataset,
    split_dataset,
)
from proctriage.proclist import parse_process_list


def _mk(pc, uc, label, origin=None):
    return LabeledSample(FeatureVector.from_counts(pc, uc), label, origin)


def _dataset(rows):
    return LabeledDataset(tuple(_mk(*r) for r in rows))


# -- featurize ---------------------------------------------------------------

def test_featurize_safe_fixture(safe_host_text):
    v = featurize(parse_process_list(safe_host_text))
    assert (v.process_count, v.user_count, v.ratio) == (220, 1, 220.0)


def test_featurize_sandbox_fixture(sandbox_host_text):
    v = featurize(parse_process_list(sandbox_host_text))
    assert (v.process_count, v.user_count, v.ratio) == (40, 4, 10.0)


def test_featurize_excludes_pid0_only():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "0\t0\t\t\tSystem Process\t\n"
        "4\t0\t\t\tSystem\t\n"
        "88\t4\t\t\tsmss.exe\t\n"
    )
    v = featurize(parse_process_list(text))
    assert v.process_count == 2


def test_featurize_owner_normalization():
    # same owner in different case and padding counts once
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "4\t0\t\t\tinit\tCORP\\Alice\n"
        "8\t4\t\t\tbash\tcorp\\alice \n"
        "12\t4\t\t\tvim\tCORP\\bob\n"
    )
    v = featurize(parse_process_list(text))
    assert v.user_count == 2


def test_featurize_floors_users_at_one():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "4\t0\t\t\tinit\t\n"
        "8\t4\t\t\tbash\t\n"
    )
    v = featurize(parse_process_list(text))
    assert v.user_count == 1
    assert v.ratio == 2.0


def test_featurize_pid0_only_listing_rejected():
    text = (
        "PID\tPPID\tARCH\tSESS\tNAME\tOWNER\n"
        "0\t0\t\t\tSystem Process\t\n"
    )
    with pytest.raises(EmptyListing):
        featurize(parse_process_list(text))


def test_feature_vector_invariants():
    with pytest.raises(ValueError):
        FeatureVector(10, 3, 3.0)  # ratio mismatch
    with pytest.raises(ValueError):
        FeatureVector(3, 10, 0.3)  # users exceed processes
    with pytest.raises(ValueError):
        FeatureVector(0, 1, 0.0)
    with pytest.raises(ValueError, match="process_count is beyond float range"):
        FeatureVector(10**401, 10**400, 10.0)  # a consistent ratio, but counts no float holds
    v = FeatureVector.from_counts(10, 3)
    assert v.ratio == 10 / 3


# -- scaler ------------------------------------------------------------------

def test_fit_scaler_on_train_only():
    train = _dataset([(10, 1, Label.TARGET), (110, 5, Label.SANDBOX)])
    params = fit_scaler(train)
    assert params.mins == (10.0, 1.0, 10.0)
    assert params.maxs == (110.0, 5.0, 22.0)


def test_scaler_clamps_out_of_range():
    params = ScalerParams(mins=(10.0, 1.0, 2.0), maxs=(110.0, 5.0, 22.0))
    lo = params.transform(FeatureVector.from_counts(5, 1).as_array())
    hi = params.transform(FeatureVector.from_counts(500, 2).as_array())
    assert lo[0] == 0.0
    assert hi[0] == 1.0 and hi[2] == 1.0


def test_scaler_degenerate_feature_maps_to_zero():
    params = ScalerParams(mins=(10.0, 2.0, 5.0), maxs=(110.0, 2.0, 55.0))
    out = params.transform(np.array([[60.0, 2.0, 30.0], [60.0, 7.0, 30.0], [60.0, 1.0, 30.0]]))
    assert out[:, 1].tolist() == [0.0, 0.0, 0.0]  # out of range too, above and below


@settings(max_examples=60)
@given(
    pcs=st.lists(st.integers(min_value=1, max_value=400), min_size=2, max_size=12),
    ucs=st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=12),
    probe_pc=st.integers(min_value=1, max_value=400),
    probe_uc=st.integers(min_value=1, max_value=20),
)
def test_scaler_output_always_in_unit_cube(pcs, ucs, probe_pc, probe_uc):
    n = min(len(pcs), len(ucs))
    rows = [(max(p, u), u, Label.TARGET) for p, u in zip(pcs[:n], ucs[:n])]
    params = fit_scaler(_dataset(rows))
    probe = FeatureVector.from_counts(max(probe_pc, probe_uc), probe_uc)
    out = params.transform(probe.as_array())
    assert out.shape == (3,)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TRIPLE = st.tuples(_FINITE, _FINITE, _FINITE)


@settings(max_examples=300)
@given(mins=_TRIPLE, maxs=_TRIPLE, row=_TRIPLE)
# (1 - 1.0000000000000002) / 1e308 underflows to -0.0; (1e308 + 1e308) / inf is NaN
@example(mins=(1.0000000000000002, -1e308, 0.0), maxs=(1e308, 1e308, 1.0),
         row=(1.0, 1e308, 0.5))
def test_one_row_scales_as_transform_does_bit_for_bit(mins, maxs, row):
    params = ScalerParams(mins=mins, maxs=maxs)
    with np.errstate(all="ignore"):  # a span or an offset past the float range is inf
        want = params.transform(np.array(row))
    assert np.array(params.transform_row(row)).tobytes() == want.tobytes()


def test_fit_scaler_empty_raises():
    with pytest.raises(DatasetTooSmall):
        fit_scaler(LabeledDataset(()))


# -- split -------------------------------------------------------------------

def test_split_sizes_floor():
    data = _dataset([(10 + i, 1, Label.TARGET) for i in range(384)])
    train, test = split_dataset(data, 0.8, seed=7)
    assert (len(train), len(test)) == (307, 77)


def test_split_is_a_partition():
    data = _dataset([(10 + i, 1, Label.TARGET if i % 3 else Label.SANDBOX)
                     for i in range(50)])
    train, test = split_dataset(data, 0.7, seed=3)
    merged = sorted(s.features.process_count for s in (*train, *test))
    assert merged == sorted(s.features.process_count for s in data)
    assert len(train) + len(test) == len(data)


def test_split_deterministic_per_seed():
    data = _dataset([(10 + i, 1, Label.TARGET) for i in range(40)])
    a1, b1 = split_dataset(data, 0.8, seed=11)
    a2, b2 = split_dataset(data, 0.8, seed=11)
    a3, _ = split_dataset(data, 0.8, seed=12)
    assert a1.samples == a2.samples and b1.samples == b2.samples
    assert a1.samples != a3.samples


def test_split_stratified_keeps_class_shares():
    rows = [(20 + i, 1, Label.TARGET) for i in range(80)]
    rows += [(30 + i, 2, Label.SANDBOX) for i in range(20)]
    train, test = split_dataset(_dataset(rows), 0.75, seed=5, stratified=True)
    assert train.class_counts() == (60, 15)
    assert test.class_counts() == (20, 5)


def test_split_rejects_bad_inputs():
    data = _dataset([(10, 1, Label.TARGET), (20, 1, Label.SANDBOX)])
    with pytest.raises(ValueError):
        split_dataset(data, 1.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(data, 0.0, seed=0)
    with pytest.raises(DatasetTooSmall):
        split_dataset(_dataset([(10, 1, Label.TARGET)]), 0.8, seed=0)
    with pytest.raises(DatasetTooSmall):
        split_dataset(data, 0.2, seed=0)  # floor leaves train empty


def test_split_of_exactly_two_samples_puts_one_on_each_side():
    data = _dataset([(10, 1, Label.TARGET), (20, 1, Label.SANDBOX)])
    train, test = split_dataset(data, 0.5, seed=0)
    assert sorted(s.features.process_count for s in (*train, *test)) == [10, 20]
    assert (len(train), len(test)) == (1, 1)


# -- CSV ---------------------------------------------------------------------

def test_csv_roundtrip_exact(tmp_path):
    data = _dataset([
        (220, 1, Label.TARGET, "host-a"),
        (40, 4, Label.SANDBOX, "host-b"),
        (10, 3, Label.SANDBOX, None),
    ])
    path = tmp_path / "data.csv"
    save_dataset(data, path)
    again = load_dataset(path)
    assert again.samples == data.samples
    # ratio survives bitwise thanks to repr round-trip
    assert again.samples[2].features.ratio == 10 / 3


def test_csv_header_and_layout():
    data = _dataset([(40, 4, Label.SANDBOX, "h")])
    text = dataset_to_csv(data)
    lines = text.splitlines()
    assert lines[0] == ",".join(DATASET_HEADER)
    assert lines[1] == "40,4,10.0,1,h"


def test_csv_rejects_bad_header():
    with pytest.raises(MalformedDatasetFile) as err:
        dataset_from_csv("a,b,c\n1,2,3\n")
    assert err.value.line_no == 1


def test_csv_rejects_bad_cells():
    head = ",".join(DATASET_HEADER) + "\n"
    with pytest.raises(MalformedDatasetFile) as err:
        dataset_from_csv(head + "x,1,1.0,0,\n")
    assert err.value.line_no == 2
    with pytest.raises(MalformedDatasetFile):
        dataset_from_csv(head + "4,1,4.0,7,\n")  # label out of range
    with pytest.raises(MalformedDatasetFile):
        dataset_from_csv(head + "4,1,9.0,0,\n")  # ratio inconsistent
    with pytest.raises(MalformedDatasetFile):
        dataset_from_csv(head)  # no data rows
    with pytest.raises(MalformedDatasetFile):
        dataset_from_csv("")


def test_csv_refuses_a_row_of_the_wrong_width_and_skips_blank_rows():
    head = ",".join(DATASET_HEADER) + "\n"
    data = dataset_from_csv(head + "\n , ,,,\t\n40,4,10.0,1,h\n")
    assert [(s.features, s.label, s.origin) for s in data] == [
        (FeatureVector(40, 4, 10.0), Label.SANDBOX, "h")]
    with pytest.raises(MalformedDatasetFile) as err:
        dataset_from_csv(head + "40,4,10.0,1,h\n\n40,4,10.0,1\n")
    assert str(err.value) == "line 4: expected 5 cells"
    with pytest.raises(MalformedDatasetFile) as err:  # a quoted cell spans lines 2 and 3
        dataset_from_csv(head + '40,4,10.0,1,"a\nb"\n40,4,10.0,1\n')
    assert str(err.value) == "line 4: expected 5 cells"


def test_csv_cells_are_checked_in_order_with_their_own_messages():
    head = ",".join(DATASET_HEADER) + "\n"
    for row, message in [
        ("x,1,1.0,7,", "invalid literal for int() with base 10: 'x'"),
        ("4,1,four,7,", "could not convert string to float: 'four'"),
        ("4,1,4.0,7,", "label must be 0 or 1, got 7"),
        ("0,1,0.0,0,", "counts must be >= 1"),
        ("-2,-4,0.5,0,", "counts must be >= 1"),
        ("4,5,0.8,0,", "user_count exceeds process_count"),
        ("4,1,9.0,0,", "ratio is not process_count / user_count"),
        ("1" + "0" * 400 + ",1,1.0,0,", "integer division result too large for a float"),
    ]:
        with pytest.raises(MalformedDatasetFile) as err:
            dataset_from_csv(head + "40,4,10.0,1,\n" + row + "\n")
        assert str(err.value) == f"line 3: {message}", row


def test_a_cell_longer_than_the_csv_field_limit_is_a_malformed_line():
    head = ",".join(DATASET_HEADER) + "\n"
    long_row = "40,4,10.0,1," + "x" * (csv.field_size_limit() + 1)
    with pytest.raises(MalformedDatasetFile) as err:
        dataset_from_csv(head + "40,4,10.0,1,\n" + long_row + "\n40,4,10.0,1,\n")
    assert str(err.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"
    with pytest.raises(MalformedDatasetFile) as err:  # the first bad line is the one reported
        dataset_from_csv(head + "4,1,9.0,0,\n" + long_row + "\n")
    assert str(err.value) == "line 2: ratio is not process_count / user_count"


# -- stats -------------------------------------------------------------------

def test_compute_stats_values():
    data = _dataset([(10, 1, Label.TARGET), (30, 1, Label.TARGET),
                     (20, 2, Label.SANDBOX)])
    stats = compute_stats(data)
    assert stats["all"]["n"] == 3
    assert stats["safe"]["n"] == 2 and stats["unsafe"]["n"] == 1
    assert stats["safe"]["mean"][0] == 20.0
    assert stats["safe"]["std"][0] == 10.0  # population std
    assert stats["unsafe"]["min"] == stats["unsafe"]["max"]


def test_compute_stats_single_class():
    data = _dataset([(10, 1, Label.TARGET), (30, 1, Label.TARGET)])
    stats = compute_stats(data)
    assert stats["unsafe"] is None
    assert stats["safe"] is not None
    assert "Unsafe" not in format_stats(stats)


def test_compute_stats_empty_raises():
    with pytest.raises(DatasetTooSmall):
        compute_stats(LabeledDataset(()))


def test_dataset_helpers():
    data = _dataset([(10, 1, Label.TARGET), (20, 2, Label.SANDBOX),
                     (30, 3, Label.SANDBOX)])
    assert data.class_counts() == (1, 2)
    assert data.feature_matrix().shape == (3, 3)
    assert list(data.label_array()) == [0, 1, 1]
    assert len(data.subset(Label.TARGET)) == 1
    empty = LabeledDataset(())
    assert empty.feature_matrix().shape == (0, 3)
    assert math.isclose(data.feature_matrix()[0][2], 10.0)
