"""The record types are NamedTuples with the contract of immutable records:
fields, their order and defaults, keyword construction, immutability, ==
and hash on fields, the Name(field=value) repr, and the checks that the
validated records run on every construction, with their exception types
and messages."""

import math

import numpy as np
import pytest

from label_oracle import label_record
from qbecc.burst import BurstAnalysis, BurstCapability
from qbecc.channel import (ChannelModel, CodeLabels, DecoderTable, EfResult, SweepPoint,
                           build_decoder)
from qbecc.classical import LinearCode
from qbecc.gf import GF2
from qbecc.qtpc import DispersalReport, InterleaverMap, QtpcSpec
from qbecc.registry import RegistryEntry
from qbecc.search import RowReport, SearchOutcome, SearchPlan, SearchRecord
from qbecc.stabilizer import F4Vector, StabilizerCode

REPETITION = dict(field=GF2, n=3, k=1, check_rows=((1, 1, 0), (0, 1, 1)))
RECORD = SearchRecord(n=13, k=1, l=3, qrb=3, saturates=True, degenerate=False,
                      construction="hermitian", genpoly1="1^6 2^5 3^3 2^1 1^0")

# (class, keyword arguments, the defaults the keywords leave out)
RECORDS = [
    (BurstAnalysis, dict(n=5, k=1, l=1, degenerate=False,
                         witness=(F4Vector(5, 3), F4Vector(5, 12)), checked_pairs=4), {}),
    (BurstCapability, dict(l=2, end_around=True), dict(witness=None)),
    (LinearCode, REPETITION, {}),
    (RegistryEntry, dict(id="13_1", n=13, k=1, l=3, qrb=3, degenerate=False,
                         construction="hermitian", genpolys=("1^0",)), dict(note="")),
    (SearchPlan, dict(n_values=(13, 15)),
     dict(constructions=("hermitian", "css"), max_seconds=None, max_candidates=None)),
    (SearchRecord, RECORD._asdict(), {}),
    (SearchRecord, dict(n=7, k=1, l=1, qrb=1, saturates=True, degenerate=False,
                        construction="css", genpoly1="1^3 1^1 1^0"), dict(genpoly2="")),
    (SearchOutcome, dict(records=(RECORD,), complete=True), {}),
    (RowReport, dict(entry_id="13_1", expected=(13, 1, 3, False, 3),
                     observed=(13, 1, 3, False, 3), match=True, seconds=0.5), dict(note="")),
    (F4Vector, dict(n=3, packed=0b100111), {}),
    (ChannelModel, dict(p=0.1, mu=0.5), {}),
    (CodeLabels, dict(n=1, k=1, columns=(0b1001, 0b0110)), {}),  # X: label 2, Z: label 1
    (EfResult, dict(ef_lower=0.9, residual=0.05, exact=False), {}),
    (SweepPoint, dict(code_id="13_1", decoder="combined", strategy="exact", p=0.01,
                      mu=0.5, ef_lower=0.99, residual=0.0, exact=True), {}),
    (QtpcSpec, dict(n1=15, k1=9, n2=6, k2=2, rho1=6, rho2=4,
                    expanded_check=((1, 0), (0, 1)), params=(90, 42)), {}),
    (InterleaverMap, dict(n1=15, n2=6, l1=3), {}),
    (DispersalReport, dict(burst_len=6, max_affected_subblocks=2, max_inner_burst=3,
                           worst_start=1, aligned_only=False), {}),
]
IDS = [f"{cls.__name__}-{len(kwargs)}" for cls, kwargs, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, defaults", RECORDS, ids=IDS)
def test_record_contract(cls, kwargs, defaults):
    record = cls(**kwargs)
    fields = {**kwargs, **defaults}
    assert cls._fields == tuple(fields) and record._asdict() == fields
    assert cls(*fields.values()) == record and hash(cls(**fields)) == hash(record)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_record_properties():
    assert BurstAnalysis(13, 1, 3, False, None, 0).saturates
    assert not BurstAnalysis(13, 1, 2, False, None, 0).saturates
    assert ChannelModel(0.3, 0.2).marginals == (1.0 - 0.3, 0.3 / 3.0, 0.3 / 3.0, 0.3 / 3.0)
    assert InterleaverMap(15, 6, 3).size == 90


@pytest.mark.parametrize("build, error, message", [
    (lambda: SearchPlan((13, 0)), ValueError, "code lengths must be at least 1, got 0"),
    (lambda: SearchPlan(n_values=(13, 14)), ValueError,
     "even lengths share a factor with the field characteristic"),
    (lambda: SearchPlan((13,), max_seconds=0.0), ValueError, "time budget must be positive"),
    (lambda: SearchPlan((13,), max_seconds=math.nan), ValueError,
     "time budget must be positive"),
    (lambda: SearchPlan((13,), max_candidates=0), ValueError,
     "candidate budget must be positive"),
    (lambda: SearchPlan((13,), ("hermitian", "steane")), ValueError,
     "unknown construction 'steane'"),
    (lambda: ChannelModel(-0.1, 0.5), ValueError,
     "depolarizing probability -0.1 outside [0, 1]"),
    (lambda: ChannelModel(p=0.1, mu=1.5), ValueError,
     "correlation degree 1.5 outside [0, 1]"),
    (lambda: EfResult(0.9, 0.2, False), AssertionError,
     "inconsistent bracket EfResult(ef_lower=0.9, residual=0.2, exact=False)"),
    (lambda: EfResult(ef_lower=-0.1, residual=0.0, exact=True), AssertionError,
     "inconsistent bracket EfResult(ef_lower=-0.1, residual=0.0, exact=True)"),
    (lambda: InterleaverMap(15, 6, 4), ValueError, "subblock height 4 must divide n1=15"),
    (lambda: InterleaverMap(n1=15, n2=6, l1=0), ValueError,
     "subblock height 0 must divide n1=15"),
])
def test_validated_records_refuse(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_decoder_table_keeps_its_labels_out_of_comparisons():
    code = label_record(StabilizerCode(3, [0b001010, 0b101000]))  # Z0 Z1 and Z1 Z2
    table = build_decoder(code, "random", t=1)
    fields = dict(code=code, mode="random", t=1, l=0, entries=table.entries)
    assert DecoderTable._fields == tuple(fields) and table._asdict() == fields
    other = DecoderTable(**fields, labels=table.labels[::-1].copy())
    assert other == table  # labels never compared, so no array truth value
    assert repr(table) == "DecoderTable(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    assert isinstance(table.labels, np.ndarray)
    for name in (*fields, "labels"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
    with pytest.raises(TypeError):  # the entries dict is unhashable
        hash(table)


# a record of each class that checks in __new__, and a change its check refuses
VALIDATED = [
    (SearchPlan((13,)), dict(n_values=(14,))),
    (ChannelModel(0.1, 0.5), dict(p=2.0)),
    (EfResult(0.5, 0.1, False), dict(residual=5.0)),
    (InterleaverMap(15, 6, 3), dict(l1=4)),
]


@pytest.mark.parametrize("record, invalid", VALIDATED,
                         ids=[type(r[0]).__name__ for r in VALIDATED])
def test_validated_records_refuse_replace_and_make(record, invalid):
    # NamedTuple's _make and _replace build by tuple.__new__, past the check,
    # so both are refused rather than left to return an invalid record
    cls = type(record)
    builds = (lambda: record._replace(**invalid),
              lambda: cls._make(tuple({**record._asdict(), **invalid}.values())),
              lambda: record._replace(), lambda: cls._make(tuple(record)))
    for build in builds:
        with pytest.raises(TypeError, match="not callable"):
            build()
    with pytest.raises((ValueError, AssertionError)):
        cls(**{**record._asdict(), **invalid})


def test_decoder_table_refuses_replace_and_make():
    # either would build a table with no labels
    table = build_decoder(label_record(StabilizerCode(3, [0b001010, 0b101000])), "random", t=1)
    with pytest.raises(TypeError, match="not callable"):
        table._replace(mode="burst")
    with pytest.raises(TypeError, match="not callable"):
        DecoderTable._make(tuple(table))
