"""The four value records: construction, checks, equality, hash, freezing, repr."""

import pickle

import pytest

from blockhh.blocks import BlockDescriptor
from blockhh.hochschild import VerificationReport
from blockhh.partitions import EMPTY, CoreQuotient, Partition

from oracles import CycleType

# class, valid field values in field order, their repr, and a second valid value
RECORDS = [
    (
        CoreQuotient,
        {"core": EMPTY, "quotient": (Partition((2,)), EMPTY)},
        "CoreQuotient(core=Partition(()), quotient=(Partition((2,)), Partition(())))",
        {"core": Partition((1,)), "quotient": (EMPTY, EMPTY)},
    ),
    (
        BlockDescriptor,
        {"p": 2, "core": EMPTY, "weight": 1},
        "BlockDescriptor(p=2, core=Partition(()), weight=1)",
        {"p": 3, "core": EMPTY, "weight": 1},
    ),
    (
        CycleType,
        {"multiplicities": ((1, 2), (3, 1))},
        "CycleType(multiplicities=((1, 2), (3, 1)))",
        {"multiplicities": ((2, 1),)},
    ),
    (
        VerificationReport,
        {"identity_name": "thm2", "p": 2, "order": 5, "first_discrepancy": (3, 4, 5)},
        "VerificationReport(identity_name='thm2', p=2, order=5, first_discrepancy=(3, 4, 5))",
        {"identity_name": "thm2", "p": 2, "order": 5, "first_discrepancy": None},
    ),
]

IDS = [r[0].__name__ for r in RECORDS]

# every ValueError the records raise, with its message; a CoreQuotient's p is
# its number of components, and VerificationReport has no check
INVALID = [
    (CoreQuotient, (EMPTY, (EMPTY,) * 4), r"p must be prime, got 4"),
    (CoreQuotient, (Partition((2,)), (EMPTY, EMPTY)),
     r"core Partition\(\(2,\)\) is not its own 2-core"),
    (BlockDescriptor, (4, EMPTY, 1), r"p must be prime, got 4"),
    (BlockDescriptor, (2, EMPTY, -1), r"weight must be nonnegative"),
    (BlockDescriptor, (2, Partition((2,)), 0),
     r"core Partition\(\(2,\)\) is not its own 2-core"),
    (BlockDescriptor, (1 << 32, EMPTY, 0), r"p must be below 2\^32"),
    (CoreQuotient, (EMPTY, ()), r"p must be prime, got 0"),
    (CycleType, (((2, 0),),), r"cycle lengths and multiplicities must be positive"),
    (CycleType, (((3, 1), (2, 1)),), r"sorted by distinct cycle length"),
]


@pytest.mark.parametrize("cls,fields,text,other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text, other):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert all(getattr(by_position, name) == value for name, value in fields.items())


@pytest.mark.parametrize("cls,args,message", INVALID)
def test_every_check_raises_its_value_error(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


@pytest.mark.parametrize("cls,fields,text,other", RECORDS, ids=IDS)
def test_value_equality_and_hash(cls, fields, text, other):
    a, b, c = cls(**fields), cls(**fields), cls(**other)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    assert a != tuple(fields.values())
    assert pickle.loads(pickle.dumps(a)) == a


def test_records_of_different_classes_differ():
    records = [cls(**fields) for cls, fields, _, _ in RECORDS]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b and b != a


@pytest.mark.parametrize("cls,fields,text,other", RECORDS, ids=IDS)
def test_assignment_raises(cls, fields, text, other):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls,fields,text,other", RECORDS, ids=IDS)
def test_repr_is_dataclass_style(cls, fields, text, other):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text,other", RECORDS, ids=IDS)
def test_missing_or_unknown_fields_are_type_errors(cls, fields, text, other):
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{next(iter(fields)): values[0]})
