"""Every value type is a frozen, slotted ``@frozen`` record.

:func:`repro.records.frozen` gives each record a generated ``__init__``
that stores through the record's slots instead of calling
``object.__setattr__`` per field.  These tests hold every record class of
the package to what ``dataclass(frozen=True)`` promised before: the same
constructor, the same defaults, the same validation, and the same
immutability, equality, hashing, copying and pickling.  A census keeps a
new value type from slipping back onto the slower dataclass ``__init__``.
CI runs this file on Python 3.10, 3.11 and 3.12, whose ``slots=True``
handling differs.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.core.identifier import DecoyIdentity
from repro.honeypot.logstore import LoggedRequest
from repro.net.packet import PROTO_UDP, IPv4Header, Packet, UDPSegment
from repro.protocols.dns.message import DnsHeader
from repro.records import frozen

PLAIN_FROZEN = {"repro.intel.exploitdb.Signature"}
"""Frozen dataclasses that stay plain: ``Signature`` has a
``cached_property``, which needs an instance ``__dict__``."""


def _frozen_dataclasses():
    """Qualified name -> class, for every frozen dataclass that a module
    of ``repro`` defines."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (inspect.isclass(value) and value.__module__ == info.name
                    and dataclasses.is_dataclass(value)
                    and value.__dataclass_params__.frozen):
                found[f"{info.name}.{value.__qualname__}"] = value
    return found


FROZEN = _frozen_dataclasses()
RECORDS = {name: cls for name, cls in FROZEN.items()
           if name not in PLAIN_FROZEN}

_IDENTITY = dict(sent_at=1_700_000_000, vp_address="100.96.0.1",
                 dst_address="198.51.100.7", ttl=64, sequence=7)
_PACKET = Packet(IPv4Header(src="100.96.0.1", dst="198.51.100.7", ttl=64,
                            protocol=PROTO_UDP), UDPSegment(5353, 53))
SAMPLES = {
    "Decoy": dict(identity=DecoyIdentity(**_IDENTITY), protocol="dns",
                  domain="d.www.experiment.domain", packet=_PACKET),
    "DecoyIdentity": _IDENTITY,
    "OutageWindow": dict(start=1.0, end=2.0),
    "FaultSpec": {},
    "LoggedRequest": dict(time=1.5, site="US", protocol="dns",
                          src_address="192.0.2.1",
                          domain="d.www.experiment.domain"),
    "EchConfig": dict(config_id=1, public_name="ech.example",
                      secret=bytes(range(16))),
    "IPv4Header": dict(src="100.96.0.1", dst="198.51.100.7", ttl=64,
                       protocol=PROTO_UDP),
    "UDPSegment": dict(src_port=5353, dst_port=53),
    "TCPSegment": dict(src_port=40000, dst_port=80),
    "SnifferSpec": dict(asn=4134, router_fraction=0.5, protocols=("dns",),
                        policy_name="onpath.cn"),
    "EdnsOptions": {},
    "DnsHeader": dict(txid=0x1234),
    "DnsQuestion": dict(qname="d.www.experiment.domain"),
    "ResourceRecord": dict(name="d.www.experiment.domain", rtype=1, ttl=60,
                           rdata="192.0.2.1"),
    "ClientHello": dict(server_name="d.www.experiment.domain",
                        random=bytes(32)),
    "TlsPlaintext": dict(content_type=22, fragment=b"\x01"),
    "ServerHello": dict(random=bytes(32), session_id=b"", cipher_suite=0x1301),
}
"""Valid values of the required fields of each record whose
``__post_init__`` checks them.  Every other record takes any values."""


def _required(cls) -> dict:
    """Keyword arguments for the required fields of ``cls``."""
    if "__post_init__" in vars(cls):
        assert cls.__name__ in SAMPLES, f"add a SAMPLES entry for {cls.__name__}"
        return dict(SAMPLES[cls.__name__])
    return {item.name: f"{cls.__name__}.{item.name}"
            for item in dataclasses.fields(cls)
            if item.default is dataclasses.MISSING}


def _full(cls) -> dict:
    """Keyword arguments for every field of ``cls``, defaults included."""
    kwargs = _required(cls)
    for item in dataclasses.fields(cls):
        kwargs.setdefault(item.name, item.default)
    return kwargs


def test_census_finds_the_package_records():
    """The walk sees the hot records, and only ``Signature`` stays plain."""
    names = {cls.__name__ for cls in RECORDS.values()}
    assert {"DnsHeader", "DnsMessage", "Packet", "IPv4Header", "DecoyRecord",
            "LoggedRequest", "ShadowingEvent", "Hop"} <= names
    assert set(FROZEN) - set(RECORDS) == PLAIN_FROZEN
    assert len(RECORDS) >= 71


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_every_frozen_dataclass_is_a_slotted_record(name):
    """Slotted, with the ``@frozen`` constructor: its closure holds one
    bound slot setter per field and nothing else (the ``dataclasses`` one
    closes over ``object`` to call its ``__setattr__``)."""
    cls = RECORDS[name]
    fields = dataclasses.fields(cls)
    assert vars(cls)["__slots__"] == tuple(item.name for item in fields)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert set(cls.__init__.__code__.co_freevars) == {
        f"__set_{item.name}__" for item in fields}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_matches_the_dataclass_one(name):
    cls = RECORDS[name]
    fields = dataclasses.fields(cls)
    kwargs = _full(cls)
    by_keyword = cls(**kwargs)
    by_position = cls(*(kwargs[item.name] for item in fields))
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    # An omitted argument takes its field's default.
    defaulted = cls(**_required(cls))
    for item in fields:
        if item.default is not dataclasses.MISSING:
            assert getattr(defaulted, item.name) == item.default
    assert defaulted == by_keyword
    # The parameters are the fields, in order, with their defaults.
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [item.name for item in fields]
    assert [p.default for p in parameters] == [
        inspect.Parameter.empty if item.default is dataclasses.MISSING
        else item.default for item in fields]
    assert cls.__match_args__ == tuple(item.name for item in fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_missing_or_unknown_argument_raises(name):
    cls = RECORDS[name]
    with pytest.raises(TypeError):
        cls(**_full(cls), not_a_field=1)
    required = _required(cls)
    if required:
        with pytest.raises(TypeError):
            cls(**dict(list(required.items())[1:]))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_frozen_and_has_no_dict(name):
    cls = RECORDS[name]
    record = cls(**_full(cls))
    field = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.not_a_field = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_pickle_and_replace_keep_equality_and_hash(name):
    cls = RECORDS[name]
    record = cls(**_full(cls))
    clones = (copy.copy(record), copy.deepcopy(record),
              pickle.loads(pickle.dumps(record)), dataclasses.replace(record))
    for clone in clones:
        assert type(clone) is cls
        assert clone == record
        assert hash(clone) == hash(record)
    assert dataclasses.astuple(clones[2]) == dataclasses.astuple(record)
    assert dataclasses.asdict(clones[2]) == dataclasses.asdict(record)


def test_post_init_validation_still_raises():
    with pytest.raises(ValueError, match="transaction id"):
        DnsHeader(txid=0x10000)
    with pytest.raises(ValueError, match="unknown protocol"):
        LoggedRequest(time=0.0, site="US", protocol="ftp",
                      src_address="192.0.2.1", domain="d.example")
    with pytest.raises(ValueError, match="TTL out of range"):
        dataclasses.replace(IPv4Header(**SAMPLES["IPv4Header"]), ttl=256)


def test_post_init_normalizes_through_the_slot():
    from repro.protocols.dns.message import DnsQuestion

    question = DnsQuestion("D.WWW.Experiment.Domain.")
    assert question == DnsQuestion(qname="d.www.experiment.domain")


def test_repr_names_every_field():
    assert repr(DnsHeader(txid=5, flags=1)) == (
        "DnsHeader(txid=5, flags=1, qdcount=0, ancount=0, nscount=0, "
        "arcount=0)")


def test_field_named_self():
    @frozen
    class Odd:
        self: int

    assert Odd(3).self == 3 and Odd(self=3) == Odd(3)


@pytest.mark.parametrize("body", [
    "items: list = dataclasses.field(default_factory=list)",
    "count: int = dataclasses.field(init=False, default=0)",
    "count: int = dataclasses.field(default=0, kw_only=True)",
    "_: dataclasses.KW_ONLY\n    count: int = 0",
    "count: dataclasses.InitVar[int] = 0",
], ids=["default_factory", "init_false", "kw_only_field", "kw_only_marker",
        "initvar"])
def test_decorator_refuses_what_it_does_not_implement(body):
    source = f"class Refused:\n    {body}\n"
    namespace = {"dataclasses": dataclasses}
    exec(source, namespace)
    with pytest.raises(TypeError, match="is not supported"):
        frozen(namespace["Refused"])


def test_required_field_after_a_default_is_refused():
    """As ``dataclass`` refuses it when it writes the ``__init__``."""
    class Refused:
        count: int = 0
        name: str

    with pytest.raises(TypeError, match="non-default argument 'name'"):
        frozen(Refused)
