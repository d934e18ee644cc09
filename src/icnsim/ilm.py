"""Identifier-locator mapping: one resolver per run.

The resolver holds the naming service (HRN -> 160-bit identifier) and the
run's only record table (identifier -> name record), so a record registered
for any node answers for every node. Records may bind an identifier
indirectly to another identifier (data id -> device id); resolution chases
such bindings with loop detection.
"""

from __future__ import annotations

import hashlib
import ipaddress
import operator
from dataclasses import dataclass, field

from .errors import (
    CollisionDetected,
    EmptyHrn,
    IndirectLoop,
    InvalidParams,
    LocatorLimitExceeded,
    NotFound,
)

GLOBAL_ID_BITS = 160
LOCATOR_LIMIT = 4          # "less than five" network addresses per identifier
SERVICE_META_BITS = 32


class GlobalId(int):
    """A 160-bit identifier. It is an int, so the dicts and sets keyed by
    identifiers hash in C, and ids order as their values do."""

    __slots__ = ()

    def __new__(cls, value):
        try:
            value = operator.index(value)
        except TypeError:
            raise InvalidParams(f"identifier must be an integer, not {value!r}") from None
        if not (0 <= value < 1 << GLOBAL_ID_BITS):
            raise InvalidParams("identifier must fit in 160 bits")
        return super().__new__(cls, value)

    @property
    def value(self) -> int:
        return int(self)

    @property
    def hex(self) -> str:
        return format(self, "040x")

    def __repr__(self):
        return f"GlobalId({self.hex[:8]}..)"


@dataclass(frozen=True, order=True)
class NetworkAddress:
    version: str
    value: int

    def __post_init__(self):
        if self.version == "v4":
            limit = 1 << 32
        elif self.version == "v6":
            limit = 1 << 128
        else:
            raise InvalidParams(f"unknown address version {self.version!r}")
        if not (0 <= self.value < limit):
            raise InvalidParams("address out of range for its version")

    def __str__(self):
        if self.version == "v4":
            return str(ipaddress.IPv4Address(self.value))
        return str(ipaddress.IPv6Address(self.value))

    @classmethod
    def parse(cls, text: str) -> "NetworkAddress":
        addr = ipaddress.ip_address(text)
        return cls("v4" if addr.version == 4 else "v6", int(addr))


@dataclass
class NameRecord:
    hrn: str
    id: GlobalId
    locators: set = field(default_factory=set)
    indirect_target: GlobalId = None
    service_meta: int = 0

    def __post_init__(self):
        if not (0 <= self.service_meta < 1 << SERVICE_META_BITS):
            raise InvalidParams("service_meta must fit in 32 bits")


class NamingService:
    """Deterministic HRN -> 160-bit identifier digests with collision watch."""

    def __init__(self):
        self._hrn_of = {}

    def assign_id(self, hrn: str) -> GlobalId:
        if not hrn:
            raise EmptyHrn("HRN must be non-empty")
        gid = GlobalId(int.from_bytes(hashlib.sha1(hrn.encode("utf-8")).digest(), "big"))
        known = self._hrn_of.get(gid)
        if known is not None and known != hrn:
            raise CollisionDetected(f"digest collision between {known!r} and {hrn!r}")
        self._hrn_of[gid] = hrn
        return gid


@dataclass(eq=False)
class Resolver:
    """The naming service and the one record table (identifier -> NameRecord).
    `mutations` counts the binding changes, so a reader can keep answers
    until it moves."""

    naming: NamingService = field(default_factory=NamingService)
    table: dict = field(default_factory=dict)
    mutations: int = 0


def register(res: Resolver, hrn: str, na: NetworkAddress, service_meta: int = 0) -> GlobalId:
    """Create or extend a name record."""
    gid = res.naming.assign_id(hrn)
    rec = res.table.get(gid)
    if rec is None:
        rec = res.table[gid] = NameRecord(hrn=hrn, id=gid, service_meta=service_meta)
    elif na not in rec.locators and len(rec.locators) >= LOCATOR_LIMIT:
        raise LocatorLimitExceeded(
            f"{hrn!r} already binds {LOCATOR_LIMIT} addresses"
        )
    rec.locators.add(na)
    res.mutations += 1
    return gid


def register_indirect(res: Resolver, hrn: str, target: GlobalId, service_meta: int = 0) -> GlobalId:
    """Bind an identifier to another identifier (data id -> device id)."""
    gid = res.naming.assign_id(hrn)
    rec = res.table.get(gid)
    if rec is None:
        rec = res.table[gid] = NameRecord(hrn=hrn, id=gid, service_meta=service_meta)
    rec.indirect_target = target
    res.mutations += 1
    return gid


def resolve(res: Resolver, gid: GlobalId) -> frozenset:
    """Locators for an identifier; indirect bindings are chased with cycle
    detection."""
    table = res.table
    rec = table.get(gid)
    if rec is None:
        raise NotFound(f"identifier {gid.hex[:12]}.. is not registered")
    result = set()
    visited = {gid}
    current = rec
    while True:
        result |= current.locators
        target = current.indirect_target
        if target is None:
            break
        if target in visited:
            raise IndirectLoop(f"indirect cycle at {target.hex[:12]}..")
        visited.add(target)
        current = table.get(target)
        if current is None:
            raise NotFound(f"indirect target {target.hex[:12]}.. is not registered")
    if not result:
        raise NotFound(f"identifier {gid.hex[:12]}.. has no locators")
    return frozenset(result)


def update_binding(res: Resolver, gid: GlobalId, action: str, na: NetworkAddress) -> frozenset:
    """Add or remove one locator; removing the last locator of a record with
    no indirect binding deletes the record."""
    rec = res.table.get(gid)
    if rec is None:
        raise NotFound(f"identifier {gid.hex[:12]}.. is not registered")
    if action == "add":
        if na not in rec.locators and len(rec.locators) >= LOCATOR_LIMIT:
            raise LocatorLimitExceeded(
                f"{rec.hrn!r} already binds {LOCATOR_LIMIT} addresses"
            )
        rec.locators.add(na)
    elif action == "remove":
        rec.locators.discard(na)
        if not rec.locators and rec.indirect_target is None:
            del res.table[gid]
    else:
        raise InvalidParams(f"unknown binding action {action!r}")
    res.mutations += 1
    return frozenset(rec.locators)


def build_ilm_tree(hierarchy) -> Resolver:
    # kept for perfbench: mesh.py calls it and its tracer times it as ilm.build_tree
    return Resolver()


# -- table dump ------------------------------------------------------------------


def dump_table(res: Resolver) -> str:
    """The record table, one line per identifier in id order."""
    lines = []
    for gid in sorted(res.table):
        rec = res.table[gid]
        indirect = rec.indirect_target.hex if rec.indirect_target is not None else "-"
        nas = ",".join(str(na) for na in sorted(rec.locators)) if rec.locators else "-"
        lines.append(f"rec {gid.hex} {rec.hrn} {indirect} {nas}")
    return "\n".join(lines) + ("\n" if lines else "")
