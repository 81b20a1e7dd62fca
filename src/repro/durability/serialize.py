"""JSON codecs for durable state: row cells and table descriptors.

Everything the WAL and checkpoints persist must survive a JSON round
trip and decode back into the exact runtime objects — most importantly
``datetime.date`` partition bounds and row cells, which JSON has no
native type for.  Two encodings are used:

* **row cells** are stored as plain JSON values, with dates flattened to
  ISO strings by the table's generated codec (``TableStore.encode``);
  decoding routes every row back through ``TableStore.coerce``, the write
  kernel's ``validate_row`` step, whose DATE coercion restores the
  ``datetime.date`` objects (and re-checks types while at it);
* **partition-constraint bounds** have no schema to validate against, so
  dates carry an explicit ``{"$date": "YYYY-MM-DD"}`` tag.

Descriptors round-trip completely — name, OID, schema, distribution,
partition scheme (every interval of every slot) and the leaf-OID map —
so recovery reproduces the catalog byte for byte, including OIDs.
"""

from __future__ import annotations

import datetime
from typing import Any

from ..catalog.catalog import DistributionPolicy, TableDescriptor
from ..catalog.constraints import Interval, IntervalSet
from ..catalog.partition import PartitionLevel, PartitionScheme, PartitionSlot
from ..catalog.schema import TableSchema
from ..types import DataType, TypeKind

# -- tagged bounds (partition constraints) ----------------------------------


def encode_bound(value: Any) -> Any:
    """A partition-interval bound; dates get a ``$date`` tag because no
    schema is available to coerce them back on decode."""
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def decode_bound(value: Any) -> Any:
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def encode_interval_set(interval_set: IntervalSet) -> list:
    return [
        [
            encode_bound(iv.lo),
            encode_bound(iv.hi),
            iv.lo_inclusive,
            iv.hi_inclusive,
        ]
        for iv in interval_set.intervals
    ]


def decode_interval_set(data: list) -> IntervalSet:
    return IntervalSet.of(
        *[
            Interval(decode_bound(lo), decode_bound(hi), lo_inc, hi_inc)
            for lo, hi, lo_inc, hi_inc in data
        ]
    )


# -- descriptors ------------------------------------------------------------


def encode_descriptor(desc: TableDescriptor) -> dict:
    """A :class:`TableDescriptor` as a JSON-native dict, OIDs included."""
    data: dict[str, Any] = {
        "oid": desc.oid,
        "name": desc.name,
        "columns": [
            [col.name, col.data_type.kind.value] for col in desc.schema
        ],
        "distribution": {
            "kind": desc.distribution.kind,
            "column": desc.distribution.column,
        },
        "partition": None,
        "leaf_oids": None,
    }
    if desc.partition_scheme is not None:
        data["partition"] = {
            "levels": [
                {
                    "key": level.key,
                    "slots": [
                        {
                            "name": slot.name,
                            "intervals": encode_interval_set(slot.constraint),
                        }
                        for slot in level.slots
                    ],
                }
                for level in desc.partition_scheme.levels
            ]
        }
        data["leaf_oids"] = [
            [list(leaf), oid] for leaf, oid in desc._leaf_oids.items()
        ]
    return data


def decode_descriptor(data: dict) -> TableDescriptor:
    schema = TableSchema.of(
        *[
            (name, DataType(TypeKind(kind)))
            for name, kind in data["columns"]
        ]
    )
    distribution = DistributionPolicy(
        data["distribution"]["kind"], data["distribution"]["column"]
    )
    scheme = None
    leaf_oids = None
    if data["partition"] is not None:
        scheme = PartitionScheme(
            [
                PartitionLevel(
                    level["key"],
                    [
                        PartitionSlot(
                            slot["name"],
                            decode_interval_set(slot["intervals"]),
                        )
                        for slot in level["slots"]
                    ],
                )
                for level in data["partition"]["levels"]
            ]
        )
        leaf_oids = {
            tuple(leaf): oid for leaf, oid in data["leaf_oids"]
        }
    return TableDescriptor(
        data["oid"], data["name"], schema, distribution, scheme, leaf_oids
    )
