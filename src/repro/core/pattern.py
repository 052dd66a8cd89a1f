"""Problem-pattern model (the pattern builder of Section 2.2).

A problem pattern is "a set of optimizer plan features and characteristics
specified in a particular order and containing properties with predefined
values".  The web GUI of the paper serializes patterns to the JSON object
of Figure 5; this module provides the same JSON shape (``to_json`` /
``from_json``) plus a fluent programmatic :class:`PatternBuilder` that
plays the role of the GUI.

Type values accepted for a pop spec:

* a concrete operator name (``"NLJOIN"``, ``"TBSCAN"``, ...),
* ``"ANY"`` — any operator,
* ``"JOIN"`` — any member of the join family (NLJOIN/HSJOIN/MSJOIN),
* ``"SCAN"`` — any member of the scan family (TBSCAN/IXSCAN),
* ``"BASE OB"`` — a base object (table) rather than an operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.vocabulary import (
    GUI_PROPERTY_PREDICATES,
    RELATIONSHIP_PREDICATES,
)
from repro.qep.operators import JOIN_TYPES, OPERATOR_CATALOG, SCAN_TYPES

#: Comparison signs accepted in property constraints.
COMPARISON_SIGNS = ("=", "!=", ">", "<", ">=", "<=", "contains", "regex")

#: Relationship signs accepted in pattern JSON (Figure 5).
IMMEDIATE_CHILD = "Immediate Child"
DESCENDANT = "Descendant"

#: Pseudo-types resolved to operator families.
FAMILY_TYPES = {
    "ANY": None,
    "JOIN": JOIN_TYPES,
    "SCAN": SCAN_TYPES,
}

BASE_OBJECT_TYPE = "BASE OB"


class PatternError(ValueError):
    """Raised for malformed patterns."""


@dataclass(frozen=True)
class PropertyConstraint:
    """One property filter, e.g. ``hasEstimateCardinality > 100``."""

    name: str
    sign: str
    value: Union[str, int, float]

    def __post_init__(self):
        if self.name not in GUI_PROPERTY_PREDICATES:
            raise PatternError(
                f"unknown property {self.name!r}; known: "
                f"{sorted(GUI_PROPERTY_PREDICATES)}"
            )
        if self.sign not in COMPARISON_SIGNS:
            raise PatternError(
                f"unknown comparison sign {self.sign!r}; known: {COMPARISON_SIGNS}"
            )


@dataclass(frozen=True)
class CrossPopConstraint:
    """A comparison between properties of two pops.

    Example: Pattern D's "SORT whose input has an I/O cost *less than
    the I/O cost of the SORT*" compares ``hasIOCost`` across two pops —
    which single-pop :class:`PropertyConstraint` cannot express.
    """

    left_id: int
    left_property: str
    sign: str
    right_id: int
    right_property: str
    #: Optional multiplier on the right side, e.g. "cost > 0.5 * total".
    factor: float = 1.0

    def __post_init__(self):
        for prop in (self.left_property, self.right_property):
            if prop not in GUI_PROPERTY_PREDICATES:
                raise PatternError(f"unknown property {prop!r}")
        if self.sign not in ("=", "!=", ">", "<", ">=", "<="):
            raise PatternError(
                f"cross-pop comparisons support =, !=, <, <=, >, >= "
                f"(got {self.sign!r})"
            )


@dataclass(frozen=True)
class Relationship:
    """A stream edge from one pop spec to another.

    ``kind`` is the stream predicate name; ``descendant`` selects the
    recursive (property-path) form where the child does not have to be
    immediately below its parent.
    """

    kind: str
    target_id: int
    descendant: bool = False

    def __post_init__(self):
        if self.kind not in RELATIONSHIP_PREDICATES:
            raise PatternError(
                f"unknown relationship {self.kind!r}; known: "
                f"{sorted(RELATIONSHIP_PREDICATES)}"
            )

    @property
    def sign(self) -> str:
        return DESCENDANT if self.descendant else IMMEDIATE_CHILD


@dataclass
class PopSpec:
    """One operator (or base object) slot in the pattern."""

    id: int
    type: str = "ANY"
    constraints: List[PropertyConstraint] = field(default_factory=list)
    relationships: List[Relationship] = field(default_factory=list)
    alias: Optional[str] = None

    def __post_init__(self):
        self.validate_type()

    def validate_type(self) -> None:
        if self.type in FAMILY_TYPES or self.type == BASE_OBJECT_TYPE:
            return
        if self.type not in OPERATOR_CATALOG:
            raise PatternError(
                f"pop {self.id}: unknown type {self.type!r}"
            )

    @property
    def is_base_object(self) -> bool:
        return self.type == BASE_OBJECT_TYPE

    def type_family(self) -> Optional[frozenset]:
        """The set of concrete operator names, or None for ANY/BASE OB."""
        if self.type in FAMILY_TYPES:
            return FAMILY_TYPES[self.type]
        if self.type == BASE_OBJECT_TYPE:
            return None
        return frozenset({self.type})


@dataclass
class ProblemPattern:
    """A complete user-defined problem pattern."""

    name: str
    pops: Dict[int, PopSpec] = field(default_factory=dict)
    plan_details: Dict[str, Union[str, int, float]] = field(default_factory=dict)
    cross_constraints: List[CrossPopConstraint] = field(default_factory=list)
    description: str = ""

    def validate(self) -> None:
        if not self.pops:
            raise PatternError(f"pattern {self.name!r} has no pops")
        for spec in self.pops.values():
            for rel in spec.relationships:
                if rel.target_id not in self.pops:
                    raise PatternError(
                        f"pattern {self.name!r}: pop {spec.id} references "
                        f"unknown pop {rel.target_id}"
                    )
        for constraint in self.cross_constraints:
            for pop_id in (constraint.left_id, constraint.right_id):
                if pop_id not in self.pops:
                    raise PatternError(
                        f"pattern {self.name!r}: cross-pop constraint "
                        f"references unknown pop {pop_id}"
                    )
        roots = self.root_ids()
        if not roots:
            raise PatternError(
                f"pattern {self.name!r}: no root pop (relationship cycle?)"
            )
        # Each alias names one result column and one pop for the KB's
        # tags; a shared one would project two pops under one name.
        owners: Dict[str, int] = {}
        for pop_id, alias in self.aliases().items():
            if alias in owners:
                raise PatternError(
                    f"pattern {self.name!r}: pops {owners[alias]} and {pop_id} "
                    f"share the result alias {alias!r}"
                )
            owners[alias] = pop_id

    def root_ids(self) -> List[int]:
        """Pop ids that are not the target of any relationship."""
        targets = {
            rel.target_id
            for spec in self.pops.values()
            for rel in spec.relationships
        }
        return sorted(set(self.pops) - targets)

    def spec(self, pop_id: int) -> PopSpec:
        return self.pops[pop_id]

    def aliases(self) -> Dict[int, str]:
        """Result-handler aliases, defaulting to the GUI naming scheme.

        The paper's GUI labels the root ``TOP`` and other pops with
        ``<TYPE><ID>`` (Figure 6 aliases ?pop2 as ?ANY2 and ?pop4 as
        ?BASE4).
        """
        roots = set(self.root_ids())
        out: Dict[int, str] = {}
        for pop_id, spec in sorted(self.pops.items()):
            if spec.alias:
                out[pop_id] = spec.alias
            elif pop_id in roots:
                out[pop_id] = "TOP"
            else:
                type_label = spec.type.replace(" ", "")
                out[pop_id] = f"{type_label}{pop_id}"
        return out

    # ------------------------------------------------------------------
    # JSON round-trip (Figure 5 shape)
    # ------------------------------------------------------------------
    def to_json_object(self) -> dict:
        pops_json = []
        for pop_id, spec in sorted(self.pops.items()):
            properties: List[dict] = []
            for constraint in spec.constraints:
                properties.append(
                    {
                        "id": constraint.name,
                        "value": constraint.value,
                        "sign": constraint.sign,
                    }
                )
            for rel in spec.relationships:
                properties.append(
                    {"id": rel.kind, "value": rel.target_id, "sign": rel.sign}
                )
            # Mirror Figure 5: children also record their output stream.
            for other_id, other in sorted(self.pops.items()):
                for rel in other.relationships:
                    if rel.target_id == pop_id:
                        properties.append(
                            {"id": "hasOutputStream", "value": other_id}
                        )
            entry: dict = {"ID": pop_id, "type": spec.type, "popProperties": properties}
            if spec.alias:
                entry["alias"] = spec.alias
            pops_json.append(entry)
        data = {
            "name": self.name,
            "description": self.description,
            "pops": pops_json,
            "planDetails": dict(self.plan_details),
        }
        if self.cross_constraints:
            data["crossConstraints"] = [
                {
                    "left": c.left_id,
                    "leftProperty": c.left_property,
                    "sign": c.sign,
                    "right": c.right_id,
                    "rightProperty": c.right_property,
                    "factor": c.factor,
                }
                for c in self.cross_constraints
            ]
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_object(), indent=indent)

    @classmethod
    def from_json_object(cls, data: dict) -> "ProblemPattern":
        pattern = cls(
            name=data.get("name", "unnamed-pattern"),
            description=data.get("description", ""),
            plan_details=dict(data.get("planDetails", {})),
        )
        for entry in data.get("pops", []):
            spec = PopSpec(
                id=int(entry["ID"]),
                type=entry.get("type", "ANY"),
                alias=entry.get("alias"),
            )
            for prop in entry.get("popProperties", []):
                prop_id = prop["id"]
                if prop_id == "hasOutputStream":
                    continue  # redundant back-edge, regenerated on output
                if prop_id in RELATIONSHIP_PREDICATES:
                    sign = prop.get("sign", IMMEDIATE_CHILD)
                    if sign not in (IMMEDIATE_CHILD, DESCENDANT):
                        raise PatternError(
                            f"unknown relationship sign {sign!r}"
                        )
                    spec.relationships.append(
                        Relationship(
                            kind=prop_id,
                            target_id=int(prop["value"]),
                            descendant=sign == DESCENDANT,
                        )
                    )
                else:
                    spec.constraints.append(
                        PropertyConstraint(
                            name=prop_id,
                            sign=prop.get("sign", "="),
                            value=prop["value"],
                        )
                    )
            if spec.id in pattern.pops:
                raise PatternError(f"duplicate pop ID {spec.id}")
            pattern.pops[spec.id] = spec
        for entry in data.get("crossConstraints", []):
            pattern.cross_constraints.append(
                CrossPopConstraint(
                    left_id=int(entry["left"]),
                    left_property=entry["leftProperty"],
                    sign=entry["sign"],
                    right_id=int(entry["right"]),
                    right_property=entry["rightProperty"],
                    factor=float(entry.get("factor", 1.0)),
                )
            )
        pattern.validate()
        return pattern

    @classmethod
    def from_json(cls, text: str) -> "ProblemPattern":
        return cls.from_json_object(json.loads(text))


class PatternBuilder:
    """Fluent construction of :class:`ProblemPattern` objects.

    Mirrors what the web GUI (Figure 3) lets a user click together::

        builder = PatternBuilder("nested-loop-scan")
        top = builder.pop("NLJOIN")
        outer = builder.pop("ANY").where("hasEstimateCardinality", ">", 1)
        inner = builder.pop("TBSCAN").where("hasEstimateCardinality", ">", 100)
        base = builder.pop("BASE OB", alias="BASE")
        builder.outer(top, outer)
        builder.inner(top, inner)
        builder.input(inner, base)
        pattern = builder.build()
    """

    class _SpecHandle:
        def __init__(self, builder: "PatternBuilder", spec: PopSpec):
            self._builder = builder
            self.spec = spec

        @property
        def id(self) -> int:
            return self.spec.id

        def where(self, name: str, sign: str, value) -> "PatternBuilder._SpecHandle":
            self.spec.constraints.append(PropertyConstraint(name, sign, value))
            return self

        def alias(self, alias: str) -> "PatternBuilder._SpecHandle":
            self.spec.alias = alias
            return self

    def __init__(self, name: str, description: str = ""):
        self._pattern = ProblemPattern(name=name, description=description)
        self._next_id = 1

    def pop(
        self, op_type: str = "ANY", alias: Optional[str] = None, pop_id: Optional[int] = None
    ) -> "_SpecHandle":
        if pop_id is None:
            pop_id = self._next_id
        self._next_id = max(self._next_id, pop_id) + 1
        spec = PopSpec(id=pop_id, type=op_type, alias=alias)
        if pop_id in self._pattern.pops:
            raise PatternError(f"duplicate pop ID {pop_id}")
        self._pattern.pops[pop_id] = spec
        return PatternBuilder._SpecHandle(self, spec)

    def _relate(self, kind: str, parent, child, descendant: bool) -> "PatternBuilder":
        parent_spec = self._resolve(parent)
        child_spec = self._resolve(child)
        parent_spec.relationships.append(
            Relationship(kind=kind, target_id=child_spec.id, descendant=descendant)
        )
        return self

    def _resolve(self, handle_or_id) -> PopSpec:
        if isinstance(handle_or_id, PatternBuilder._SpecHandle):
            return handle_or_id.spec
        return self._pattern.pops[int(handle_or_id)]

    def input(self, parent, child, descendant: bool = False) -> "PatternBuilder":
        """Generic input stream relationship."""
        return self._relate("hasInputStream", parent, child, descendant)

    def outer(self, parent, child, descendant: bool = False) -> "PatternBuilder":
        """Outer (left) input stream relationship."""
        return self._relate("hasOuterInputStream", parent, child, descendant)

    def inner(self, parent, child, descendant: bool = False) -> "PatternBuilder":
        """Inner (right) input stream relationship."""
        return self._relate("hasInnerInputStream", parent, child, descendant)

    def plan_detail(self, key: str, value) -> "PatternBuilder":
        self._pattern.plan_details[key] = value
        return self

    def compare(
        self,
        left,
        left_property: str,
        sign: str,
        right,
        right_property: Optional[str] = None,
        factor: float = 1.0,
    ) -> "PatternBuilder":
        """Constrain one pop's property against another pop's property.

        ``builder.compare(sort, "hasIOCost", ">", child, "hasIOCost")``
        expresses Pattern D's spill condition declaratively.
        """
        self._pattern.cross_constraints.append(
            CrossPopConstraint(
                left_id=self._resolve(left).id,
                left_property=left_property,
                sign=sign,
                right_id=self._resolve(right).id,
                right_property=right_property or left_property,
                factor=factor,
            )
        )
        return self

    def build(self) -> ProblemPattern:
        self._pattern.validate()
        return self._pattern
