"""Canonical serialization of specification models.

Two models are equal exactly when their canonical byte sequences are equal.
The encoding is deterministic JSON: top-level categories sorted by id,
attribute and part order preserved, display names defaulted to the owning
identifier, descriptions included, source spans excluded.
"""

from __future__ import annotations

import json

from . import model as m

FORMAT = "bispec-model"
VERSION = 1


def _literal(value: m.Literal) -> dict:
    return {"node": "literal", "value": value.value}


def _operand(value: object) -> dict:
    if isinstance(value, m.Literal):
        return _literal(value)
    if isinstance(value, m.EnumLiteral):
        return {"node": "enum-literal", "enum": value.enum, "value": value.value}
    if isinstance(value, m.AttributePath):
        return {"node": "path", "segments": list(value.segments)}
    raise TypeError(f"unexpected operand {value!r}")


def _predicate(pred: m.Predicate) -> dict:
    return {"left": _operand(pred.left), "op": "=", "right": _operand(pred.right)}


def measure_dict(expr: object) -> dict:
    if isinstance(expr, m.Aggregate):
        if isinstance(expr.arg, m.Predicate):
            arg = {"node": "predicate", **_predicate(expr.arg)}
        else:
            arg = _operand(expr.arg)
        return {"node": "aggregate", "fn": expr.fn, "arg": arg}
    if isinstance(expr, m.MeasureRef):
        return {"node": "measure-ref", "attribute": expr.attribute}
    if isinstance(expr, m.Arithmetic):
        return {
            "node": "arithmetic",
            "op": expr.op,
            "left": measure_dict(expr.left),
            "right": measure_dict(expr.right),
        }
    if isinstance(expr, m.Literal):
        return _literal(expr)
    if isinstance(expr, m.OpaqueMeasure):
        return {"node": "opaque", "text": expr.text}
    raise TypeError(f"unexpected measure node {expr!r}")


def _attr_type(t: m.AttributeType) -> dict:
    out: dict = {"kind": t.kind, "name": t.name}
    if t.length is not None:
        out["length"] = t.length
    return out


def _attribute(attr: m.DataAttribute) -> dict:
    out: dict = {
        "id": attr.id,
        "name": attr.display_name,
        "type": _attr_type(attr.attr_type),
        "constraints": sorted(
            [{"kind": c.kind, **({"target": c.target} if c.target else {})} for c in attr.constraints],
            key=lambda c: (c["kind"], c.get("target", "")),
        ),
    }
    if attr.default_value is not None:
        out["default"] = attr.default_value.value
    if attr.measure is not None:
        out["measure"] = measure_dict(attr.measure)
    return out


def _entity(entity: m.DataEntity) -> dict:
    return {
        "id": entity.id,
        "name": entity.display_name,
        "entityType": entity.entity_type,
        "subType": entity.sub_type,
        "attributes": [_attribute(a) for a in entity.attributes],
        "description": entity.description,
    }


def _enumeration(enum: m.DataEnumeration) -> dict:
    return {"id": enum.id, "name": enum.display_name, "values": list(enum.values)}


def _cluster(cluster: m.DataEntityCluster) -> dict:
    return {
        "id": cluster.id,
        "name": cluster.display_name,
        "entityType": cluster.entity_type,
        "main": cluster.main,
        "uses": list(cluster.uses),
        "description": cluster.description,
    }


def _actor(actor: m.Actor) -> dict:
    return {
        "id": actor.id,
        "name": actor.display_name,
        "actorType": actor.actor_type,
        "stakeholder": actor.stakeholder,
        "isA": actor.is_a,
        "description": actor.description,
    }


def _operation(op: m.OlapOperation) -> dict:
    out: dict = {"id": op.id, "name": op.display_name, "kind": op.kind}
    if op.where_clauses:
        out["where"] = [_predicate(p) for p in op.where_clauses]
    if op.group_by is not None:
        out["groupBy"] = _operand(op.group_by)
    if op.swap is not None:
        out["swap"] = list(op.swap)
    if op.touched_dimensions:
        out["dimensions"] = list(op.touched_dimensions)
    out["description"] = op.description
    return out


def _use_case(uc: m.UseCase) -> dict:
    return {
        "id": uc.id,
        "name": uc.display_name,
        "type": uc.uc_type,
        "stakeholder": uc.stakeholder,
        "primaryActor": uc.primary_actor,
        "supportingActors": list(uc.supporting_actors),
        "dataSource": uc.data_source,
        "actionKinds": list(uc.action_kinds),
        "operations": [_operation(op) for op in uc.operations],
        "description": uc.description,
    }


def _part(part: m.UIPart) -> dict:
    return {
        "id": part.id,
        "name": part.display_name,
        "kind": part.part_kind,
        "binding": {"node": "path", "segments": list(part.binding.segments)},
    }


def _component(comp: m.UIComponent) -> dict:
    return {
        "id": comp.id,
        "name": comp.display_name,
        "type": comp.component_type,
        "subtype": comp.component_subtype,
        "dataBinding": comp.data_binding,
        "parts": [_part(p) for p in comp.parts],
        "actions": sorted(comp.actions),
        "navigatesTo": comp.navigates_to,
        "tags": [list(t) for t in comp.tags],
        "description": comp.description,
    }


def _event(event: m.NavigationEvent) -> dict:
    return {
        "id": event.id,
        "type": event.event_type,
        "subtype": event.event_subtype,
        "navigatesTo": event.navigates_to,
    }


def _container(container: m.UIContainer) -> dict:
    return {
        "id": container.id,
        "name": container.display_name,
        "type": container.container_type,
        "subtype": container.container_subtype,
        "components": [_component(c) for c in container.components],
        "events": [_event(e) for e in container.events],
        "description": container.description,
    }


def _extension(ext: m.VocabularyExtension) -> dict:
    return {"category": ext.category, "id": ext.id, "description": ext.description}


def canonical_dict(spec: m.SpecificationModel) -> dict:
    by_id = lambda item: item["id"]
    return {
        "format": FORMAT,
        "version": VERSION,
        "enumerations": sorted([_enumeration(e) for e in spec.enumerations], key=by_id),
        "entities": sorted([_entity(e) for e in spec.entities], key=by_id),
        "clusters": sorted([_cluster(c) for c in spec.clusters], key=by_id),
        "actors": sorted([_actor(a) for a in spec.actors], key=by_id),
        "useCases": sorted([_use_case(u) for u in spec.use_cases], key=by_id),
        "uiContainers": sorted([_container(c) for c in spec.ui_containers], key=by_id),
        "vocabularyExtensions": sorted(
            [_extension(x) for x in spec.vocabulary_extensions], key=lambda x: (x["category"], x["id"])
        ),
    }


_encode_str = json.encoder.encode_basestring  # C; escapes as ensure_ascii=False does


def indented_json(value: object) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, written without its
    pure-Python encoder, which ``indent`` selects and which takes about three
    times as long.

    Strings go through the C string encoder, dicts (with string keys), lists
    and tuples are written here, and every other scalar but ``None`` by
    ``json.dumps``. Every piece is appended to one list, so no container's
    text is copied again at each enclosing depth. Each depth keeps its
    separators, its closing marks and, per key, the text that opens a dict
    item, so most pieces are shared strings. Once 4,096 pieces have piled
    up, the next container to close joins them into one chunk: the pieces
    then never outgrow the text they make, and the peak stays below that of
    joining each container's text at every depth.
    """
    chunks: list[str] = []
    pieces: list[str] = []
    write = pieces.append
    # Per depth: the line break and indent of its items, the item openers of a
    # dict by key (first item, later items), and the list separators and closing marks.
    levels: list[tuple] = []

    def emit(value: object, depth: int) -> None:
        kind = type(value)
        if kind is str:
            write(_encode_str(value))
        elif kind is dict or kind is list or kind is tuple:
            if not value:
                write("{}" if kind is dict else "[]")
                return
            if depth == len(levels):
                inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
                levels.append((inner, {}, {}, "[" + inner, "," + inner, close + "}", close + "]"))
            inner, first, later, open_list, comma, close_dict, close_list = levels[depth]
            if kind is dict:
                openers = first
                for key, item in value.items():
                    opener = openers.get(key)
                    if opener is None:
                        opener = openers[key] = ("{" if openers is first else ",") + inner + _encode_str(key) + ": "
                    write(opener)
                    emit(item, depth + 1)
                    openers = later
                write(close_dict)
            else:
                separator = open_list
                for item in value:
                    write(separator)
                    emit(item, depth + 1)
                    separator = comma
                write(close_list)
            if len(pieces) >= 4096:
                chunks.append("".join(pieces))
                pieces.clear()
        elif value is None:  # canonical form holds a null for every absent description
            write("null")
        else:
            write(json.dumps(value))

    emit(value, 0)
    chunks.append("".join(pieces))
    return "".join(chunks)


def model_json(spec: m.SpecificationModel) -> str:
    """Canonical form as a JSON document: stable key order, UTF-8, LF endings."""
    return indented_json(canonical_dict(spec)) + "\n"


def canonicalize(spec: m.SpecificationModel) -> bytes:
    """Deterministic byte sequence; equal bytes iff semantically equal models."""
    return model_json(spec).encode("utf-8")
