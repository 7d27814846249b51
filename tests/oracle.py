"""Naive reference implementation used to cross-check the OLAP engine.

Everything here is deliberately simple and independent of the engine: CSVs
are re-read with DictReader, joins are linear scans, grouping builds a list
of (key, rows) pairs without hashing, and measures are evaluated by walking
the expression recursively. Only the observable semantics (hop rules, null
handling, AVERAGE as SUM over COUNT, and the value rules: a Decimal SUM is the
exact sum rounded once, Decimal -0.0 reads as 0.0, an offset-aware DateTime or
Time reads at UTC) are shared, because those are the contract under test.
"""

from __future__ import annotations

import csv
from datetime import date, datetime, time, timedelta, timezone
from fractions import Fraction
from pathlib import Path

from bispec import model as m


class ManifestError(ValueError):
    """A manifest that maps one entity, or one file, on two lines."""


def load_tables(model, data_dir):
    data_dir = Path(data_dir)
    mapping = {}
    for line in (data_dir / "manifest.toml").read_text(encoding="utf-8-sig").splitlines():
        key, _, value = line.partition("=")
        key = key.strip()
        if value and not key.startswith("#"):  # a '#' after the quoted file name starts a comment
            name = value.strip()[1:].split('"', 1)[0]
            if key in mapping or name in mapping.values():
                raise ManifestError(f"{key} = {name!r} maps an entity or a file a second time")
            mapping[key] = name

    tables = {}
    for entity in model.entities:
        rows = []
        with (data_dir / mapping[entity.id]).open(encoding="utf-8-sig", newline="") as handle:
            for record in csv.DictReader(handle):
                row = {}
                for attr in entity.attributes:
                    if attr.is_measure:
                        continue
                    raw = record[attr.id]
                    row[attr.id] = _convert(raw, attr)
                rows.append(row)
        tables[entity.id] = rows
    return tables


def _convert(raw, attr):
    if raw == "":
        return None
    if attr.attr_type.kind != "primitive":
        return raw
    name = attr.attr_type.name
    if name == "Integer":
        return int(raw)
    if name == "Decimal":
        value = float(raw)
        return 0.0 if value == 0 else value
    if name == "Boolean":
        return raw.lower() in ("true", "1")
    if name == "Date":
        return date.fromisoformat(raw)
    if name == "DateTime":
        value = datetime.fromisoformat(raw)
        return value if value.tzinfo is None else (value - value.utcoffset()).replace(tzinfo=timezone.utc)
    if name == "Time":
        value = time.fromisoformat(raw)
        if value.tzinfo is None:
            return value
        seconds = (value.hour * 3600 + value.minute * 60 + value.second - value.utcoffset() // timedelta(seconds=1)) % 86400
        return time(seconds // 3600, seconds // 60 % 60, seconds % 60, value.microsecond, timezone.utc)
    return raw


def _rounded_sum(values):
    """A Decimal SUM: the exact sum of the values rounded once to a float; an
    infinity (or inf with -inf, nan) decides it alone."""
    infinite = [v for v in values if v in (float("inf"), float("-inf")) or v != v]
    if infinite:
        total = 0.0
        for v in infinite:
            total += v
        return total
    exact = sum((Fraction(v) for v in values), Fraction(0))
    if abs(exact) >= 2**1024 - 2**970:  # rounds past the largest float
        return float("inf") if exact > 0 else float("-inf")
    return float(exact)


def find_row(model, tables, entity_id, key):
    entity = model.entity(entity_id)
    pk = entity.primary_key.id
    for row in tables[entity_id]:
        if row[pk] == key:
            return row
    return None


def hop_chain(model, fact, target_id):
    """Shortest declaration-ordered chain of (fk attr, entity) to target_id."""
    if fact.id == target_id:
        return []
    frontier = [(fact, [])]
    seen = {fact.id}
    while frontier:
        next_frontier = []
        for entity, chain in frontier:
            for attr in entity.attributes:
                t = attr.dimension_target
                if t is None or t in seen:
                    continue
                step = chain + [(attr.id, t)]
                if t == target_id:
                    return step
                seen.add(t)
                next_frontier.append((model.entity(t), step))
        frontier = next_frontier
    return None


def follow(model, tables, fact_id, row, path):
    """Value of an attribute path for one fact row (None propagates). The path
    is an ``AttributePath`` or, as a plan holds it, a ``(chain, attribute
    id)`` pair, the chain a tuple of (fk attr, entity) hops from the fact."""
    fact = model.entity(fact_id)
    segs = () if isinstance(path, tuple) else path.segments
    if not segs:
        chain, final_attr = path
    elif len(segs) == 1:
        return row[segs[0]]
    elif model.entity(segs[0]) is not None:
        chain = hop_chain(model, fact, segs[0])
        final_attr = segs[1]
        if len(segs) == 3:
            mid = model.entity(segs[0]).attribute(segs[1])
            chain = chain + [(segs[1], mid.dimension_target)]
            final_attr = segs[2]
    else:
        attr = fact.attribute(segs[0])
        chain = [(segs[0], attr.dimension_target)]
        final_attr = segs[1]

    current = row
    for fk, target in chain:
        key = current[fk]
        if key is None:
            return None
        current = find_row(model, tables, target, key)
    return current[final_attr]


def _enum_hop_value(model, tables, fact_id, row, path, enum_id):
    """Value compared against an enum literal, hopping into the dimension."""
    fact = model.entity(fact_id)
    segs = path.segments
    value_entity, attr = _target_attr(model, fact, path)
    if attr.attr_type.kind == "dimension":
        dim = model.entity(attr.attr_type.name)
        role = [a for a in dim.attributes if a.attr_type.kind == "enum" and a.attr_type.name == enum_id][0]
        extended = m.AttributePath(segs + (role.id,)) if len(segs) < 3 else None
        if extended is not None:
            return follow(model, tables, fact_id, row, extended)
        key = follow(model, tables, fact_id, row, path)
        target = find_row(model, tables, dim.id, key) if key is not None else None
        return target[role.id] if target else None
    return follow(model, tables, fact_id, row, path)


def _target_attr(model, fact, path):
    segs = path.segments
    if len(segs) == 1:
        return fact.id, fact.attribute(segs[0])
    entity = model.entity(segs[0])
    if entity is None:
        hop = fact.attribute(segs[0])
        entity = model.entity(hop.dimension_target)
        return entity.id, entity.attribute(segs[1])
    if len(segs) == 2:
        return entity.id, entity.attribute(segs[1])
    mid = entity.attribute(segs[1])
    target = model.entity(mid.dimension_target)
    return target.id, target.attribute(segs[2])


def predicate_holds(model, tables, fact_id, row, pred: m.Predicate, bindings=None):
    right = pred.right
    if isinstance(right, m.EnumLiteral):
        return _enum_hop_value(model, tables, fact_id, row, pred.left, right.enum) == right.value
    if isinstance(right, m.Literal):
        expected = right.value
    else:
        name = right.segments[-1]
        expected = (bindings or {})[name]
        _, attr = _target_attr(model, model.entity(fact_id), pred.left)
        if isinstance(expected, str) and attr.attr_type.kind == "primitive":
            kind = attr.attr_type.name
            if kind == "Integer":
                expected = int(expected)
            elif kind == "Decimal":
                expected = float(expected)
            elif kind == "Date":
                expected = date.fromisoformat(expected)
    return follow(model, tables, fact_id, row, pred.left) == expected


def filter_rows(model, tables, fact_id, predicates, bindings=None):
    out = []
    for row in tables[fact_id]:
        if all(predicate_holds(model, tables, fact_id, row, p, bindings) for p in predicates):
            out.append(row)
    return out


def eval_measure(model, tables, fact_id, expr, rows):
    if isinstance(expr, m.Literal):
        return expr.value
    if isinstance(expr, m.MeasureRef):
        target = model.entity(fact_id).attribute(expr.attribute)
        return eval_measure(model, tables, fact_id, target.measure, rows)
    if isinstance(expr, m.Arithmetic):
        left = eval_measure(model, tables, fact_id, expr.left, rows)
        right = eval_measure(model, tables, fact_id, expr.right, rows)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return None if right == 0 else left / right
    # Aggregate
    if isinstance(expr.arg, m.Predicate):
        count = 0
        for row in rows:
            if predicate_holds(model, tables, fact_id, row, expr.arg):
                count += 1
        return count

    path = expr.arg
    _, attr = _target_attr(model, model.entity(fact_id), path)
    if attr.attr_type.kind == "dimension":
        dim = model.entity(attr.attr_type.name)
        role = [a for a in dim.attributes if a.attr_type.kind == "primitive" and a.attr_type.name in ("Date", "DateTime")][0]
        path = m.AttributePath(path.segments + (role.id,))

    values = []
    for row in rows:
        value = follow(model, tables, fact_id, row, path)
        if value is not None:
            values.append(value)

    if expr.fn == "COUNT":
        return len(values)
    if expr.fn in ("SUM", "AVERAGE"):
        if values and (attr.attr_type.kind, attr.attr_type.name) == ("primitive", "Decimal"):
            total = _rounded_sum(values)
        else:
            total = 0  # exact over Integers
            for v in values:
                total += v
        if expr.fn == "SUM":
            return total
        return total / len(values) if values else None  # SUM over COUNT
    if not values:
        return None
    if expr.fn == "MIN":
        best = values[0]
        for v in values[1:]:
            if v < best:
                best = v
        return best
    best = values[0]
    for v in values[1:]:
        if v > best:
            best = v
    return best


def group_rows(model, tables, fact_id, rows, paths):
    """List-based grouping: (key tuple, member rows), insertion order."""
    groups = []
    for row in rows:
        key = tuple(follow(model, tables, fact_id, row, p) for p in paths)
        for existing_key, members in groups:
            if existing_key == key:
                members.append(row)
                break
        else:
            groups.append((key, [row]))
    return groups


def aggregate(model, tables, fact_id, rows, paths, measure_ids=None):
    """Grouped measure table as a dict: key tuple -> {measure id: value}."""
    fact = model.entity(fact_id)
    if measure_ids is None:
        measure_ids = [a.id for a in fact.measures if not isinstance(a.measure, m.OpaqueMeasure)]
    out = {}
    for key, members in group_rows(model, tables, fact_id, rows, paths):
        out[key] = {
            mid: eval_measure(model, tables, fact_id, fact.attribute(mid).measure, members)
            for mid in measure_ids
        }
    return out
