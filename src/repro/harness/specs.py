"""Declarative experiment specs: a YAML-first language over the run service.

Every sweep, ablation, and figure regeneration used to be hand-coded
Python.  This module gives the platform a *user-facing surface*: a small
declarative language describing **what** to run — a backend × algorithm
× graph × config-override grid, filter clauses, and named outputs
mapping onto the existing table/figure builders — which
:mod:`repro.harness.planner` compiles onto the run service (and the
daemon's job queue) with cache awareness.

Design decisions, in order of importance:

**A validated, typed AST.**
    :class:`ExperimentSpec` is a frozen dataclass tree.  Parsing always
    produces either a fully-validated spec (every algorithm, dataset,
    backend, override field, output builder, and report field checked
    against the live registries) or a :class:`SpecError` naming the
    offending field and line.  A raw traceback reaching a user is a bug;
    the fuzz battery in ``tests/test_specs_parser.py`` enforces that.

**A strict YAML subset, parsed in-repo.**
    Specs are YAML files, but the loader is a ~200-line strict-subset
    parser rather than a PyYAML dependency: block mappings and
    sequences, inline ``[a, b]`` lists and the empty ``{}``/``[]``
    flows, comments, and JSON-compatible scalars.  The subset is chosen
    so (a) tier-1 stays dependency-free, (b) every parse error carries
    an exact line number, and (c) :func:`dump_yaml` round-trips
    byte-deterministically — which is what makes spec digests and plan
    goldens stable.  Files emitted by :func:`dump_yaml` are valid YAML:
    when PyYAML happens to be installed, ``yaml.safe_load`` agrees with
    :func:`load_yaml` on them (cross-checked in the test suite).

**Includes compose, cycles fail loudly.**
    A spec may name ``include:`` files whose fields become defaults for
    the including spec (the includer wins key-by-key).  Cyclic includes
    raise :class:`SpecError` with the offending chain instead of
    recursing forever.

Example spec::

    name: table4-grid
    description: full Table 4 comparison grid
    algorithms: [BFS, SSSP, PR]
    graphs: [FR, PK, LJ]
    overrides:
      - name: base
      - name: half-simt
        graphdyns:
          n_simt: 4
    filter:
      exclude:
        - algorithm: PR
          graph: LJ
    outputs:
      speedups: fig6
      datasets: table4
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .. import backends as backend_registry
from ..graph import datasets
from ..graph.storage import STORAGE_KINDS
from ..vcpm.algorithms import algorithm_names, get_algorithm

__all__ = [
    "ExperimentSpec",
    "FilterSpec",
    "GridCell",
    "OutputSpec",
    "OverrideSpec",
    "OUTPUT_BUILDERS",
    "SELECTABLE_FIELDS",
    "SpecError",
    "dump_yaml",
    "load_spec",
    "load_yaml",
    "parse_spec",
    "spec_digest",
    "spec_from_dict",
    "spec_to_dict",
    "spec_to_yaml",
]

#: The default override name when a spec declares no overrides axis.
BASE_OVERRIDE = "base"

#: Report fields a ``select`` clause may project into summary tables.
SELECTABLE_FIELDS: Tuple[str, ...] = (
    "cycles",
    "seconds",
    "gteps",
    "iterations",
    "speedup",
    "traffic_mb",
    "energy_mj",
    "bandwidth_utilization",
)


class SpecError(ValueError):
    """A spec failed to parse or validate.

    Always carries enough context to act on: ``field`` (dotted path of
    the offending key, when known), ``line`` (1-based line in the spec
    text, when known), and ``source`` (the file path, when parsing a
    file).  The rendered message leads with that context so it can be
    surfaced to users verbatim — the parser's contract (enforced by the
    fuzz battery) is that malformed input of any kind raises *this*
    class, never a raw traceback.
    """

    def __init__(
        self,
        detail: str,
        field: Optional[str] = None,
        line: Optional[int] = None,
        source: Optional[str] = None,
    ) -> None:
        self.detail = detail
        self.field = field
        self.line = line
        self.source = source
        where = []
        if source:
            where.append(str(source))
        if line is not None:
            where.append(f"line {line}")
        prefix = f"[{', '.join(where)}] " if where else ""
        at = f"field {field!r}: " if field else ""
        super().__init__(f"{prefix}{at}{detail}")


# ======================================================================
# Strict YAML-subset loader / emitter
# ======================================================================

_PLAIN_KEY = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_INT = re.compile(r"^-?\d+$")
_FLOAT = re.compile(r"^-?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


@dataclasses.dataclass
class _Line:
    number: int
    indent: int
    text: str  # content with indentation stripped


def _strip_comment(raw: str) -> str:
    """Remove a ``#`` comment, respecting single/double quotes."""
    out = []
    quote: Optional[str] = None
    i = 0
    while i < len(raw):
        ch = raw[i]
        if quote is None:
            if ch == "#" and (not out or out[-1] in " \t"):
                break
            if ch in "'\"":
                quote = ch
        elif ch == quote:
            # '' inside single quotes is an escaped quote, not a close.
            if quote == "'" and i + 1 < len(raw) and raw[i + 1] == "'":
                out.append(ch)
                i += 1
            elif quote == '"' and out and out[-1] == "\\":
                pass
            else:
                quote = None
        out.append(ch)
        i += 1
    return "".join(out).rstrip()


def _logical_lines(text: str) -> List[_Line]:
    lines: List[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise SpecError(
                "tab characters are not allowed in indentation",
                line=number,
            )
        content = _strip_comment(raw)
        stripped = content.strip()
        if not stripped:
            continue
        if stripped == "---":  # document marker: tolerated, ignored
            continue
        indent = len(content) - len(content.lstrip(" "))
        lines.append(_Line(number=number, indent=indent, text=stripped))
    return lines


def _parse_scalar(token: str, line: int) -> object:
    token = token.strip()
    if token == "" or token in ("~", "null", "Null", "NULL"):
        return None
    if token in ("true", "True", "TRUE"):
        return True
    if token in ("false", "False", "FALSE"):
        return False
    if token == "{}":
        return {}
    if token == "[]":
        return []
    if token.startswith("{"):
        raise SpecError(
            "flow mappings ('{...}') are not part of the spec subset; "
            "use block form",
            line=line,
        )
    if token.startswith("["):
        return _parse_inline_list(token, line)
    if token.startswith(("'", '"')):
        return _parse_quoted(token, line)
    if _INT.match(token):
        return int(token)
    if _FLOAT.match(token):
        return float(token)
    if token.startswith(("&", "*", "!", "|", ">", "%", "@", "`")):
        raise SpecError(
            f"unsupported YAML construct {token[:12]!r} (anchors, tags and "
            "block scalars are not part of the spec subset)",
            line=line,
        )
    return token


def _parse_quoted(token: str, line: int) -> str:
    quote = token[0]
    if len(token) < 2 or token[-1] != quote:
        raise SpecError(f"unterminated {quote} quoted string", line=line)
    body = token[1:-1]
    if quote == "'":
        if re.search(r"(?<!')'(?!')", body):
            raise SpecError(
                "single-quoted string closes early (escape a quote by "
                "doubling it)",
                line=line,
            )
        return body.replace("''", "'")
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body):
                raise SpecError("dangling escape in string", line=line)
            esc = body[i + 1]
            mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc)
            if mapped is None:
                raise SpecError(f"unknown escape \\{esc}", line=line)
            out.append(mapped)
            i += 2
            continue
        if ch == '"':
            raise SpecError("double-quoted string closes early", line=line)
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_inline_list(token: str, line: int) -> List[object]:
    if not token.endswith("]"):
        raise SpecError("unterminated inline list", line=line)
    body = token[1:-1].strip()
    if not body:
        return []
    items: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current = ""
    for ch in body:
        if quote is not None:
            current += ch
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
            current += ch
        elif ch == "[":
            depth += 1
            current += ch
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise SpecError("unbalanced ']' in inline list", line=line)
            current += ch
        elif ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            current += ch
    if quote is not None:
        raise SpecError("unterminated string in inline list", line=line)
    if depth != 0:
        raise SpecError("unbalanced '[' in inline list", line=line)
    items.append(current)
    return [_parse_scalar(item, line) for item in items]


class _BlockParser:
    """Indentation-structured parser over the logical lines."""

    def __init__(self, lines: List[_Line]) -> None:
        self.lines = lines
        self.pos = 0
        #: path tuple -> source line number, for error reporting.
        self.linemap: Dict[Tuple[object, ...], int] = {}

    def peek(self) -> Optional[_Line]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def parse_block(self, indent: int, path: Tuple[object, ...]) -> object:
        line = self.peek()
        assert line is not None
        if line.text.startswith("- ") or line.text == "-":
            return self.parse_sequence(indent, path)
        return self.parse_mapping(indent, path)

    def parse_mapping(
        self, indent: int, path: Tuple[object, ...]
    ) -> Dict[str, object]:
        result: Dict[str, object] = {}
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return result
            if line.indent > indent:
                raise SpecError(
                    f"unexpected indentation ({line.indent} spaces, "
                    f"expected {indent})",
                    line=line.number,
                )
            if line.text.startswith("- ") or line.text == "-":
                raise SpecError(
                    "sequence item found where a mapping key was expected",
                    line=line.number,
                )
            key, value_text = self._split_key(line)
            if key in result:
                raise SpecError(
                    f"duplicate key {key!r}",
                    field=".".join(str(p) for p in path + (key,)),
                    line=line.number,
                )
            child_path = path + (key,)
            self.linemap[child_path] = line.number
            self.pos += 1
            if value_text:
                result[key] = _parse_scalar(value_text, line.number)
            else:
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    result[key] = self.parse_block(nxt.indent, child_path)
                else:
                    result[key] = None
        return result

    def parse_sequence(
        self, indent: int, path: Tuple[object, ...]
    ) -> List[object]:
        result: List[object] = []
        while True:
            line = self.peek()
            if line is None or line.indent < indent:
                return result
            if line.indent > indent:
                raise SpecError(
                    f"unexpected indentation ({line.indent} spaces, "
                    f"expected {indent})",
                    line=line.number,
                )
            if not (line.text.startswith("- ") or line.text == "-"):
                raise SpecError(
                    "mapping key found where a sequence item was expected",
                    line=line.number,
                )
            index = len(result)
            child_path = path + (index,)
            self.linemap[child_path] = line.number
            body = line.text[1:].strip()
            if not body:
                # "-" alone: the item is the following deeper block.
                self.pos += 1
                nxt = self.peek()
                if nxt is not None and nxt.indent > indent:
                    result.append(self.parse_block(nxt.indent, child_path))
                else:
                    result.append(None)
                continue
            if self._looks_like_mapping(body):
                # "- key: value": a mapping whose first entry sits on the
                # dash line; continuation lines are indented past the dash.
                item_indent = line.indent + (len(line.text) - len(body))
                self.lines[self.pos] = _Line(
                    number=line.number, indent=item_indent, text=body
                )
                result.append(self.parse_mapping(item_indent, child_path))
            else:
                self.pos += 1
                result.append(_parse_scalar(body, line.number))
        return result

    @staticmethod
    def _looks_like_mapping(body: str) -> bool:
        if body.startswith(("'", '"', "[", "{")):
            return False
        head = body.split(":", 1)
        if len(head) != 2:
            return False
        if head[1] and not head[1].startswith(" "):
            return False  # e.g. a URL or timestamp scalar
        return bool(_PLAIN_KEY.match(head[0].strip()))

    def _split_key(self, line: _Line) -> Tuple[str, str]:
        text = line.text
        if text.startswith(("'", '"')):
            quote = text[0]
            end = text.find(quote, 1)
            while quote == "'" and 0 < end < len(text) - 1 and text[end + 1] == "'":
                end = text.find(quote, end + 2)
            if end < 0 or end + 1 >= len(text) or text[end + 1] != ":":
                raise SpecError(
                    "expected 'key: value'", line=line.number
                )
            key = _parse_quoted(text[: end + 1], line.number)
            rest = text[end + 2 :].strip()
            return str(key), rest
        head, sep, rest = text.partition(":")
        if not sep or (rest and not rest.startswith(" ")):
            raise SpecError(
                f"expected 'key: value', got {text[:40]!r}",
                line=line.number,
            )
        key = head.strip()
        if not _PLAIN_KEY.match(key):
            raise SpecError(
                f"invalid mapping key {key!r}", line=line.number
            )
        return key, rest.strip()


def load_yaml(text: str) -> Tuple[object, Dict[Tuple[object, ...], int]]:
    """Parse the YAML subset; returns ``(data, path -> line map)``.

    Raises:
        SpecError: any syntactic problem, with an exact line number.
    """
    if not isinstance(text, str):
        raise SpecError(
            f"spec text must be a string, got {type(text).__name__}"
        )
    lines = _logical_lines(text)
    if not lines:
        return None, {}
    parser = _BlockParser(lines)
    first = parser.peek()
    assert first is not None
    if first.indent != 0:
        raise SpecError(
            "top-level content must start at column 0", line=first.number
        )
    data = parser.parse_block(0, ())
    leftover = parser.peek()
    if leftover is not None:
        raise SpecError(
            f"unparsed trailing content {leftover.text[:40]!r}",
            line=leftover.number,
        )
    return data, parser.linemap


_PLAIN_STRING = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")
_PLAIN_UNSAFE = frozenset(
    ("true", "false", "null", "True", "False", "Null", "TRUE", "FALSE", "NULL", "~")
)


def _dump_scalar(value: object) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        if "inf" in text or "nan" in text:
            raise SpecError("non-finite floats cannot be written to a spec")
        return text
    if isinstance(value, str):
        if _PLAIN_STRING.match(value) and value not in _PLAIN_UNSAFE:
            return value
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'
    raise SpecError(f"cannot serialize {type(value).__name__} into a spec")


def dump_yaml(data: object, indent: int = 0) -> str:
    """Emit the YAML subset deterministically (inverse of :func:`load_yaml`).

    Mapping key order is preserved (specs are emitted from canonical
    dicts, so the output is byte-stable), scalars use JSON-compatible
    forms, and the result always re-parses to an equal structure — the
    round-trip property the hypothesis suite asserts.
    """
    pad = " " * indent
    if isinstance(data, Mapping):
        if not data:
            return pad + "{}"
        chunks = []
        for key, value in data.items():
            key_text = _dump_scalar(str(key))
            if isinstance(value, Mapping) and value:
                chunks.append(f"{pad}{key_text}:")
                chunks.append(dump_yaml(value, indent + 2))
            elif isinstance(value, (list, tuple)) and len(value):
                chunks.append(f"{pad}{key_text}:")
                chunks.append(dump_yaml(list(value), indent + 2))
            elif isinstance(value, (Mapping, list, tuple)):
                chunks.append(f"{pad}{key_text}: " + ("{}" if isinstance(value, Mapping) else "[]"))
            else:
                chunks.append(f"{pad}{key_text}: {_dump_scalar(value)}")
        return "\n".join(chunks)
    if isinstance(data, (list, tuple)):
        if not data:
            return pad + "[]"
        chunks = []
        for item in data:
            if isinstance(item, Mapping) and item:
                # "- " replaces the first two indent spaces of the item
                # block, putting its first key on the dash line.
                body = dump_yaml(item, indent + 2)
                chunks.append(pad + "- " + body[indent + 2 :])
            elif isinstance(item, (list, tuple)) and len(item):
                inline = ", ".join(_dump_scalar(x) for x in item)
                chunks.append(f"{pad}- [{inline}]")
            elif isinstance(item, Mapping):
                chunks.append(pad + "- {}")
            elif isinstance(item, (list, tuple)):
                chunks.append(pad + "- []")
            else:
                chunks.append(f"{pad}- {_dump_scalar(item)}")
        return "\n".join(chunks)
    return pad + _dump_scalar(data)


# ======================================================================
# Typed AST
# ======================================================================


@dataclasses.dataclass(frozen=True)
class OverrideSpec:
    """One point on the config-override grid axis.

    ``configs`` maps backend keys (lowercase) to ``(field, value)``
    pairs applied on top of that backend's default config with
    :func:`dataclasses.replace`; both levels are stored as sorted
    tuples so specs hash and compare structurally.
    """

    name: str
    configs: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()

    def config_mapping(self) -> Dict[str, Dict[str, object]]:
        return {
            backend: dict(fields) for backend, fields in self.configs
        }


@dataclasses.dataclass(frozen=True)
class FilterSpec:
    """Keep/exclude clauses applied to the expanded grid.

    ``algorithms``/``graphs`` are keep-only lists (empty = keep all);
    ``exclude`` removes individual ``(algorithm, graph)`` cells.
    """

    algorithms: Tuple[str, ...] = ()
    graphs: Tuple[str, ...] = ()
    exclude: Tuple[Tuple[str, str], ...] = ()

    def keeps(self, algorithm: str, graph: str) -> bool:
        if self.algorithms and algorithm not in self.algorithms:
            return False
        if self.graphs and graph not in self.graphs:
            return False
        return (algorithm, graph) not in self.exclude


@dataclasses.dataclass(frozen=True)
class OutputSpec:
    """A named artifact: ``builder`` is a key of :data:`OUTPUT_BUILDERS`."""

    name: str
    builder: str


@dataclasses.dataclass(frozen=True)
class GridCell:
    """One expanded grid point, pre-planning."""

    override: str
    algorithm: str
    graph: str


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """The validated root of one experiment description."""

    name: str
    description: str = ""
    #: Participating backends (display-name keys, case-insensitive);
    #: empty = every registered backend, in registration order.
    backends: Tuple[str, ...] = ()
    #: Grid axes.  Empty algorithms/graphs fall back to the full
    #: algorithm set / the six real-world proxies at expansion time.
    algorithms: Tuple[str, ...] = ()
    graphs: Tuple[str, ...] = ()
    overrides: Tuple[OverrideSpec, ...] = ()
    filter: FilterSpec = FilterSpec()
    select: Tuple[str, ...] = ()
    outputs: Tuple[OutputSpec, ...] = ()
    source: int = 0
    storage: str = "memory"
    shards: int = 1

    # -- expansion -----------------------------------------------------
    def effective_algorithms(self) -> Tuple[str, ...]:
        return self.algorithms or tuple(algorithm_names())

    def effective_graphs(self) -> Tuple[str, ...]:
        from .service import REAL_WORLD_KEYS

        return self.graphs or REAL_WORLD_KEYS

    def effective_overrides(self) -> Tuple[OverrideSpec, ...]:
        return self.overrides or (OverrideSpec(name=BASE_OVERRIDE),)

    def grid(self) -> List[GridCell]:
        """The filtered grid in canonical order.

        Canonical order is override-major, then algorithm-major with
        graphs minor — exactly the cell order of
        :meth:`repro.harness.service.RunService.run_matrix`, which is
        what makes spec-driven reports byte-comparable to the hand-coded
        path.
        """
        cells: List[GridCell] = []
        for override in self.effective_overrides():
            for algorithm in self.effective_algorithms():
                for graph in self.effective_graphs():
                    if self.filter.keeps(algorithm, graph):
                        cells.append(
                            GridCell(
                                override=override.name,
                                algorithm=algorithm,
                                graph=graph,
                            )
                        )
        return cells


def spec_digest(spec: ExperimentSpec) -> str:
    """Stable short digest of a spec's canonical dict form."""
    text = json.dumps(spec_to_dict(spec), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ======================================================================
# dict <-> AST with validation
# ======================================================================

_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "include",
    "backends",
    "algorithms",
    "graphs",
    "overrides",
    "filter",
    "select",
    "outputs",
    "source",
    "storage",
    "shards",
)

_FILTER_KEYS = ("algorithms", "graphs", "exclude")


def _builders() -> Dict[str, object]:
    """The live output-builder registry (import deferred: figures pull in
    the whole harness, which specs parsing should not require)."""
    from . import figures, tables

    return {
        "table1": tables.table1,
        "table2": tables.table2,
        "table3": tables.table3,
        "table4": tables.table4,
        "fig2": figures.figure2,
        "fig6": figures.figure6,
        "fig7": figures.figure7,
        "fig8": figures.figure8,
        "fig9": figures.figure9,
        "fig10": figures.figure10,
        "fig11": figures.figure11,
        "fig12": figures.figure12,
        "fig13": figures.figure13,
        "fig14a": figures.figure14a,
        "fig14b": figures.figure14b,
        "fig14c": figures.figure14c,
        "fig14d": figures.figure14d,
        "fig14e": figures.figure14e,
        "fig14f": figures.figure14f,
    }


class _Builders(Mapping):
    """Lazy, read-only view over :func:`_builders` (the CLI's registry)."""

    def __getitem__(self, key):
        return _builders()[key]

    def __iter__(self):
        return iter(_builders())

    def __len__(self):
        return len(_builders())


#: Named table/figure builders a spec ``outputs`` clause may reference.
OUTPUT_BUILDERS: Mapping = _Builders()


class _Context:
    """Carries the line map + source path through validation."""

    def __init__(
        self,
        linemap: Optional[Dict[Tuple[object, ...], int]] = None,
        source: Optional[str] = None,
    ) -> None:
        self.linemap = linemap or {}
        self.source = source

    def fail(self, path: Tuple[object, ...], detail: str) -> "SpecError":
        field = ".".join(str(p) for p in path) if path else None
        # Inline-list items have no line of their own; fall back to the
        # nearest enclosing key that does.
        probe = path
        line = self.linemap.get(probe)
        while line is None and probe:
            probe = probe[:-1]
            line = self.linemap.get(probe)
        return SpecError(
            detail,
            field=field,
            line=line,
            source=self.source,
        )


def _expect(
    ctx: _Context,
    path: Tuple[object, ...],
    value: object,
    kinds: tuple,
    what: str,
) -> object:
    if isinstance(value, bool) and bool not in kinds:
        raise ctx.fail(
            path, f"expected {what}, got boolean {value!r}"
        )
    if not isinstance(value, kinds):
        raise ctx.fail(
            path,
            f"expected {what}, got {type(value).__name__} ({value!r})",
        )
    return value


def _string_tuple(
    ctx: _Context, path: Tuple[object, ...], value: object, what: str
) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        value = [value]
    _expect(ctx, path, value, (list,), f"a list of {what}")
    out: List[str] = []
    for index, item in enumerate(value):
        _expect(ctx, path + (index,), item, (str,), what)
        out.append(item)
    return tuple(out)


def _check_unknown_keys(
    ctx: _Context,
    path: Tuple[object, ...],
    data: Mapping,
    allowed: Sequence[str],
    what: str,
) -> None:
    for key in data:
        if key not in allowed:
            raise ctx.fail(
                path + (key,),
                f"unknown {what} key {key!r} (allowed: "
                f"{', '.join(allowed)})",
            )


def _validate_algorithm(
    ctx: _Context, path: Tuple[object, ...], name: str
) -> str:
    try:
        return get_algorithm(name).name
    except KeyError as exc:
        raise ctx.fail(path, str(exc.args[0] if exc.args else exc)) from exc


def _validate_graph(ctx: _Context, path: Tuple[object, ...], key: str) -> str:
    try:
        datasets.resolve_key(key)
    except KeyError as exc:
        raise ctx.fail(path, str(exc.args[0] if exc.args else exc)) from exc
    return key


def _validate_backend(
    ctx: _Context, path: Tuple[object, ...], name: str
) -> str:
    if not backend_registry.is_registered(name):
        raise ctx.fail(
            path,
            f"unknown backend {name!r}; available: "
            f"{backend_registry.available()}",
        )
    return name.lower()


def _validate_override_fields(
    ctx: _Context,
    path: Tuple[object, ...],
    backend_key: str,
    fields: Mapping,
) -> Tuple[Tuple[str, object], ...]:
    config = backend_registry.create(backend_key).config
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        known = {f.name for f in dataclasses.fields(config)}
    else:  # pragma: no cover - all builtin configs are dataclasses
        known = set()
    pairs: List[Tuple[str, object]] = []
    for field_name in sorted(fields):
        field_path = path + (field_name,)
        if known and field_name not in known:
            raise ctx.fail(
                field_path,
                f"backend {backend_key!r} config has no field "
                f"{field_name!r} (fields: {', '.join(sorted(known))})",
            )
        value = fields[field_name]
        _expect(
            ctx,
            field_path,
            value,
            (int, float, bool, str),
            "a scalar config value",
        )
        pairs.append((field_name, value))
    return tuple(pairs)


def _parse_override(
    ctx: _Context, path: Tuple[object, ...], data: object, index: int
) -> OverrideSpec:
    _expect(ctx, path, data, (Mapping,), "an override mapping")
    assert isinstance(data, Mapping)
    name = data.get("name")
    if name is None:
        raise ctx.fail(
            path, f"override #{index} is missing the required 'name' key"
        )
    _expect(ctx, path + ("name",), name, (str,), "an override name")
    configs: List[Tuple[str, Tuple[Tuple[str, object], ...]]] = []
    for key in sorted(k for k in data if k != "name"):
        backend_path = path + (key,)
        backend_key = _validate_backend(ctx, backend_path, key)
        fields = data[key]
        if fields is None:
            fields = {}
        _expect(
            ctx,
            backend_path,
            fields,
            (Mapping,),
            "a mapping of config fields",
        )
        configs.append(
            (
                backend_key,
                _validate_override_fields(
                    ctx, backend_path, backend_key, fields
                ),
            )
        )
    return OverrideSpec(name=name, configs=tuple(configs))


def _parse_filter(
    ctx: _Context, path: Tuple[object, ...], data: object
) -> FilterSpec:
    if data is None:
        return FilterSpec()
    _expect(ctx, path, data, (Mapping,), "a filter mapping")
    assert isinstance(data, Mapping)
    _check_unknown_keys(ctx, path, data, _FILTER_KEYS, "filter")
    algorithms = tuple(
        _validate_algorithm(ctx, path + ("algorithms", i), a)
        for i, a in enumerate(
            _string_tuple(
                ctx, path + ("algorithms",), data.get("algorithms"),
                "an algorithm name",
            )
        )
    )
    graphs = tuple(
        _validate_graph(ctx, path + ("graphs", i), g)
        for i, g in enumerate(
            _string_tuple(
                ctx, path + ("graphs",), data.get("graphs"),
                "a dataset key",
            )
        )
    )
    exclude: List[Tuple[str, str]] = []
    raw_exclude = data.get("exclude")
    if raw_exclude is not None:
        _expect(
            ctx,
            path + ("exclude",),
            raw_exclude,
            (list,),
            "a list of {algorithm, graph} cells",
        )
        for index, item in enumerate(raw_exclude):
            cell_path = path + ("exclude", index)
            _expect(
                ctx, cell_path, item, (Mapping,),
                "an {algorithm, graph} mapping",
            )
            assert isinstance(item, Mapping)
            _check_unknown_keys(
                ctx, cell_path, item, ("algorithm", "graph"), "exclude cell"
            )
            if "algorithm" not in item or "graph" not in item:
                raise ctx.fail(
                    cell_path,
                    "exclude cells need both 'algorithm' and 'graph'",
                )
            algo = _expect(
                ctx, cell_path + ("algorithm",), item["algorithm"], (str,),
                "an algorithm name",
            )
            graph = _expect(
                ctx, cell_path + ("graph",), item["graph"], (str,),
                "a dataset key",
            )
            exclude.append(
                (
                    _validate_algorithm(
                        ctx, cell_path + ("algorithm",), str(algo)
                    ),
                    _validate_graph(ctx, cell_path + ("graph",), str(graph)),
                )
            )
    return FilterSpec(
        algorithms=algorithms, graphs=graphs, exclude=tuple(exclude)
    )


def _parse_outputs(
    ctx: _Context, path: Tuple[object, ...], data: object
) -> Tuple[OutputSpec, ...]:
    if data is None:
        return ()
    _expect(
        ctx, path, data, (Mapping,), "a mapping of output name -> builder"
    )
    assert isinstance(data, Mapping)
    builders = _builders()
    out: List[OutputSpec] = []
    for name in sorted(data):
        builder = data[name]
        _expect(
            ctx, path + (name,), builder, (str,), "a builder name"
        )
        if builder not in builders:
            raise ctx.fail(
                path + (name,),
                f"unknown output builder {builder!r} (available: "
                f"{', '.join(sorted(builders))})",
            )
        out.append(OutputSpec(name=str(name), builder=str(builder)))
    return tuple(out)


def spec_from_dict(
    data: object,
    linemap: Optional[Dict[Tuple[object, ...], int]] = None,
    source: Optional[str] = None,
) -> ExperimentSpec:
    """Validate a parsed mapping into an :class:`ExperimentSpec`.

    Raises:
        SpecError: naming the offending field (dotted path) and, when a
            line map is available, the source line.
    """
    ctx = _Context(linemap, source)
    _expect(ctx, (), data, (Mapping,), "a spec mapping")
    assert isinstance(data, Mapping)
    _check_unknown_keys(ctx, (), data, _TOP_LEVEL_KEYS, "spec")
    name = data.get("name")
    if name is None:
        raise ctx.fail((), "spec is missing the required 'name' key")
    _expect(ctx, ("name",), name, (str,), "a spec name")
    if not str(name).strip():
        raise ctx.fail(("name",), "spec name must be non-empty")
    description = data.get("description", "")
    _expect(ctx, ("description",), description, (str,), "a description")

    backends = tuple(
        _validate_backend(ctx, ("backends", i), b)
        for i, b in enumerate(
            _string_tuple(
                ctx, ("backends",), data.get("backends"), "a backend name"
            )
        )
    )
    algorithms = tuple(
        _validate_algorithm(ctx, ("algorithms", i), a)
        for i, a in enumerate(
            _string_tuple(
                ctx, ("algorithms",), data.get("algorithms"),
                "an algorithm name",
            )
        )
    )
    graphs = tuple(
        _validate_graph(ctx, ("graphs", i), g)
        for i, g in enumerate(
            _string_tuple(
                ctx, ("graphs",), data.get("graphs"), "a dataset key"
            )
        )
    )

    raw_overrides = data.get("overrides")
    overrides: Tuple[OverrideSpec, ...] = ()
    if raw_overrides is not None:
        _expect(
            ctx, ("overrides",), raw_overrides, (list,),
            "a list of override mappings",
        )
        parsed: List[OverrideSpec] = []
        seen: set = set()
        for index, item in enumerate(raw_overrides):
            override = _parse_override(
                ctx, ("overrides", index), item, index
            )
            if override.name in seen:
                raise ctx.fail(
                    ("overrides", index, "name"),
                    f"duplicate override name {override.name!r}",
                )
            seen.add(override.name)
            parsed.append(override)
        overrides = tuple(parsed)

    select = _string_tuple(
        ctx, ("select",), data.get("select"), "a report field"
    )
    for i, field in enumerate(select):
        if field not in SELECTABLE_FIELDS:
            raise ctx.fail(
                ("select", i),
                f"unknown report field {field!r} (selectable: "
                f"{', '.join(SELECTABLE_FIELDS)})",
            )

    outputs = _parse_outputs(ctx, ("outputs",), data.get("outputs"))
    filter_spec = _parse_filter(ctx, ("filter",), data.get("filter"))

    source_vertex = data.get("source", 0)
    _expect(ctx, ("source",), source_vertex, (int,), "a vertex id")
    if int(source_vertex) < 0:
        raise ctx.fail(("source",), "source vertex must be >= 0")
    storage = data.get("storage", "memory")
    _expect(ctx, ("storage",), storage, (str,), "a storage kind")
    if storage not in STORAGE_KINDS:
        raise ctx.fail(
            ("storage",),
            f"unknown storage kind {storage!r} (expected one of "
            f"{STORAGE_KINDS})",
        )
    shards = data.get("shards", 1)
    _expect(ctx, ("shards",), shards, (int,), "a shard count")
    if int(shards) < 1:
        raise ctx.fail(("shards",), "shards must be >= 1")

    # Filter clauses must intersect the declared axes, otherwise the
    # grid silently collapses to nothing — make that loud.
    spec = ExperimentSpec(
        name=str(name),
        description=str(description),
        backends=backends,
        algorithms=algorithms,
        graphs=graphs,
        overrides=overrides,
        filter=filter_spec,
        select=select,
        outputs=outputs,
        source=int(source_vertex),
        storage=str(storage),
        shards=int(shards),
    )
    if not spec.grid():
        raise ctx.fail(
            ("filter",),
            "the filter removes every cell of the grid "
            "(nothing would run)",
        )
    return spec


def spec_to_dict(spec: ExperimentSpec) -> Dict[str, object]:
    """Canonical plain-dict form (inverse of :func:`spec_from_dict`).

    Only non-default fields are emitted, in a fixed key order, so the
    dict (and hence :func:`spec_to_yaml` / :func:`spec_digest`) is
    byte-deterministic for a given spec.
    """
    out: Dict[str, object] = {"name": spec.name}
    if spec.description:
        out["description"] = spec.description
    if spec.backends:
        out["backends"] = list(spec.backends)
    if spec.algorithms:
        out["algorithms"] = list(spec.algorithms)
    if spec.graphs:
        out["graphs"] = list(spec.graphs)
    if spec.overrides:
        overrides: List[Dict[str, object]] = []
        for override in spec.overrides:
            entry: Dict[str, object] = {"name": override.name}
            for backend, fields in override.configs:
                entry[backend] = dict(fields)
            overrides.append(entry)
        out["overrides"] = overrides
    filter_dict: Dict[str, object] = {}
    if spec.filter.algorithms:
        filter_dict["algorithms"] = list(spec.filter.algorithms)
    if spec.filter.graphs:
        filter_dict["graphs"] = list(spec.filter.graphs)
    if spec.filter.exclude:
        filter_dict["exclude"] = [
            {"algorithm": a, "graph": g} for a, g in spec.filter.exclude
        ]
    if filter_dict:
        out["filter"] = filter_dict
    if spec.select:
        out["select"] = list(spec.select)
    if spec.outputs:
        out["outputs"] = {o.name: o.builder for o in spec.outputs}
    if spec.source:
        out["source"] = spec.source
    if spec.storage != "memory":
        out["storage"] = spec.storage
    if spec.shards != 1:
        out["shards"] = spec.shards
    return out


def spec_to_yaml(spec: ExperimentSpec) -> str:
    """The spec as canonical YAML-subset text (ends with a newline)."""
    return dump_yaml(spec_to_dict(spec)) + "\n"


# ======================================================================
# Text / file entry points (with include resolution)
# ======================================================================


def parse_spec(
    text: str,
    source: Optional[str] = None,
    _include_stack: Tuple[str, ...] = (),
) -> ExperimentSpec:
    """Parse and validate one spec from YAML-subset text.

    Raises:
        SpecError: for *any* malformed input — syntax, structure, or
            semantics — never a raw traceback.
    """
    data, linemap = load_yaml(text)
    if data is None:
        raise SpecError("spec is empty", source=source)
    ctx = _Context(linemap, source)
    _expect(ctx, (), data, (Mapping,), "a spec mapping")
    assert isinstance(data, Mapping)
    include = data.get("include")
    if include is not None:
        data = _resolve_includes(ctx, data, include, source, _include_stack)
    return spec_from_dict(data, linemap, source)


def _resolve_includes(
    ctx: _Context,
    data: Mapping,
    include: object,
    source: Optional[str],
    stack: Tuple[str, ...],
) -> Dict[str, object]:
    paths = _string_tuple(ctx, ("include",), include, "an include path")
    base = os.path.dirname(os.path.abspath(source)) if source else os.getcwd()
    merged: Dict[str, object] = {}
    for index, rel in enumerate(paths):
        resolved = os.path.normpath(os.path.join(base, rel))
        if resolved in stack:
            chain = " -> ".join(list(stack) + [resolved])
            raise ctx.fail(
                ("include", index), f"cyclic include: {chain}"
            )
        try:
            with open(resolved) as handle:
                text = handle.read()
        except OSError as exc:
            raise ctx.fail(
                ("include", index),
                f"cannot read include {rel!r}: {exc}",
            ) from exc
        child_data, child_linemap = load_yaml(text)
        child_ctx = _Context(child_linemap, resolved)
        _expect(child_ctx, (), child_data, (Mapping,), "a spec mapping")
        assert isinstance(child_data, Mapping)
        child_include = child_data.get("include")
        if child_include is not None:
            child_data = _resolve_includes(
                child_ctx,
                child_data,
                child_include,
                resolved,
                stack + (resolved,),
            )
        for key, value in child_data.items():
            if key != "include":
                merged[key] = value
    for key, value in data.items():
        if key != "include":
            merged[key] = value  # the including file wins
    return merged


def load_spec(path: str) -> ExperimentSpec:
    """Read, parse and validate a spec file.

    Raises:
        SpecError: unreadable file or malformed/invalid content.
    """
    resolved = os.path.abspath(path)
    try:
        with open(resolved) as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(
            f"cannot read spec file: {exc}", source=path
        ) from exc
    return parse_spec(text, source=resolved, _include_stack=(resolved,))
