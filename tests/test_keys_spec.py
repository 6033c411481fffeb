"""Tests for key specifications (repro.keys.spec, repro.keys.keyparser)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.company import company_key_spec
from repro.data.omim import omim_key_spec
from repro.data.swissprot import swissprot_key_spec
from repro.data.xmark import xmark_key_spec
from repro.keys import (
    Key,
    KeySpec,
    KeySpecError,
    empty_spec,
    key,
    parse_key_line,
    parse_key_spec,
)
from repro.keys.paths import concat, format_path, is_proper_prefix


class TestKey:
    def test_absolute_target(self):
        k = key("/db/dept", "emp", ("fn", "ln"))
        assert k.absolute_target == ("db", "dept", "emp")

    def test_rejects_empty_target(self):
        with pytest.raises(KeySpecError):
            key("/db", "")

    def test_rejects_duplicate_key_paths(self):
        with pytest.raises(KeySpecError):
            key("/db", "emp", ("fn", "fn"))

    def test_str_round_trips_through_parser(self):
        k = key("/db/dept", "emp", ("fn", "ln"))
        assert parse_key_line(str(k)) == k


class TestKeyParser:
    def test_simple(self):
        k = parse_key_line("(/db, (dept, {name}))")
        assert k == key("/db", "dept", ("name",))

    def test_empty_key_path_set(self):
        k = parse_key_line("(/, (db, {}))")
        assert k == key("/", "db", ())

    def test_dot_key_path(self):
        k = parse_key_line("(/db/dept/emp, (tel, {.}))")
        assert k.key_paths == ((),)

    def test_backslash_e_key_path(self):
        k = parse_key_line("(/ROOT/Record, (AlternativeTitle, {\\e}))")
        assert k.key_paths == ((),)

    def test_multi_step_key_paths(self):
        k = parse_key_line(
            "(/ROOT/Record, (Contributors, {Name, Date/Month, Date/Day}))"
        )
        assert ("Date", "Month") in k.key_paths

    def test_comments_and_blanks_skipped(self):
        spec = parse_key_spec("# heading\n\n(/, (db, {}))\n")
        assert len(spec) == 1

    def test_wildcard_expansion(self):
        spec_text = (
            "(/, (site, {}))\n(/site, (regions, {}))\n"
            "(/site/regions, (_, {}))\n(/site/regions/_, (item, {id}))"
        )
        spec = parse_key_spec(spec_text, wildcards={"_": ["africa", "asia"]})
        assert spec.key_for(("site", "regions", "africa", "item")) is not None
        assert spec.key_for(("site", "regions", "asia", "item")) is not None

    @pytest.mark.parametrize(
        "line",
        ["/db, dept", "(db)", "(/db, (dept, name))", "(/db, (dept, {name})"],
    )
    def test_malformed(self, line):
        with pytest.raises(KeySpecError):
            parse_key_line(line)


class TestKeySpec:
    def test_company_spec_closure_adds_implied_keys(self):
        spec = company_key_spec()
        # Implied: (/db/dept, (name, {})), (/db/dept/emp, (fn, {})), (ln, {}).
        assert spec.key_for(("db", "dept", "name")) is not None
        assert spec.key_for(("db", "dept", "emp", "fn")) is not None
        assert spec.key_for(("db", "dept", "emp", "ln")) is not None

    def test_company_frontier_paths(self):
        spec = company_key_spec()
        expected = {
            ("db", "dept", "name"),
            ("db", "dept", "emp", "fn"),
            ("db", "dept", "emp", "ln"),
            ("db", "dept", "emp", "sal"),
            ("db", "dept", "emp", "tel"),
        }
        assert set(spec.frontier_paths) == expected

    def test_non_frontier_paths(self):
        spec = company_key_spec()
        assert not spec.is_frontier_path(("db", "dept", "emp"))
        assert not spec.is_frontier_path(("db",))

    def test_max_keyed_depth(self):
        assert company_key_spec().max_keyed_depth() == 4

    def test_duplicate_target_paths_rejected(self):
        with pytest.raises(KeySpecError):
            KeySpec(explicit_keys=[key("/", "db"), key("/", "db", ("id",))])

    def test_not_insertion_friendly_rejected(self):
        # /db is never keyed, so a key relative to it dangles.
        with pytest.raises(KeySpecError):
            KeySpec(explicit_keys=[key("/db", "dept", ("name",))])

    def test_key_beneath_key_path_rejected(self):
        # emp is keyed by fn; keying something under .../emp/fn violates
        # assumption 3.
        with pytest.raises(KeySpecError):
            KeySpec(
                explicit_keys=[
                    key("/", "db"),
                    key("/db", "emp", ("fn",)),
                    key("/db/emp/fn", "part", ("x",)),
                ]
            )

    def test_empty_spec(self):
        spec = empty_spec()
        assert len(spec) == 0
        assert spec.max_keyed_depth() == 0

    def test_iteration_yields_keys(self):
        spec = company_key_spec()
        assert all(isinstance(k, Key) for k in spec)

    def test_str_lists_all_keys(self):
        text = str(company_key_spec())
        assert "(/db/dept, (emp, {fn, ln}))" in text


# -- the closure against its pairwise definition ---------------------------------


def pairwise(explicit_keys: list) -> frozenset:
    """``KeySpec``'s closure and checks, each "proper prefix of another
    keyed path" question asked of every pair: the frontier paths, or the
    ``KeySpecError`` the specification fails with."""
    closed: dict = {}

    def add(new_key) -> None:
        if new_key.absolute_target in closed:
            raise KeySpecError(
                f"Two keys share the target path "
                f"{format_path(new_key.absolute_target)!r}"
            )
        closed[new_key.absolute_target] = new_key

    for user_key in explicit_keys:
        add(user_key)
    for user_key in explicit_keys:
        for key_path in filter(None, user_key.key_paths):
            implied = Key(context=user_key.absolute_target, target=key_path)
            if implied.absolute_target not in closed:
                add(implied)
    frontier = frozenset(
        path
        for path in closed
        if not any(is_proper_prefix(path, other) for other in closed)
    )
    for k in closed.values():
        if k.context and k.context not in closed:
            raise KeySpecError(
                f"Key {k} is not insertion-friendly: its context "
                f"{format_path(k.context)!r} is not itself a keyed path"
            )
    for k in explicit_keys:
        for key_path in k.key_paths:
            beneath = concat(k.absolute_target, key_path)
            for other_path in closed:
                if key_path and is_proper_prefix(beneath, other_path):
                    raise KeySpecError(
                        f"Keyed path {format_path(other_path)!r} lies "
                        f"beneath the key path "
                        f"{format_path(beneath)!r} of key {k}"
                    )
    return frontier


def outcome(build) -> object:
    try:
        return build()
    except KeySpecError as error:
        return ("KeySpecError", str(error))


_STEPS = st.sampled_from(["a", "b", "c"])
_PATHS = st.lists(_STEPS, min_size=1, max_size=4).map(tuple)


@st.composite
def _explicit_keys(draw) -> list:
    """Keys over a three-letter alphabet, so that prefixes, shared
    targets, dangling contexts and keys beneath key paths all occur;
    half the time every prefix of a target is a target too, so the
    context check passes and the closure reaches the beneath-check."""
    paths = set(draw(st.lists(_PATHS, max_size=6)))
    if draw(st.booleans()):
        paths |= {path[:end] for path in paths for end in range(1, len(path))}
    keys = []
    for path in sorted(paths):
        split = draw(st.integers(0, len(path) - 1))
        key_paths = draw(
            st.lists(st.lists(_STEPS, max_size=2).map(tuple), max_size=3, unique=True)
        )
        keys.append(Key(path[:split], path[split:], tuple(key_paths)))
    return keys


class TestClosureAgainstPairwise:
    @settings(max_examples=300, deadline=None)
    @given(_explicit_keys())
    def test_frontier_and_beneath_check_equal_the_pairwise_definition(self, keys):
        expected = outcome(lambda: pairwise(keys))
        found = outcome(lambda: KeySpec(explicit_keys=keys).frontier_paths)
        assert found == expected

    @pytest.mark.parametrize(
        "spec",
        [company_key_spec, omim_key_spec, swissprot_key_spec, xmark_key_spec],
        ids=["company", "omim", "swissprot", "xmark-wildcards"],
    )
    def test_the_shipped_specs(self, spec):
        built = spec()
        assert built.frontier_paths == pairwise(built.explicit_keys)
        assert len(built.frontier_paths) < len(built.keys_by_path)

    def test_the_error_names_the_first_offending_path(self):
        keys = [
            key("/", "db"),
            key("/db", "emp", ("fn", "ln")),
            key("/db/emp", "ln", ("x",)),
            key("/db/emp/fn", "part", ("x",)),
        ]
        message = (
            "Keyed path '/db/emp/fn/part' lies beneath the key path "
            "'/db/emp/fn' of key (/db, (emp, {fn, ln}))"
        )
        with pytest.raises(KeySpecError) as caught:
            KeySpec(explicit_keys=keys)
        assert str(caught.value) == message
        assert outcome(lambda: pairwise(keys)) == ("KeySpecError", message)
