"""Tests for the XPath fragment parser."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath import Axis, parse_path, parse_xpath
from repro.xpath.parser import MAX_PATTERN_DEPTH


class TestMainPath:
    def test_absolute_child_path(self):
        pattern = parse_xpath("/a/b/c")
        labels = [n.label for n in pattern.ret.root_path()]
        axes = [n.axis for n in pattern.ret.root_path()]
        assert labels == ["a", "b", "c"]
        assert axes == [Axis.CHILD, Axis.CHILD, Axis.CHILD]
        assert pattern.ret.label == "c"

    def test_descendant_axes(self):
        pattern = parse_xpath("//a//b/c")
        axes = [n.axis for n in pattern.ret.root_path()]
        assert axes == [Axis.DESCENDANT, Axis.DESCENDANT, Axis.CHILD]

    def test_bare_expression_means_descendant_root(self):
        """Paper style: 's[t]/p' is anchored anywhere, i.e. //s[t]/p."""
        pattern = parse_xpath("s[t]/p")
        assert pattern.root.axis is Axis.DESCENDANT
        assert pattern == parse_xpath("//s[t]/p")

    def test_wildcard_steps(self):
        pattern = parse_xpath("/a/*/b")
        middle = pattern.ret.parent
        assert middle.is_wildcard

    def test_answer_node_is_path_tail(self):
        pattern = parse_xpath("/a[b]/c[d]")
        assert pattern.ret.label == "c"

    def test_whitespace_tolerated(self):
        assert parse_xpath(" /a [ b ] / c ") == parse_xpath("/a[b]/c")


class TestPredicates:
    def test_simple_branch(self):
        pattern = parse_xpath("/a[b]/c")
        a = pattern.root
        assert sorted(child.label for child in a.children) == ["b", "c"]

    def test_branch_path(self):
        pattern = parse_xpath("/a[b/d]/c")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert [c.label for c in b.children] == ["d"]

    def test_dot_slash_spelling(self):
        assert parse_xpath("/a[./b/d]/c") == parse_xpath("/a[b/d]/c")

    def test_dot_descendant_spelling(self):
        pattern = parse_xpath("/a[.//b]/c")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert b.axis is Axis.DESCENDANT

    def test_slash_spellings_inside_predicate(self):
        assert parse_xpath("/a[//b]/c") == parse_xpath("/a[.//b]/c")
        assert parse_xpath("/a[/b]/c") == parse_xpath("/a[b]/c")

    def test_nested_predicates(self):
        pattern = parse_xpath("/a[b[c]/d]/e")
        b = next(child for child in pattern.root.children if child.label == "b")
        assert sorted(child.label for child in b.children) == ["c", "d"]

    def test_multiple_predicates(self):
        pattern = parse_xpath("/a[b][c][d]/e")
        assert sorted(c.label for c in pattern.root.children) == list("bcde")

    def test_wildcard_in_predicate(self):
        pattern = parse_xpath("/a[*//d]/e")
        star = next(c for c in pattern.root.children if c.is_wildcard)
        assert star.children[0].label == "d"
        assert star.children[0].axis is Axis.DESCENDANT


class TestAttributePredicates:
    def test_existence(self):
        pattern = parse_xpath("//item[@id]/name")
        item = pattern.root
        assert item.constraints[0].name == "id"
        assert item.constraints[0].op is None

    def test_equality_string(self):
        pattern = parse_xpath("//item[@id='x7']/name")
        constraint = pattern.root.constraints[0]
        assert (constraint.op, constraint.value) == ("=", "x7")

    def test_comparison_number(self):
        pattern = parse_xpath("//person[@age>=30]")
        constraint = pattern.root.constraints[0]
        assert (constraint.op, constraint.value) == (">=", "30")

    def test_double_quoted_literal(self):
        pattern = parse_xpath('//a[@k="v"]')
        assert pattern.root.constraints[0].value == "v"

    def test_mixed_structural_and_attribute(self):
        pattern = parse_xpath("//a[@id][b]/c")
        assert len(pattern.root.constraints) == 1
        assert sorted(c.label for c in pattern.root.children) == ["b", "c"]


class TestErrors:
    @pytest.mark.parametrize(
        "expression",
        [
            "",
            "/",
            "//",
            "/a[",
            "/a]",
            "/a[]",
            "/a[b",
            "/a[@]",
            "/a[@k=]",
            "/a[@k='x]",
            "/a/b[.]",
            "/a/../b",
            "/a/b trailing",
            "/a[b]extra",
        ],
    )
    def test_syntax_errors(self, expression):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)


class TestParsePath:
    def test_accepts_plain_path(self):
        pattern = parse_path("//a/b//c")
        assert pattern.is_path()

    def test_rejects_branches(self):
        with pytest.raises(XPathSyntaxError):
            parse_path("//a[b]/c")

    def test_rejects_attribute_predicates(self):
        with pytest.raises(XPathSyntaxError):
            parse_path("//a[@id]/c")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "expression",
        [
            "/a/b/c",
            "//a//b",
            "/a[b]/c",
            "/a[b/d][.//e]/c",
            "//a[*[d]]/e",
            "//item[@id='1'][name]/description",
            "s[f//i][t]/p",
        ],
    )
    def test_to_xpath_reparses_identically(self, expression):
        pattern = parse_xpath(expression)
        assert parse_xpath(pattern.to_xpath()) == pattern


class TestParseCache:
    """parse_xpath memoizes on the expression string but must hand each
    caller a private pattern — mutating one parse can never leak into a
    later parse of the same expression."""

    def test_cached_parse_is_equal_but_independent(self):
        from repro.xpath.parser import parse_cache_clear, parse_cache_info

        parse_cache_clear()
        first = parse_xpath("s[f//i][t]/p")
        second = parse_xpath("s[f//i][t]/p")
        assert parse_cache_info().hits >= 1
        assert first == second
        assert first is not second
        shared = {id(node) for node in first.iter_nodes()} & {
            id(node) for node in second.iter_nodes()
        }
        assert not shared  # no structural aliasing at all

    def test_caller_mutation_does_not_poison_cache(self):
        baseline = parse_xpath("//a[b]/c")
        mutated = parse_xpath("//a[b]/c")
        mutated.ret.new_child("z", Axis.CHILD)
        fresh = parse_xpath("//a[b]/c")
        assert fresh == baseline
        assert fresh != mutated

    def test_syntax_errors_are_not_cached(self):
        for _ in range(2):  # identical failures on repeat calls
            with pytest.raises(XPathSyntaxError):
                parse_xpath("//a[")


class TestDepthLimit:
    """Deep expressions fail typed instead of exhausting the stack."""

    @staticmethod
    def _path(depth):
        return "/a" + "/b" * (depth - 1)

    @staticmethod
    def _nested(depth):
        return "/a" + "[b" * (depth - 1) + "]" * (depth - 1)

    @staticmethod
    def _depth(pattern):
        deepest = 0
        stack = [(pattern.root, 1)]
        while stack:
            node, depth = stack.pop()
            deepest = max(deepest, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return deepest

    def test_pattern_at_the_limit_parses_and_answers(self):
        from repro import MaterializedViewSystem, encode_tree
        from repro.xmltree import build_tree

        system = MaterializedViewSystem(
            encode_tree(build_tree(("a", [("b", [("b", ["c"])])])))
        )
        system.register_view("A", "//a")
        system.register_view("B", "//b")
        for expression in (
            self._path(MAX_PATTERN_DEPTH), self._nested(MAX_PATTERN_DEPTH)
        ):
            assert self._depth(parse_xpath(expression)) == MAX_PATTERN_DEPTH
            assert system.answer(expression).codes == []

    @pytest.mark.parametrize("depth", [MAX_PATTERN_DEPTH + 1, 500])
    def test_deeper_pattern_is_a_syntax_error(self, depth):
        for expression in (self._path(depth), self._nested(depth)):
            with pytest.raises(XPathSyntaxError, match="deeper than"):
                parse_xpath(expression)

    def test_predicate_depth_adds_to_host_depth(self):
        # A predicate path hangs below its host step.
        half = MAX_PATTERN_DEPTH // 2
        expression = "/a" + "/b" * (half - 1) + "[c" + "/d" * half + "]"
        with pytest.raises(XPathSyntaxError):
            parse_xpath(expression)
        parse_xpath("/a" + "/b" * (half - 1) + "[c" + "/d" * (half - 1) + "]")
