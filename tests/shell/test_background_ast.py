"""Background (`&`) round trips and AST utilities."""

import pytest

from repro.shell import parse
from repro.shell.ast import Background, Sequence, first_pos, structure, walk
from repro.shell.printer import command_label, render


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "a &",
            "a & b",
            "a | b &",
            "{ a; b; } &",
            "cmd > f & grep x f",
            "a & b & c",
        ],
    )
    def test_parse_render_parse(self, source):
        ast = parse(source)
        rendered = render(ast)
        assert structure(parse(rendered)) == structure(ast), rendered

    def test_background_renders_ampersand(self):
        assert render(parse("sleep 5 &")).rstrip().endswith("&")


class TestWalk:
    def test_walk_descends_into_background_child(self):
        ast = parse("cmd > f & grep x f")
        names = [
            node.name
            for node in walk(ast)
            if getattr(node, "name", None) is not None
        ]
        assert "cmd" in names and "grep" in names

    def test_background_node_present(self):
        ast = parse("a & b")
        kinds = [type(node).__name__ for node in walk(ast)]
        assert "Background" in kinds


class TestFirstPos:
    def test_first_pos_of_background(self):
        ast = parse("cmd > f &\ngrep x f\n")
        assert isinstance(ast, Sequence)
        bg = ast.commands[0]
        assert isinstance(bg, Background)
        pos = first_pos(bg)
        assert (pos.line, pos.col) == (1, 1)

    def test_first_pos_none_for_empty(self):
        assert first_pos(None) is None

    def test_first_pos_reads_no_position_inside_a_substitution(self):
        ast = parse("x=1\ncat /tmp/a $(basename $0)\n")
        pos = first_pos(ast.commands[1])
        assert (pos.line, pos.col) == (2, 1)


class TestCommandLabel:
    def test_label_collapses_whitespace(self):
        ast = parse("grep   x    f")
        assert command_label(ast) == "grep x f"

    def test_label_truncates(self):
        ast = parse("echo " + "x" * 100)
        label = command_label(ast, limit=20)
        assert len(label) <= 20 and label.endswith("…")
