"""The optimize gate compares hazards by the commands they cite.

A race message cites line:column positions, and the rewrite moves
commands to other lines: keyed by raw message, a race the script
already had read as new and rejected every group."""

from repro.analysis.optimize import build_plan
from repro.analysis.optimize.advisor import _by_command, _synthesize
from repro.shell.parser import parse

#: the ``./gen``/``grep E`` race is there before any rewrite; the
#: ``&``/``wait`` rewrite of {1,2} moves it two lines down
SOURCE = (
    "mkdir -p /o\n"
    "grep A /a >/o/x\n"
    "grep B /b >/o/y\n"
    "./gen >/r.txt &\n"
    "grep E /r.txt\n"
)


def test_a_moved_pre_existing_race_does_not_reject_the_group():
    plan = build_plan(SOURCE)
    assert [group.commands for group in plan.groups] == [[1, 2]]
    assert plan.rejected == []
    assert plan.rewritten_script.splitlines() == [
        "mkdir -p /o",
        "grep A /a >/o/x &",
        "grep B /b >/o/y &",
        "wait",
        "./gen >/r.txt &",
        "grep E /r.txt",
    ]


def test_synthesize_records_each_lines_command():
    nodes = parse("mkdir -p /o\nif true; then\n  cat /a\nfi\ngrep B /b\n").commands
    head = ["# @var D : /srv/[a-z]+"]
    text, owners = _synthesize(head, nodes, [[0], [1, 2]], {1: [1, 2]})
    assert text.splitlines()[0] == head[0]
    assert len(text.splitlines()) == len(owners)
    assert owners[:2] == [None, 0] and owners[-1] is None
    assert set(owners[2:-1]) == {1, 2}


def test_keys_cite_commands_not_lines():
    message = "`grep E /r.txt` (5:1) reads `/r.txt` while `./gen >/r.txt` (4:1) writes it"
    moved = message.replace("(5:1)", "(6:1)").replace("(4:1)", "(5:1)")
    keys = _by_command({("race-read-write", message): 1}, lambda line, _: {4: 3, 5: 4}[line])
    assert keys == _by_command({("race-read-write", moved): 1}, lambda line, _: line - 2)
    assert keys == {
        ("race-read-write",
         "`grep E /r.txt` (command 4) reads `/r.txt` while `./gen >/r.txt` (command 3) writes it"): 1
    }
