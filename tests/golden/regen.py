"""Golden ``analyze(...).render()`` texts for the scripts the benchmark
runs, and golden ``build_plan(...).render()`` texts for some of them.

The goldens pin the analyzer's output byte for byte, so a change meant
to be a pure speed-up (a new kernel, a trimmed automaton) shows any
drift in a report as a failing test.  The renders (``renders/``) cover:

- the scripts in ``examples/scripts/``;
- every labelled ``corpus()`` script, analysed with its ``n_args``;
- the safe generator scripts of :data:`GENERATOR_SEEDS`, analysed with
  ``CampaignConfig().analyze_kwargs()``.

The plans (``plans/``) cover the examples and the corpus, each planned
under a ``BatchConfig`` of its analyze keywords.

The parse digests (``parses.txt``) pin the shell front end: one line per
:func:`parse_inputs` input, holding a digest of the AST ``parse(source)``
returns (:func:`dump`, its ``repr`` with every field of every node) or,
when the parse fails, of the error's type, message and position.
The inputs are the examples, the corpus, the safe and unsafe generator
scripts of seeds 0-39, every ``tests/**/*.sh``, and every
:data:`PREFIX_STEP`-th character prefix of each, so the error paths of
unterminated constructs are pinned as well; and the
:data:`SUBSTITUTIONS` table.

Regenerate only when a change is meant to alter the reports::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Iterator, Tuple

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "scripts"
RENDERS = Path(__file__).resolve().parent / "renders"
PLANS = Path(__file__).resolve().parent / "plans"
PARSES = Path(__file__).resolve().parent / "parses.txt"

#: the parse golden also covers each input's prefixes whose length is a
#: multiple of this
PREFIX_STEP = 7

#: the generator seeds ``perfbench/run.py`` analyses (its
#: ``GENERATOR_SEEDS``; a test keeps the two equal)
GENERATOR_SEEDS = (0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 14, 15, 16, 18, 19)


#: command substitutions whose end a second grammar (a parenthesis
#: count) got wrong, each with the ``source`` of the first ``CmdSubPart``
#: ``parse`` makes of it, or None where ``parse`` and ``dash -n`` both
#: reject it (``tests/shell/test_dash_agreement.py`` asks dash)
SUBSTITUTIONS = (
    # the constructs mended before a body ended where its parse ends
    ("x=$(# c )\necho hi)\n", "# c )\necho hi"),
    ("echo $(echo a#b)\n", "echo a#b"),
    ("echo $(echo a\\\n#b)\n", "echo a\\\n#b"),
    ("echo $(case x in x) echo y;; esac)\n", "case x in x) echo y;; esac"),
    ("echo $(echo `case x in x) echo y;; esac`)\n", "echo `case x in x) echo y;; esac`"),
    ("echo $$(echo x y)\n", None),
    # a heredoc, and a substitution in a parameter's operand
    ("echo $(cat <<EOF\n)\nEOF\n)\n", "cat <<EOF\n)\nEOF\n"),
    ('echo "${x:-$(echo })}"\n', "echo }"),
    ("echo ${x:-$(echo })}\n", "echo }"),
    # nested case, heredoc and comment
    ("echo $(case x in (x) echo y;; esac)\n", "case x in (x) echo y;; esac"),
    ("echo $(case a in a) echo $(case b in b) echo c;; esac);; esac)\n",
     "case a in a) echo $(case b in b) echo c;; esac);; esac"),
    ("echo $(case x in x) cat <<E\n)\nE\n;; esac)\n", "case x in x) cat <<E\n)\nE\n;; esac"),
    ("echo $(case x in # a ) b\nx) echo y;; esac)\n", "case x in # a ) b\nx) echo y;; esac"),
    ("echo $(# ) c\ncat <<'E'\n) # d\nE\n)\n", "# ) c\ncat <<'E'\n) # d\nE\n"),
    ("echo $(cat <<E; echo ')'\n(\nE\n)\n", "cat <<E; echo ')'\n(\nE\n"),
    ("x=$(case y in esac)\n", "case y in esac"),
    ("echo $( (echo a) )\n", " (echo a) "),
    ("echo $(echo ')' \")\")\n", "echo ')' \")\""),
    # unterminated, or a syntax error in the body
    ("echo $(case x in x) echo y;; esac\n", None),
    ("echo $(cat <<EOF\n)\n", None),
    ("echo $(if)\n", None),
    ("echo $(echo a; fi)\n", None),
)


def cases() -> Iterator[Tuple[str, str, dict]]:
    """``(label, source, analyze kwargs)`` for every golden script; the
    label is the golden file's path below ``renders/``, without ``.txt``."""
    from repro.analysis.corpus import corpus
    from repro.analysis.difftest.campaign import CampaignConfig
    from repro.analysis.difftest.gen import generate

    for path in sorted(EXAMPLES.glob("*.sh")):
        yield f"examples/{path.stem}", path.read_text(encoding="utf-8"), {}
    for script in corpus():
        yield f"corpus/{script.name}", script.source, {"n_args": script.n_args}
    kwargs = CampaignConfig().analyze_kwargs()
    for seed in GENERATOR_SEEDS:
        yield f"gen/seed{seed:02d}", generate(seed, safe=True), kwargs


def plan_cases() -> Iterator[Tuple[str, str, dict]]:
    """The :func:`cases` whose plan is pinned too: all but the seeds."""
    return (case for case in cases() if not case[0].startswith("gen/"))


def render(source: str, kwargs: dict) -> str:
    from repro.analysis import analyze

    return analyze(source, **kwargs).render()


def render_plan(source: str, kwargs: dict) -> str:
    from repro.analysis.optimize import build_plan
    from repro.analysis.pipeline import BatchConfig

    return build_plan(source, BatchConfig(**kwargs)).render()


def parse_inputs() -> Iterator[Tuple[str, str]]:
    """``(label, source)`` for every input of the parse golden; a
    prefix of ``n`` characters is labelled ``<script>@<n>``."""
    from repro.analysis.corpus import corpus
    from repro.analysis.difftest.gen import generate

    scripts = [
        (f"examples/{path.stem}", path.read_text(encoding="utf-8"))
        for path in sorted(EXAMPLES.glob("*.sh"))
    ]
    scripts += [(f"corpus/{script.name}", script.source) for script in corpus()]
    for mode in ("safe", "unsafe"):
        scripts += [
            (f"gen/{mode}{seed:02d}", generate(seed, safe=mode == "safe")) for seed in range(40)
        ]
    scripts += [
        (path.relative_to(ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "tests").rglob("*.sh"))
    ]
    for label, source in scripts:
        yield label, source
        for end in range(PREFIX_STEP, len(source), PREFIX_STEP):
            yield f"{label}@{end}", source[:end]
    for index, (source, _) in enumerate(SUBSTITUTIONS):
        yield f"substitutions/{index:02d}", source


def dump(value) -> str:
    """``repr`` of an AST with every field of every record shown (a
    ``Word``'s own ``repr`` names only its raw text, not its parts or
    position)."""
    from repro.records import Record

    if isinstance(value, Record):
        fields = ", ".join(f"{name}={dump(getattr(value, name))}" for name in value._fields)
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(dump, value)) + "]"
    return repr(value)


def parse_digest(source: str) -> str:
    """A digest of what :func:`repro.shell.parse` makes of ``source``:
    the AST's :func:`dump`, or the error's type, message and position."""
    from repro.shell import parse

    try:
        text = dump(parse(source))
    except Exception as exc:  # every failure is pinned, whatever its type
        text = f"{type(exc).__name__}: {exc} @ {getattr(exc, 'pos', None)!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def parse_lines() -> Iterator[str]:
    """The lines of ``parses.txt``: ``<label> <digest>``."""
    return (f"{label} {parse_digest(source)}" for label, source in parse_inputs())


def golden_path(label: str, root: Path = RENDERS) -> Path:
    return root / f"{label}.txt"


def main() -> int:
    for root, each, draw in ((RENDERS, cases, render), (PLANS, plan_cases, render_plan)):
        written = 0
        for label, source, kwargs in each():
            path = golden_path(label, root)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(draw(source, kwargs), encoding="utf-8")
            written += 1
        print(f"wrote {written} goldens under {root}", file=sys.stderr)
    lines = list(parse_lines())
    PARSES.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"wrote {len(lines)} parse digests to {PARSES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
