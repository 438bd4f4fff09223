"""A labelled corpus of buggy and safe shell scripts (E12).

Families are modelled on the bug classes the paper discusses: the Steam
deletion bug and its semantic variants, inverted guards, dead stream
filters, always-fail compositions, plus matched *safe* counterparts that
a context-insensitive linter cannot distinguish from the buggy ones.

Ground-truth labels:
- ``buggy``  — some execution performs a catastrophic/impossible action;
- ``safe``   — guaranteed safe across all executions and environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class LabelledScript:
    name: str
    source: str
    buggy: bool
    family: str
    n_args: int = 0
    note: str = ""


def _steam(body: str) -> str:
    return 'STEAMROOT="$(cd "${0%/*}" && echo $PWD)"\n' + body


CORPUS: List[LabelledScript] = [
    # -- the Steam family (buggy) -------------------------------------------
    LabelledScript(
        "steam-original",
        _steam('rm -fr "$STEAMROOT"/*\n'),
        True,
        "steam",
        note="Fig. 1",
    ),
    LabelledScript(
        "steam-unquoted",
        _steam("rm -fr $STEAMROOT/*\n"),
        True,
        "steam",
    ),
    LabelledScript(
        "steam-rf-merged",
        _steam('rm -rf "$STEAMROOT"/*\n'),
        True,
        "steam",
    ),
    LabelledScript(
        "steam-split-var",
        _steam('c="/*"\nrm -fr $STEAMROOT$c\n'),
        True,
        "steam",
        note="§3 semantic variant",
    ),
    LabelledScript(
        "steam-alias-var",
        _steam('a=$STEAMROOT\nrm -fr "$a"/*\n'),
        True,
        "steam",
    ),
    LabelledScript(
        "steam-whole-dir",
        _steam('rm -fr "$STEAMROOT"\n'),
        True,
        "steam",
        note="deletes the directory itself; may be /",
    ),
    LabelledScript(
        "steam-inverted-guard",
        _steam(
            'if [ "$(realpath "$STEAMROOT/")" = "/" ]; then\n'
            '  rm -fr "$STEAMROOT"/*\nelse\n  exit 1\nfi\n'
        ),
        True,
        "steam",
        note="Fig. 3: one character from safe",
    ),
    LabelledScript(
        "steam-colon-q-only",
        _steam('rm -fr "${STEAMROOT:?}"/*\n'),
        True,
        "steam",
        note="ShellCheck's suggested fix guards emptiness but not /",
    ),
    LabelledScript(
        "steam-guard-wrong-var",
        _steam(
            'OTHER=/opt/x\n'
            'if [ "$(realpath "$OTHER/")" != "/" ]; then\n'
            '  rm -fr "$STEAMROOT"/*\nfi\n'
        ),
        True,
        "steam",
        note="guards the wrong variable",
    ),
    LabelledScript(
        "literal-root",
        "rm -rf /\n",
        True,
        "steam",
    ),
    LabelledScript(
        "literal-root-star",
        "rm -rf /*\n",
        True,
        "steam",
    ),
    LabelledScript(
        "arg-deletion-unguarded",
        'rm -rf "$1"\n',
        True,
        "steam",
        n_args=1,
        note="an unvalidated argument may be /",
    ),
    # -- the Steam family (safe counterparts) --------------------------------
    LabelledScript(
        "steam-guarded",
        _steam(
            'if [ "$(realpath "$STEAMROOT/")" != "/" ]; then\n'
            '  rm -fr "$STEAMROOT"/*\nelse\n  echo "Bad path: $0"; exit 1\nfi\n'
        ),
        False,
        "steam",
        note="Fig. 2",
    ),
    LabelledScript(
        "deep-literal-delete",
        "rm -rf /opt/steam/cache\n",
        False,
        "steam",
    ),
    LabelledScript(
        "deep-literal-star",
        "rm -rf /var/tmp/build/*\n",
        False,
        "steam",
    ),
    LabelledScript(
        "annotated-target",
        '# @var TARGET : /srv/[a-z]+/releases/[a-z0-9]+\nrm -rf "$TARGET"\n',
        False,
        "steam",
        note="§4 ergonomic annotation constrains the variable",
    ),
    LabelledScript(
        "tmp-workdir",
        "mkdir -p /tmp/job/scratch\nrm -rf /tmp/job/scratch\n",
        False,
        "steam",
    ),
    LabelledScript(
        "guarded-arg-delete",
        'if [ "$(realpath "$1/")" != "/" ]; then\n  rm -rf "$1"/work\nfi\n',
        False,
        "steam",
        n_args=1,
    ),
    # -- stream typing (buggy) -----------------------------------------------
    LabelledScript(
        "fig5-grep-case",
        'STEAMROOT="$(cd "${0%/*}" && echo $PWD)"/\n'
        "case $(lsb_release -a | grep '^desc' | cut -f 2) in\n"
        '  Debian) SUFFIX=".config/steam" ;;\n'
        '  *Linux) SUFFIX=".steam" ;;\n'
        "esac\n"
        "rm -fr $STEAMROOT$SUFFIX\n",
        True,
        "stream",
        note="Fig. 5",
    ),
    LabelledScript(
        "dead-grep-filter",
        "lsb_release -a | grep '^desc' | cut -f 2\n",
        True,
        "stream",
    ),
    LabelledScript(
        "dead-grep-wc-hides",
        "R=$(lsb_release -a | grep '^release' | cut -f 2)\nrm -fr /opt/apps/$R\n",
        True,
        "stream",
        note="dead filter leaves the deletion path truncated",
    ),
    LabelledScript(
        "hex-simple-type-break",
        "# @type mangle :: .* -> 0x.*\n"
        "grep -oE '[0-9a-f]+' data | mangle | sort -g\n",
        True,
        "stream",
        note="annotated stage's output is too wide for sort -g",
    ),
    LabelledScript(
        "dead-case-subject",
        'MODE=$(uname | grep "^atari")\n'
        "case $MODE in Linux) echo l ;; Darwin) echo d ;; esac\n",
        True,
        "stream",
        note="grep filter kills the subject; both arms dead",
    ),
    # -- stream typing (safe counterparts) -------------------------------------
    LabelledScript(
        "fig5-corrected",
        'STEAMROOT="$(cd "${0%/*}" && echo $PWD)"/\n'
        "case $(lsb_release -a | grep '^Desc' | cut -f 2) in\n"
        '  Debian*) SUFFIX=".config/steam" ;;\n'
        '  *) SUFFIX=".steam" ;;\n'
        "esac\n"
        'if [ "$(realpath "$STEAMROOT/")" != "/" ]; then\n'
        "  rm -fr $STEAMROOT$SUFFIX\nfi\n",
        False,
        "stream",
    ),
    LabelledScript(
        "live-grep-filter",
        "lsb_release -a | grep '^Desc' | cut -f 2\n",
        False,
        "stream",
    ),
    LabelledScript(
        "hex-pipeline-poly",
        "grep -oE '[0-9a-f]+' data | sed 's/^/0x/' | sort -g\n",
        False,
        "stream",
        note="§4: checkable only with polymorphic types",
    ),
    LabelledScript(
        "filter-then-count",
        "grep '^ERROR' log | wc -l\n",
        False,
        "stream",
    ),
    LabelledScript(
        "live-case",
        "case $(uname) in Linux) echo l ;; Darwin) echo d ;; *) echo o ;; esac\n",
        False,
        "stream",
    ),
    # -- composition / fs contradictions (buggy) --------------------------------
    LabelledScript(
        "rm-then-cat",
        'rm -fr "$1"\ncat "$1/config"\n',
        True,
        "composition",
        n_args=1,
        note="§4's always-fails snippet",
    ),
    LabelledScript(
        "rm-then-redirect-read",
        'rm -f /etc/app.conf\nsort </etc/app.conf\n',
        True,
        "composition",
    ),
    LabelledScript(
        "double-mkdir",
        "mkdir /srv/app\nmkdir /srv/app\n",
        True,
        "composition",
    ),
    LabelledScript(
        "mkdir-under-removed",
        'rm -rf "$1"\nmkdir "$1/sub"\n',
        True,
        "composition",
        n_args=1,
    ),
    LabelledScript(
        "file-as-dir",
        "touch /tmp/target\ncat /tmp/target/config\n",
        True,
        "composition",
    ),
    # -- composition (safe counterparts) ------------------------------------------
    LabelledScript(
        "cat-then-rm",
        '# @var APPDIR : /opt/[a-z]+\ncat "$APPDIR/config"\nrm -f "$APPDIR/config"\n',
        False,
        "composition",
        note="read before delete is fine; the variable is constrained",
    ),
    LabelledScript(
        "rm-recreate-use",
        '# @var WORKDIR : /var/tmp/[a-z]+\n'
        'rm -fr "$WORKDIR"\nmkdir -p "$WORKDIR"\n'
        'touch "$WORKDIR/config"\ncat "$WORKDIR/config"\n',
        False,
        "composition",
    ),
    LabelledScript(
        "mkdir-p-idempotent",
        "mkdir -p /srv/app\nmkdir -p /srv/app\n",
        False,
        "composition",
    ),
    LabelledScript(
        "guarded-recreate",
        'if [ -e /srv/app ]; then rm -rf /srv/app/data; fi\nmkdir -p /srv/app/data\n',
        False,
        "composition",
    ),
    LabelledScript(
        "write-then-read",
        "echo hello >/tmp/msg\ncat /tmp/msg\n",
        False,
        "composition",
    ),
]


CORPUS += [
    # -- wrappers and argument forwarding ------------------------------------
    LabelledScript(
        "wrapper-forwarded-deletion",
        'clean() { rm -rf "$1"; }\nclean "$@"\n',
        True,
        "wrapper",
        n_args=1,
        note="unvalidated argument forwarded through a function",
    ),
    LabelledScript(
        "wrapper-guarded",
        'clean() {\n'
        '  if [ "$(realpath "$1/")" != "/" ]; then rm -rf "$1"/work; fi\n'
        '}\nclean "$@"\n',
        False,
        "wrapper",
        n_args=1,
    ),
    LabelledScript(
        "split-flags-deletion",
        'OPTS="-r -f"\nrm $OPTS "$1"\n',
        True,
        "wrapper",
        n_args=1,
        note="flags arrive via field splitting; still a raw-arg deletion",
    ),
    LabelledScript(
        "wrapper-constant-target",
        'clean() { rm -rf "/var/cache/app/$1"; }\nclean "$@"\n',
        False,
        "wrapper",
        n_args=1,
        note="argument is anchored under a deep constant prefix",
    ),
    # -- compound guards ---------------------------------------------------------
    LabelledScript(
        "compound-guard-good",
        'if [ -n "$1" -a "$1" != "/" ]; then rm -rf "$1"/stage; fi\n',
        True,
        "guards",
        n_args=1,
        note='excludes "" and "/" but not "//" or "/.": still reaches root',
    ),
    LabelledScript(
        "compound-guard-realpath",
        'if [ -n "$1" ]; then\n'
        '  if [ "$(realpath "$1/")" != "/" ]; then rm -rf "$1"/stage; fi\n'
        "fi\n",
        False,
        "guards",
        n_args=1,
    ),
    LabelledScript(
        "guard-on-wrong-branch",
        'if [ "$(realpath "$1/")" != "/" ]; then\n'
        "  echo safe-to-go\nfi\n"
        'rm -rf "$1"/stage\n',
        True,
        "guards",
        n_args=1,
        note="the guard does not dominate the deletion",
    ),
    # -- set -e interactions ------------------------------------------------------
    LabelledScript(
        "errexit-protected",
        'set -e\ncd "$1"\nrm -rf ./build\n',
        False,
        "errexit",
        n_args=1,
        note="set -e makes the failed-cd path abort before the rm",
    ),
    LabelledScript(
        "no-errexit-cd-deletion",
        'cd "$1"\nrm -rf ./build\n',
        False,
        "errexit",
        n_args=1,
        note="even without set -e, ./build is cwd-relative (never /)",
    ),
    LabelledScript(
        "errexit-absolute-still-bad",
        'set -e\ntrue\nrm -rf "$1"\n',
        True,
        "errexit",
        n_args=1,
    ),
    # -- stream extras ---------------------------------------------------------------
    LabelledScript(
        "tr-case-dead-grep",
        "cat names | tr a-z A-Z | grep '^[a-z]'\n",
        True,
        "stream",
        note="grepping lowercase after upcasing: dead filter",
    ),
    LabelledScript(
        "tr-case-live-grep",
        "cat names | tr a-z A-Z | grep '^[A-Z]'\n",
        False,
        "stream",
    ),
    LabelledScript(
        "uname-dead-arm",
        "case $(uname | grep '^zzz') in Linux) echo l ;; *) : ;; esac\n",
        True,
        "stream",
        note="filtered subject kills the Linux arm",
    ),
]


def corpus() -> List[LabelledScript]:
    return list(CORPUS)


def safe_scripts() -> List[LabelledScript]:
    return [s for s in CORPUS if not s.buggy]
