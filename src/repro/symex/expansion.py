"""Symbolic word expansion.

Expansion turns a structured :class:`~repro.shell.ast.Word` into symbolic
string values, forking the state wherever shell semantics branch: the
``${v%pat}`` family (match/no-match cases), ``${v:-def}`` (set/empty
cases), and command substitution (one continuation per execution path of
the substituted command).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..diag import Diagnostic, Severity
from ..rlang import Regex
from ..rtypes import StreamType
from ..shell.ast import (
    ArithPart,
    CmdSubPart,
    GlobPart,
    LiteralPart,
    ParamPart,
    TildePart,
    Word,
)
from ..shell.glob import word_pattern_to_regex
from ..symstr import GlobAtom, SymString, strip_prefix, strip_suffix
from .builtins import ABS_PATH
from .state import SymState

if TYPE_CHECKING:
    from .engine import Engine

Expanded = Tuple[SymState, SymString]

#: Special parameters that are always "set".
_ALWAYS_SET = set("?#@*$!-0")


def expand_word(word: Word, state: SymState, engine: "Engine") -> List[Expanded]:
    """Expand one word; returns (state, value) per resulting path."""
    results: List[Expanded] = [(state, SymString.empty())]
    for part in word.parts:
        next_results: List[Expanded] = []
        for current_state, prefix in results:
            for part_state, part_value in _expand_part(part, current_state, engine, word):
                next_results.append((part_state, prefix + part_value))
        results = next_results
        if len(results) > engine.max_fork:
            results = results[: engine.max_fork]
    return results


def expand_words(
    words: List[Word], state: SymState, engine: "Engine"
) -> List[Tuple[SymState, List[SymString]]]:
    """Expand an argv's worth of words with POSIX field splitting.

    Unquoted expansion results with *concrete* contents split on IFS
    whitespace (``FLAGS="-r -f"; rm $FLAGS x`` passes three arguments);
    an unquoted expansion that is entirely empty contributes no argument
    at all.  Symbolic expansion results are not split (each contributes
    one argument) — a documented over-approximation.
    """
    results: List[Tuple[SymState, List[SymString]]] = [(state, [])]
    for word in words:
        next_results = []
        for current_state, argv in results:
            for word_state, fields in expand_word_fields(word, current_state, engine):
                next_results.append((word_state, argv + fields))
        results = next_results
        if len(results) > engine.max_fork:
            results = results[: engine.max_fork]
    return results


def expand_word_fields(
    word: Word, state: SymState, engine: "Engine"
) -> List[Tuple[SymState, List[SymString]]]:
    """Expand one word into zero or more fields."""
    # "$@" (standalone) produces one field per positional parameter
    if (
        len(word.parts) == 1
        and isinstance(word.parts[0], ParamPart)
        and word.parts[0].name == "@"
        and word.parts[0].op is None
    ):
        fields = list(state.params[1:])
        if state.argv_unknown:
            # unknown argv: the known prefix plus one stand-in field for
            # the unknown tail (an over-approximation of its join)
            vid = state.store.fresh(label='"$@" (unknown tail)')
            fields.append(SymString.var(vid))
        return [(state, fields)]
    literal = _literal_fields(word, engine)
    if literal is not None:
        return [(state, literal)]
    # per path: list of (value, splittable) chunks
    results: List[Tuple[SymState, List[Tuple[SymString, bool]]]] = [(state, [])]
    for part in word.parts:
        splittable = isinstance(
            part, (ParamPart, CmdSubPart, ArithPart)
        ) and not getattr(part, "quoted", True)
        next_results = []
        for current_state, chunks in results:
            for part_state, part_value in _expand_part(part, current_state, engine, word):
                next_results.append(
                    (part_state, chunks + [(part_value, splittable)])
                )
        results = next_results
        if len(results) > engine.max_fork:
            results = results[: engine.max_fork]

    final: List[Tuple[SymState, List[SymString]]] = []
    has_quoted_part = any(
        getattr(part, "quoted", False) or isinstance(part, LiteralPart)
        for part in word.parts
    )
    for final_state, chunks in results:
        fields = _split_fields(chunks)
        if not fields and (has_quoted_part or not word.parts):
            # quoted-empty words survive as one empty argument ("")
            fields = [SymString.empty()]
        final.append((final_state, fields))
    return final


def _literal_fields(word: Word, engine: "Engine") -> Optional[List[SymString]]:
    """The fields of a word made of literal parts only (or of no parts),
    None for any other word.  Literal fields do not depend on the state,
    so they are split once per run; each call gets a fresh list."""
    entry = engine._literal_fields.get(id(word))
    if entry is None or entry[0] is not word:
        fields = None
        if all(type(part) is LiteralPart for part in word.parts):
            chunks = [(SymString.lit(part.text), False) for part in word.parts]
            # quoted-empty words survive as one empty argument ("")
            fields = _split_fields(chunks) or [SymString.empty()]
        entry = engine._literal_fields[id(word)] = (word, fields)
    return None if entry[1] is None else list(entry[1])


def _split_fields(chunks: List[Tuple[SymString, bool]]) -> List[SymString]:
    """Assemble chunks into fields, splitting concrete splittable text
    on IFS whitespace."""
    fields: List[SymString] = []
    current = SymString.empty()
    current_started = False

    def flush():
        nonlocal current, current_started
        if current_started:
            fields.append(current)
        current = SymString.empty()
        current_started = False

    for value, splittable in chunks:
        concrete = value.concrete_value()
        if not splittable or concrete is None or not _has_ifs(concrete):
            if value.atoms or not splittable:
                # literal text (even empty-quoted) contributes to a field;
                # an empty unquoted expansion contributes nothing
                if value.atoms:
                    current = current + value
                    current_started = True
                elif not splittable:
                    current_started = current_started or True
            continue
        pieces = concrete.split()
        leading_ws = concrete[:1].isspace()
        trailing_ws = concrete[-1:].isspace()
        for idx, piece in enumerate(pieces):
            if idx == 0 and not leading_ws:
                current = current + SymString.lit(piece)
                current_started = True
                if len(pieces) > 1 or trailing_ws:
                    flush()
            else:
                flush()
                current = SymString.lit(piece)
                current_started = True
                if idx < len(pieces) - 1 or trailing_ws:
                    flush()
        if not pieces:  # all-whitespace expansion: field break only
            flush()
    flush()
    return fields


def _has_ifs(text: str) -> bool:
    return any(c in " \t\n" for c in text)


# ---------------------------------------------------------------------------
# per-part expansion
# ---------------------------------------------------------------------------


def _expand_part(
    part, state: SymState, engine: "Engine", word: Word
) -> List[Expanded]:
    if isinstance(part, LiteralPart):
        return [(state, SymString.lit(part.text))]
    if isinstance(part, GlobPart):
        return [(state, SymString([GlobAtom(part.char)]))]
    if isinstance(part, TildePart):
        return [(state, _expand_tilde(part, state, engine))]
    if isinstance(part, ParamPart):
        return _expand_param(part, state, engine, word)
    if isinstance(part, CmdSubPart):
        return expand_command_sub(part, state, engine)
    if isinstance(part, ArithPart):
        return [(state, _expand_arith(part, state, engine, word))]
    raise TypeError(f"unknown word part {part!r}")


def _expand_arith(
    part: ArithPart, state: SymState, engine: "Engine", word: Word
) -> SymString:
    from .arith import ArithError, evaluate

    def lookup(name: str):
        value = _lookup(name, state, engine, word)
        if value is None:
            return ""  # unset counts as 0 in arithmetic
        return value.concrete_value()  # None when symbolic

    try:
        value = evaluate(part.expr, lookup)
    except ArithError:
        value = None
    if value is not None:
        return SymString.lit(str(value))
    vid = state.store.fresh(Regex.constant("-?[0-9]+"), label=f"$(({part.expr}))")
    return SymString.var(vid)


def _lookup(
    name: str, state: SymState, engine: "Engine", word: Word
) -> Optional[SymString]:
    """A variable's value; names never assigned in the script are
    materialised as inherited environment variables — symbolic strings
    that may hold anything, including the empty string."""
    value = state.get_var(name)
    if value is not None:
        return value
    if not name or name.isdigit() or name in _ALWAYS_SET:
        return value
    if not (name[0].isalpha() or name[0] == "_"):
        return value
    if name in engine.script_assigned:
        return None  # assigned somewhere, unset on this path
    vid = state.store.fresh(label=f"${name} (env)")
    env_value = SymString.var(vid)
    state.set_var(name, env_value)
    state.warn(
        Diagnostic(
            code="env-variable",
            message=f"${name} is never assigned by the script; treating it "
            "as an inherited environment variable with unknown contents",
            severity=Severity.INFO,
            pos=word.pos,
        )
    )
    return env_value


def _expand_tilde(part: TildePart, state: SymState, engine: "Engine") -> SymString:
    if part.user:
        return SymString.lit(f"/home/{part.user}")
    home = state.get_var("HOME")
    if home is not None:
        return home
    vid = state.store.fresh(Regex.constant(ABS_PATH), label="$HOME")
    value = SymString.var(vid)
    state.set_var("HOME", value)
    return value


def _expand_param(
    part: ParamPart, state: SymState, engine: "Engine", word: Word
) -> List[Expanded]:
    value = _lookup(part.name, state, engine, word)

    if part.op is None:
        if value is None:
            if part.name not in _ALWAYS_SET and not part.name.isdigit():
                if "u" in state.options:
                    state.warn(
                        Diagnostic(
                            code="nounset-abort",
                            message=f"set -u: expanding unset ${part.name} "
                            "aborts the script",
                            severity=Severity.ERROR,
                            pos=word.pos,
                        )
                    )
                    state.halted = True
                    state.status = 2
                    return [(state, SymString.empty())]
                state.warn(
                    Diagnostic(
                        code="undefined-variable",
                        message=f"${part.name} is used but may be unset; it "
                        "expands to the empty string",
                        severity=Severity.WARNING,
                        pos=word.pos,
                    )
                )
            return [(state, SymString.empty())]
        return [(state, value)]

    if part.op == "len":
        if value is not None and value.is_concrete():
            return [(state, SymString.lit(str(len(value.concrete_value()))))]
        vid = state.store.fresh(Regex.constant("[0-9]+"), label=f"${{#{part.name}}}")
        return [(state, SymString.var(vid))]

    if part.op in ("%", "%%", "#", "##"):
        return _expand_strip(part, value, state, engine, word)

    return _expand_default_family(part, value, state, engine, word)


def _expand_strip(
    part: ParamPart,
    value: Optional[SymString],
    state: SymState,
    engine: "Engine",
    word: Word,
) -> List[Expanded]:
    if value is None:
        return [(state, SymString.empty())]
    pattern = _pattern_language(part.arg, state, engine)
    longest = part.op in ("%%", "##")
    op = strip_suffix if part.op in ("%", "%%") else strip_prefix
    cases = op(value, pattern, longest, state.store)
    results: List[Expanded] = []
    for case in cases:
        forked = state.fork(note=f"${{{part.name}{part.op}...}}: {case.note}") if len(cases) > 1 else state
        feasible = True
        for vid, refined in case.refinements:
            if forked.store.refine(vid, refined).is_empty():
                feasible = False
        if feasible:
            results.append((forked, case.result))
    return results or [(state, value)]


def _expand_default_family(
    part: ParamPart,
    value: Optional[SymString],
    state: SymState,
    engine: "Engine",
    word: Word,
) -> List[Expanded]:
    op = part.op
    checks_empty = op.startswith(":")
    base_op = op.lstrip(":")

    def expand_arg(target_state: SymState) -> List[Expanded]:
        if part.arg is None:
            return [(target_state, SymString.empty())]
        return expand_word(part.arg, target_state, engine)

    # Is the parameter "unset or null" (for ':' variants) / "unset"?
    if value is None:
        triggered = True
    elif checks_empty:
        could_empty = value.could_be_empty(state.store)
        must_empty = value.must_equal("", state.store)
        if must_empty:
            triggered = True
        elif not could_empty:
            triggered = False
        else:
            # genuinely both: fork
            return _fork_on_empty(part, value, state, engine, word)
    else:
        triggered = False

    if base_op == "+":
        if triggered:
            return [(state, SymString.empty())]
        return expand_arg(state)

    if not triggered:
        return [(state, value)]

    if base_op == "-":
        return expand_arg(state)
    if base_op == "=":
        results = []
        for arg_state, arg_value in expand_arg(state):
            arg_state.set_var(part.name, arg_value)
            results.append((arg_state, arg_value))
        return results
    if base_op == "?":
        state.warn(
            Diagnostic(
                code="parameter-error",
                message=f"${{{part.name}{op}...}} aborts: the parameter is "
                "unset" + ("/empty" if checks_empty else ""),
                severity=Severity.INFO,
                pos=word.pos,
            )
        )
        state.halted = True
        state.status = 1
        return [(state, SymString.empty())]
    raise AssertionError(f"unhandled operator {op}")


def _fork_on_empty(
    part: ParamPart,
    value: SymString,
    state: SymState,
    engine: "Engine",
    word: Word,
) -> List[Expanded]:
    """${X:-d} when X may or may not be empty: two worlds."""
    results: List[Expanded] = []
    vid = value.single_var()

    empty_state = state.fork(note=f"${part.name} is empty")
    if vid is not None:
        empty_state.store.refine(vid, Regex.literal(""))
    nonempty_state = state.fork(note=f"${part.name} is non-empty")
    if vid is not None:
        nonempty_state.store.exclude(vid, Regex.literal(""))

    base_op = part.op.lstrip(":")
    if base_op == "+":
        results.append((empty_state, SymString.empty()))
        if part.arg is not None:
            results.extend(expand_word(part.arg, nonempty_state, engine))
        else:
            results.append((nonempty_state, SymString.empty()))
        return results

    # "-", "=", "?" families: empty world uses the default/error path
    if base_op in ("-", "="):
        if part.arg is not None:
            for arg_state, arg_value in expand_word(part.arg, empty_state, engine):
                if base_op == "=":
                    arg_state.set_var(part.name, arg_value)
                results.append((arg_state, arg_value))
        else:
            results.append((empty_state, SymString.empty()))
    elif base_op == "?":
        empty_state.halted = True
        empty_state.status = 1
        results.append((empty_state, SymString.empty()))
    results.append((nonempty_state, value))
    return results


def _pattern_language(arg: Optional[Word], state: SymState, engine: "Engine") -> Regex:
    """The glob language of a ``${v%pat}`` pattern operand."""
    if arg is None:
        return Regex.literal("")
    pattern = word_pattern_to_regex(arg)
    if pattern is not None:
        return pattern
    # dynamic pattern: over-approximate with Σ*
    return Regex.any_string()


# ---------------------------------------------------------------------------
# command substitution
# ---------------------------------------------------------------------------


def expand_command_sub(
    part: CmdSubPart, state: SymState, engine: "Engine"
) -> List[Expanded]:
    """$(...) — run the inner command on a forked state.

    Environment and cwd changes inside the substitution are discarded
    (subshell semantics); file-system facts and constraint refinements
    persist (they are facts about the world, not shell-local state).
    """
    child = state.fork(note=f"enter $({part.source.strip()})")
    child.stdout = []
    child.halted = False
    child.capturing = True
    child.loop_control = None
    saved_depth = engine.loop_depth
    engine.loop_depth = 0
    try:
        sub_states = engine.eval(part.command, child)
    finally:
        engine.loop_depth = saved_depth
    scope = state.scope()
    results: List[Expanded] = []
    for sub_state in sub_states:
        value, exact = sub_state.stdout_value()
        if exact:
            value = _strip_trailing_newlines(value)
        else:
            value = _stream_chunks_value(sub_state, part, engine)
        continuation = sub_state  # keep fs/store/diagnostics/notes
        continuation.restore_scope(scope)
        continuation.stdout = list(state.stdout)
        continuation.halted = state.halted
        continuation.capturing = state.capturing
        continuation.loop_control = state.loop_control
        # $? becomes the substitution's exit status; the engine's caller
        # decides whether to keep it (assignments do).
        results.append((continuation, value))
    return results


def _strip_trailing_newlines(value: SymString) -> SymString:
    from ..symstr import LitAtom

    atoms = list(value.atoms)
    while atoms and isinstance(atoms[-1], LitAtom):
        stripped = atoms[-1].text.rstrip("\n")
        if stripped:
            atoms[-1] = LitAtom(stripped)
            break
        atoms.pop()
    return SymString(atoms)


def _stream_chunks_value(
    sub_state: SymState, part: CmdSubPart, engine: "Engine"
) -> SymString:
    """Fold stream-typed stdout chunks into a constrained fresh variable."""
    language: Optional[Regex] = None
    for chunk in sub_state.stdout:
        if chunk.text is not None:
            piece = chunk.text.to_regex(sub_state.store)
        else:
            piece = _stream_string_language(chunk.stream)
        language = piece if language is None else language + piece
    if language is None:
        return SymString.empty()
    # strip of trailing newlines is folded into _stream_string_language
    vid = sub_state.store.fresh(language, label=f"$({part.source.strip()[:24]})")
    return SymString.var(vid)


def _stream_string_language(stream: StreamType) -> Regex:
    """All strings a stream of `line` lines can denote once captured by
    command substitution (trailing newline stripped): empty, or lines
    joined by newlines."""
    if stream.is_dead():
        return Regex.literal("")
    line = stream.line
    newline = Regex.literal("\n")
    return Regex.literal("") | (line + (newline + line).star())
