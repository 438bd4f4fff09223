"""Symbolic models of shell built-ins (paper §3: "models the behavior of
key built-in commands, such as cd and [, analogously to primitive
functions in other programming languages")."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..diag import Diagnostic, Severity
from ..fs import FsContradiction, NodeKind
from ..rlang import Regex
from ..symstr import SymString
from .state import SymState

if TYPE_CHECKING:
    from .engine import Engine

#: Normalised absolute paths, as printed by realpath / $PWD.
ABS_PATH = r"/([^/\n]+(/[^/\n]+)*)?"

#: Over-approximate preimage of "/" under path normalisation: strings of
#: slashes and dot-runs ("", "/", "//", "/.", "/..", ...).  Subtracting it
#: is sound for proving guards like Fig. 2's; intersecting with it is the
#: Fig. 3 then-branch refinement.
ROOTY = r"[/.]*"

# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def is_builtin(name: str) -> bool:
    return name in _BUILTINS


def run_builtin(
    name: str, argv: List[SymString], state: SymState, engine: "Engine"
) -> List[SymState]:
    return _BUILTINS[name](argv, state, engine)


# ---------------------------------------------------------------------------
# cd
# ---------------------------------------------------------------------------


def builtin_cd(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    if len(argv) > 1:
        target = argv[1]
    else:
        target = state.get_var("HOME") or SymString.lit("/")

    results: List[SymState] = []
    target_lang = target.to_regex(state.store)
    may_succeed = not (target_lang.matches("") and target_lang == Regex.literal(""))

    # success world: the target names an existing directory
    if may_succeed:
        success = state.fork(note=f"cd {target.describe(state.store)}: success")
        vid = target.single_var()
        if vid is not None:
            # cd "" always fails; on success the argument was non-empty
            if success.store.exclude(vid, Regex.literal("")).is_empty():
                success = None
        if success is not None:
            feasible = True
            path = engine.sympath(target)
            if path is not None:
                node = success.fs.resolve(path, cwd=success.cwd_node)
                try:
                    success.fs.assume_exists(node, NodeKind.DIR)
                except FsContradiction:
                    feasible = False
                else:
                    success.cwd_node = node
            else:
                success.cwd_node = None
            if feasible:
                success.cwd_str = _new_pwd(target, success)
                success.status = 0
                results.append(success)

    # cd may always fail: the failure world takes the incoming state
    note = f"cd {target.describe(state.store)}: failure"
    return results + [state.fork(note, last=True).with_status(1)]


def _new_pwd(target: SymString, state: SymState) -> SymString:
    concrete = target.concrete_value()
    if concrete is not None and concrete.startswith("/"):
        from ..fs import normalise_concrete

        return SymString.lit(normalise_concrete(concrete))
    lang = target.to_regex(state.store)
    if not lang.matches_empty() and lang <= Regex.constant(ABS_PATH):
        return target
    vid = state.store.fresh(Regex.constant(ABS_PATH), label="$PWD")
    return SymString.var(vid)


# ---------------------------------------------------------------------------
# test / [
# ---------------------------------------------------------------------------


def builtin_test(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    args = argv[1:]
    # strip the closing "]" of the bracket form
    if argv and argv[0].concrete_value() == "[":
        if not args or args[-1].concrete_value() != "]":
            state.warn(
                Diagnostic(
                    code="test-syntax",
                    message="'[' invocation lacks a closing ']'",
                    severity=Severity.WARNING,
                )
            )
        else:
            args = args[:-1]
    return _eval_test(args, state, engine, negate=False)


def _eval_test(
    args: List[SymString], state: SymState, engine: "Engine", negate: bool
) -> List[SymState]:
    def outcome(truth: Optional[bool]) -> List[SymState]:
        if truth is None:
            return _unknown(state, negate, "test: true", "test: false")
        value = truth != negate
        return [state.with_status(0 if value else 1)]

    if not args:
        return outcome(False)

    # compound expressions: -o (or, lowest precedence) then -a (and)
    for connective in ("-o", "-a"):
        for idx in range(1, len(args) - 1):
            if args[idx].concrete_value() == connective:
                return _eval_connective(
                    connective, args[:idx], args[idx + 1:], state, engine, negate
                )

    first = args[0].concrete_value()
    if first == "!" and len(args) > 1:
        return _eval_test(args[1:], state, engine, negate=not negate)

    if len(args) == 1:
        return _string_nonempty_fork(args[0], state, negate)

    if len(args) == 2 and first is not None:
        return _eval_unary(first, args[1], state, engine, negate)

    if len(args) == 3:
        op = args[1].concrete_value()
        if op in ("=", "==", "!="):
            return _eval_equality(args[0], args[2], op != "!=", state, negate)
        if op in ("-eq", "-ne", "-gt", "-lt", "-ge", "-le"):
            return _eval_numeric(args[0], args[2], op, state, negate)

    # unsupported compound expression: unknown outcome
    return outcome(None)


def _eval_connective(
    connective: str,
    left: List[SymString],
    right: List[SymString],
    state: SymState,
    engine: "Engine",
    negate: bool,
) -> List[SymState]:
    """``X -a Y`` / ``X -o Y`` with short-circuit state threading."""
    results: List[SymState] = []
    for left_state in _eval_test(left, state, engine, negate=False):
        left_true = left_state.status == 0
        short_circuit = left_true if connective == "-o" else not left_true
        if short_circuit:
            value = left_true != negate
            results.append(left_state.with_status(0 if value else 1))
        else:
            results.extend(_eval_test(right, left_state, engine, negate))
    return results


def _string_nonempty_fork(
    value: SymString, state: SymState, negate: bool
) -> List[SymState]:
    """[ s ] is true iff s is non-empty."""
    return _fork_on_language(
        value, Regex.literal(""), state,
        when_in_status=(1 if not negate else 0),
        when_out_status=(0 if not negate else 1),
        note="emptiness of " + value.describe(state.store),
    )


def _eval_unary(
    op: str, operand: SymString, state: SymState, engine: "Engine", negate: bool
) -> List[SymState]:
    if op == "-z":
        return _fork_on_language(
            operand, Regex.literal(""), state,
            when_in_status=(0 if not negate else 1),
            when_out_status=(1 if not negate else 0),
            note=f"-z {operand.describe(state.store)}",
        )
    if op == "-n":
        return _fork_on_language(
            operand, Regex.literal(""), state,
            when_in_status=(1 if not negate else 0),
            when_out_status=(0 if not negate else 1),
            note=f"-n {operand.describe(state.store)}",
        )
    if op in ("-e", "-f", "-d", "-r", "-w", "-x", "-s", "-h", "-L"):
        return _eval_file_test(op, operand, state, engine, negate)
    return _unknown(state, negate)


def _unknown(state: SymState, negate: bool, yes: str = "", no: str = "") -> List[SymState]:
    """Both outcomes of a test whose truth is unknown, noted ``yes`` and
    ``no``; the false one takes the incoming state."""
    true = state.fork(yes).with_status(int(negate))
    return [true, state.fork(no, last=True).with_status(int(not negate))]


def _eval_file_test(
    op: str, operand: SymString, state: SymState, engine: "Engine", negate: bool
) -> List[SymState]:
    kind = NodeKind.UNKNOWN
    if op == "-f":
        kind = NodeKind.FILE
    elif op == "-d":
        kind = NodeKind.DIR
    path = engine.sympath(operand)
    results: List[SymState] = []

    exists_state = state.fork(note=f"test {op} {operand.describe(state.store)}: holds")
    if path is not None:
        node = exists_state.fs.resolve(path, cwd=exists_state.cwd_node)
        try:
            exists_state.fs.assume_exists(node, kind)
        except FsContradiction:
            exists_state = None
    if exists_state is not None:
        results.append(exists_state.with_status(0 if not negate else 1))

    note = f"test {op} {operand.describe(state.store)}: fails"
    absent_state = state.fork(note, last=bool(results))  # "holds" survived
    if path is not None and op in ("-e", "-f", "-d", "-h", "-L"):
        node = absent_state.fs.resolve(path, cwd=absent_state.cwd_node)
        try:
            # for -f/-d failure just means "not a FILE/DIR here"; only -e
            # failure pins absence — but the denied kind is still a fact
            # guard-aware checkers can use
            if op == "-e":
                absent_state.fs.assume_absent(node)
            elif op == "-f":
                absent_state.fs.deny_kind(node, NodeKind.FILE)
            elif op == "-d":
                absent_state.fs.deny_kind(node, NodeKind.DIR)
            else:  # -h / -L
                absent_state.fs.deny_kind(node, NodeKind.SYMLINK)
        except FsContradiction:
            absent_state = None
    if absent_state is not None:
        results.append(absent_state.with_status(1 if not negate else 0))
    return results or [state.with_status(1)]


def _eval_equality(
    left: SymString, right: SymString, positive: bool, state: SymState, negate: bool
) -> List[SymState]:
    if negate:
        positive = not positive
    lc, rc = left.concrete_value(), right.concrete_value()
    if lc is not None and rc is not None:
        return [state.with_status(0 if (lc == rc) == positive else 1)]

    # one side concrete: refine the other
    if rc is None and lc is not None:
        left, right, lc, rc = right, left, rc, lc
    if rc is not None:
        return _fork_on_language(
            left, Regex.literal(rc), state,
            when_in_status=(0 if positive else 1),
            when_out_status=(1 if positive else 0),
            note=f"{left.describe(state.store)} vs {rc!r}",
            realpath_constant=rc,
        )

    return _unknown(state, False)  # both symbolic


def _eval_numeric(
    left: SymString, right: SymString, op: str, state: SymState, negate: bool
) -> List[SymState]:
    try:
        lv = int(left.concrete_value())
        rv = int(right.concrete_value())
    except (TypeError, ValueError):
        return _unknown(state, negate)
    truth = {
        "-eq": lv == rv,
        "-ne": lv != rv,
        "-gt": lv > rv,
        "-lt": lv < rv,
        "-ge": lv >= rv,
        "-le": lv <= rv,
    }[op]
    if negate:
        truth = not truth
    return [state.with_status(0 if truth else 1)]


def _fork_on_language(
    value: SymString,
    language: Regex,
    state: SymState,
    when_in_status: int,
    when_out_status: int,
    note: str,
    realpath_constant: Optional[str] = None,
) -> List[SymState]:
    """Fork on value ∈ language, refining single-variable values, and —
    via provenance — the *inputs* of realpath-derived values (§4: "the
    check on the normalized-path result of realpath implies information
    about the potentially un-normalized path")."""
    lang = value.to_regex(state.store)
    vid = value.single_var()
    results: List[SymState] = []
    sides = ((True, lang & language, when_in_status), (False, lang - language, when_out_status))
    for inside, side, status in sides:
        if side.is_empty():
            continue
        last = not inside and bool(results)  # "in" survived: "out" takes the state
        branch = state.fork(f"{note}: {'in' if inside else 'out'}", last)
        if vid is not None:
            refined = (branch.store.refine if inside else branch.store.exclude)(vid, language)
            if refined.is_empty() or (
                realpath_constant == "/" and not _refine_realpath_arg(branch, vid, inside)
            ):
                continue
        results.append(branch.with_status(status))
    return results or [state.with_status(when_out_status)]


def _refine_realpath_arg(state: SymState, vid: int, inside: bool) -> bool:
    """Given `realpath(arg) == "/"` (inside) or `!= "/"` (outside),
    refine the variable inside ``arg``."""
    prov = state.store.provenance(vid)
    if not prov or prov[0] != "realpath":
        return True
    arg = prov[1]
    if not isinstance(arg, SymString):
        return True
    target = _rooty_modulo_var(arg, state)
    if target is None:
        return True
    if inside:
        return not state.store.refine(target, Regex.constant(ROOTY)).is_empty()
    return not state.store.exclude(target, Regex.constant(ROOTY)).is_empty()


def _rooty_modulo_var(arg: SymString, state: SymState) -> Optional[int]:
    """If ``arg`` is a single variable surrounded only by rooty literal
    text (slashes/dots), the refinement transfers to that variable."""
    from ..symstr import LitAtom, VarAtom

    vid = None
    for atom in arg.atoms:
        if isinstance(atom, VarAtom):
            if vid is not None:
                return None
            vid = atom.vid
        elif isinstance(atom, LitAtom):
            if any(c not in "/." for c in atom.text):
                return None
        else:
            return None
    return vid


# ---------------------------------------------------------------------------
# realpath (modelled as a builtin for the provenance relation)
# ---------------------------------------------------------------------------


def builtin_realpath(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    operands = [a for a in argv[1:] if not (a.concrete_value() or "").startswith("-")]
    if not operands:
        return [state.with_status(1)]
    arg = operands[0]

    concrete = arg.concrete_value()
    if concrete is not None and concrete.startswith("/"):
        from ..fs import normalise_concrete

        success = state.fork(note=f"realpath {concrete}")
        success.emit_text(SymString.lit(normalise_concrete(concrete) + "\n"))
        success.status = 0
        failure = state.fork(f"realpath {concrete}: fails", last=True).with_status(1)
        if normalise_concrete(concrete) == "/":
            return [success]  # "/" always resolves
        return [success, failure]

    results = []
    success = state.fork(note=f"realpath {arg.describe(state.store)}: success")
    vid = success.store.fresh(
        Regex.constant(ABS_PATH),
        label=f"realpath({arg.describe(state.store)})",
        provenance=("realpath", arg),
    )
    success.emit_text(SymString.var(vid) + SymString.lit("\n"))
    success.status = 0
    results.append(success)

    note = f"realpath {arg.describe(state.store)}: failure"
    failure = state.fork(note, last=True).with_status(1)
    # rooty arguments always resolve (to "/"), so failure implies non-rooty
    target = _rooty_modulo_var(arg, failure)
    feasible = True
    if target is not None:
        feasible = not failure.store.exclude(target, Regex.constant(ROOTY)).is_empty()
    if feasible:
        results.append(failure)
    return results


# ---------------------------------------------------------------------------
# simple builtins
# ---------------------------------------------------------------------------


def builtin_echo(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    args = argv[1:]
    newline = True
    if args and args[0].concrete_value() == "-n":
        newline = False
        args = args[1:]
    out = SymString.empty()
    for idx, arg in enumerate(args):
        if idx:
            out = out + SymString.lit(" ")
        out = out + arg
    if newline:
        out = out + SymString.lit("\n")
    state.emit_text(out)
    return [state.with_status(0)]


def builtin_printf(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    if len(argv) >= 2 and argv[1].is_concrete():
        fmt = argv[1].concrete_value()
        if "%" not in fmt:
            state.emit_text(SymString.lit(fmt.replace("\\n", "\n").replace("\\t", "\t")))
            return [state.with_status(0)]
        if fmt.replace("\\n", "") == "%s" and len(argv) >= 3:
            out = argv[2]
            if fmt.endswith("\\n"):
                out = out + SymString.lit("\n")
            state.emit_text(out)
            return [state.with_status(0)]
    vid = state.store.fresh(label="printf-output")
    state.emit_text(SymString.var(vid))
    return [state.with_status(0)]


def builtin_pwd(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    state.emit_text(state.cwd_str + SymString.lit("\n"))
    return [state.with_status(0)]


def builtin_exit(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    code = 0 if state.status is None else state.status
    if len(argv) > 1:
        concrete = argv[1].concrete_value()
        if concrete is not None and concrete.isdigit():
            code = int(concrete) % 256
    state.halted = True
    return [state.with_status(code)]


def builtin_export(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    for arg in argv[1:]:
        concrete = arg.concrete_value()
        if concrete is not None and "=" in concrete:
            name, _, value = concrete.partition("=")
            state.set_var(name, SymString.lit(value))
        # `export NAME` with symbolic/plain name: no-op for the analysis
    return [state.with_status(0)]


def builtin_unset(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    for arg in argv[1:]:
        concrete = arg.concrete_value()
        if concrete:
            state.unset_var(concrete)
    return [state.with_status(0)]


def builtin_read(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    names = [a.concrete_value() for a in argv[1:] if a.concrete_value()]
    names = [n for n in names if n and not n.startswith("-")]
    ok = state.fork(note="read: a line arrived")
    for name in names or ["REPLY"]:
        vid = ok.store.fresh(Regex.constant(".*"), label=f"${name} (read)")
        ok.set_var(name, SymString.var(vid))
    ok.status = 0
    return [ok, state.fork("read: end of input", last=True).with_status(1)]


def builtin_shift(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    count = 1
    if len(argv) > 1 and (argv[1].concrete_value() or "").isdigit():
        count = int(argv[1].concrete_value())
    if len(state.params) > 1:
        state.params = [state.params[0]] + state.params[1 + count :]
    if state.argv_unknown:
        # the count changed: any memoised $# no longer describes it
        state.argc_sym = None
    return [state.with_status(0)]


def builtin_colon(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    return [state.with_status(0)]


def builtin_true(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    return [state.with_status(0)]


def builtin_false(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    return [state.with_status(1)]


def builtin_return(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    state.halted = True  # approximated as function exit
    code = 0
    if len(argv) > 1 and (argv[1].concrete_value() or "").isdigit():
        code = int(argv[1].concrete_value()) % 256
    return [state.with_status(code)]


def builtin_set(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    for idx, arg in enumerate(argv[1:], start=1):
        concrete = arg.concrete_value()
        if concrete == "--":
            # `set -- a b c`: the operands become the (now known) argv
            state.set_params(argv[idx + 1 :])
            return [state.with_status(0)]
        if concrete is None or not concrete.startswith(("-", "+")):
            # first non-option operand: it and the rest replace argv
            state.set_params(argv[idx:])
            return [state.with_status(0)]
        if concrete.startswith("-") and len(concrete) > 1:
            state.options.update(c for c in concrete[1:] if c in "eux")
        elif concrete.startswith("+") and len(concrete) > 1:
            state.options.difference_update(concrete[1:])
    return [state.with_status(0)]


def builtin_break(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    return _loop_control("break", argv, state, engine)


def builtin_continue(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    return _loop_control("continue", argv, state, engine)


def _loop_control(
    kind: str, argv: List[SymString], state: SymState, engine: "Engine"
) -> List[SymState]:
    """``break [N]`` / ``continue [N]``: exit or restart N enclosing loops.

    The builtin only *raises* the signal (on ``state.loop_control``); the
    engine's loop evaluators consume it one level per loop boundary, so
    ``break 2`` inside a nested loop unwinds both.
    """
    levels = 1
    if len(argv) > 1:
        concrete = argv[1].concrete_value()
        if concrete is not None and concrete.isdigit() and int(concrete) >= 1:
            levels = int(concrete)
    depth = engine.loop_depth
    if depth <= 0:
        state.warn(
            Diagnostic(
                code="loop-control-outside-loop",
                message=f"'{kind}' outside any enclosing loop has no effect",
                severity=Severity.INFO,
            )
        )
        return [state.with_status(0)]
    # bash clamps N to the number of enclosing loops
    state.loop_control = (kind, min(levels, depth))
    return [state.with_status(0)]


def builtin_getopts(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    """``getopts optstring var [args...]``: one option-parsing step.

    Pure environment effect — binds ``var`` to one of the option letters
    (or ``?`` for an invalid option), ``OPTARG`` to an unknown string,
    and ``OPTIND`` to an unknown index; touches no files.  Forks the
    "parsed an option" (status 0) and "options exhausted" (status 1)
    outcomes so ``while getopts ...`` loops explore both.
    """
    optstring = argv[1].concrete_value() if len(argv) > 1 else None
    varname = argv[2].concrete_value() if len(argv) > 2 else None

    ok = state.fork(note="getopts: option parsed")
    if varname:
        letters = ""
        if optstring:
            letters = "".join(
                c for c in optstring.lstrip(":") if c != ":"
            )
        if letters:
            # var holds one optstring letter, or "?" on an invalid option
            lang = Regex.literal("?")
            for c in letters:
                lang = lang | Regex.literal(c)
            vid = ok.store.fresh(lang, label=f"${varname} (getopts)")
        else:
            vid = ok.store.fresh(label=f"${varname} (getopts)")
        ok.set_var(varname, SymString.var(vid))
    arg_vid = ok.store.fresh(label="$OPTARG (getopts)")
    ok.set_var("OPTARG", SymString.var(arg_vid))
    ind_vid = ok.store.fresh(
        Regex.constant("[1-9][0-9]*"), label="$OPTIND (getopts)"
    )
    ok.set_var("OPTIND", SymString.var(ind_vid))
    ok.status = 0
    return [ok, state.fork("getopts: options exhausted", last=True).with_status(1)]


def builtin_wait(argv: List[SymString], state: SymState, engine: "Engine") -> List[SymState]:
    """``wait`` joins background jobs: it closes their event-log regions
    (their effects can no longer interleave with anything later) and
    removes them from the live-job list.

    - no arguments: waits for *all* jobs; exit status 0
    - ``%N`` arguments: waits for those job numbers; status unknown
      (it is the job's exit status)
    - pid arguments: we cannot map pids to jobs, so conservatively
      waits for all jobs; status unknown
    """
    args = [a.concrete_value() for a in argv[1:]]
    to_close = list(state.bg_jobs)
    status: Optional[int] = 0
    if args and all(a is not None and a.startswith("%") for a in args):
        numbers = set()
        for a in args:
            tail = a[1:]
            if tail.isdigit():
                numbers.add(int(tail))
        to_close = [j for j in state.bg_jobs if j.number in numbers]
        status = None
    elif args:
        status = None
    closed = {job.region for job in to_close}
    log = state.fs.log
    for job in to_close:
        log.close_region(job.region, label=job.label)
    state.bg_jobs = tuple(j for j in state.bg_jobs if j.region not in closed)
    return [state.with_status(status)]


_BUILTINS: Dict[str, Callable] = {
    "cd": builtin_cd,
    "test": builtin_test,
    "[": builtin_test,
    "echo": builtin_echo,
    "printf": builtin_printf,
    "pwd": builtin_pwd,
    "exit": builtin_exit,
    "export": builtin_export,
    "readonly": builtin_export,
    "local": builtin_export,
    "unset": builtin_unset,
    "read": builtin_read,
    "shift": builtin_shift,
    ":": builtin_colon,
    "true": builtin_true,
    "false": builtin_false,
    "return": builtin_return,
    "set": builtin_set,
    "realpath": builtin_realpath,
    "getopts": builtin_getopts,
    "wait": builtin_wait,
    "break": builtin_break,
    "continue": builtin_continue,
}
