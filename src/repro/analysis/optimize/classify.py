"""Parallelizability classification of pipeline stages (PaSh taxonomy).

Every stage of every pipeline gets one of the classes in
:mod:`plan` — ``stateless``, ``parallelizable``, ``commutative``,
``blocking``, ``unsafe``, ``unknown`` — with the *evidence* that licensed
it.  Evidence comes from three static sources, in order of strength:

1. **rtypes signatures**: a polymorphic ``∀α. α -> f(α)`` line-map
   signature (Filtered/Mapped output over the input variable) is proof
   the command treats lines independently — stateless by construction.
2. **the merge-operator table**: classic aggregators (``sort``, ``uniq``,
   ``wc``, ``grep -c``) are not line maps but still split, given the
   right operator to merge chunk outputs (``sort -m``, summation, ...).
3. **mined command specs**: a spec clause with write/create/delete
   effects means running the command once per input chunk would multiply
   its side effects — unsafe to split.

Anything without evidence stays ``unknown``; the advisor never promotes
a stage on absence of information.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ...rtypes import (
    ConcatT,
    Filtered,
    Mapped,
    Signature,
    Var,
    check_pipeline,
    signature_for,
)
from ...shell.ast import Command, Pipeline, SimpleCommand
from ...shell.printer import command_label, render
from ...specs import (
    Clause,
    CopiesTo,
    Creates,
    Deletes,
    LinksTo,
    WritesFile,
    default_registry,
)
from .plan import (
    BLOCKING,
    COMMUTATIVE,
    PARALLELIZABLE,
    STATELESS,
    UNKNOWN,
    UNSAFE,
    PipelinePlan,
    SplitRange,
    StagePlan,
)

#: builtins that read or mutate shell state; duplicating them per input
#: chunk (or hoisting them into a subshell) changes program meaning
STATE_BUILTINS = {
    "cd", "export", "unset", "set", "shift", "read", "getopts", "trap",
    "exec", "wait", "umask", "ulimit", ".", "source", "eval", "alias",
    "local", "readonly", "return", "break", "continue", "exit",
}

#: redirect operators that write the file system
_WRITE_REDIRECTS = {">", ">>", ">|", "<>"}

#: commands that ignore stdin and generate the stream (pipeline sources)
_PRODUCERS = {"echo", "seq", "ls", "lsb_release", "basename", "dirname"}

_MUTATING_EFFECTS = (WritesFile, Creates, Deletes, CopiesTo, LinksTo)


def argv_of(node: Command) -> Optional[List[str]]:
    """The statically-known argv of a simple command, or None when the
    command is compound or any word expands dynamically."""
    if not isinstance(node, SimpleCommand) or not node.words:
        return None
    argv: List[str] = []
    for word in node.words:
        text = word.literal_text()
        if text is None:
            return None
        argv.append(text)
    return argv


def _flagchars(argv: List[str]) -> set:
    return set(
        "".join(a[1:] for a in argv[1:] if a.startswith("-") and not a.startswith("--"))
    )


def _is_line_map(sig: Signature) -> bool:
    """True when the signature has the ``∀α. α -> f(α)`` line-map shape:
    output is the input variable filtered or mapped (or a concatenation
    involving it) — evidence the command never mixes information across
    lines."""
    if not sig.vars or not isinstance(sig.input, Var):
        return False
    out = sig.output
    if isinstance(out, (Filtered, Mapped)):
        return True
    if isinstance(out, ConcatT):
        return any(isinstance(part, (Var, Filtered, Mapped)) for part in out.parts)
    return False


def _spec_mutates(name: str) -> Optional[str]:
    """The spec-cited reason this command writes the file system, if the
    mined registry says it does."""
    spec = default_registry().get(name)
    if spec is None:
        return None
    for clause in spec.clauses:
        for effect in clause.effects:
            if isinstance(effect, _MUTATING_EFFECTS):
                return f"spec clause has {type(effect).__name__} effect"
    return None


def classify_argv(argv: Optional[List[str]]) -> Tuple[str, Optional[str], str, str]:
    """``(class, merge, evidence, role)`` for one statically-known argv."""
    if not argv:
        return UNKNOWN, None, "dynamic or compound command", "transformer"
    name = argv[0]
    flags = _flagchars(argv)

    if name in STATE_BUILTINS:
        return UNSAFE, None, f"'{name}' reads/mutates shell state", "transformer"

    if name in ("grep", "egrep", "fgrep"):
        if "c" in flags:
            return (
                COMMUTATIVE,
                "sum",
                "per-chunk match counts add up",
                "transformer",
            )
        sig = signature_for(argv)
        if sig is not None and _is_line_map(sig):
            return STATELESS, "cat", f"line-map signature: {sig.label}", "transformer"
        return UNKNOWN, None, "grep variant without a typed signature", "transformer"

    if name in ("sed", "tr", "cut", "awk"):
        sig = signature_for(argv)
        if sig is not None and _is_line_map(sig):
            return STATELESS, "cat", f"line-map signature: {sig.label}", "transformer"
        if name == "sed":
            ok, why = _sed_is_per_line(argv)
            if ok:
                return STATELESS, "cat", why, "transformer"
        if name == "cut":
            return STATELESS, "cat", "cut maps each line independently", "transformer"
        return UNKNOWN, None, f"untyped {name} program", "transformer"

    if name == "cat":
        if len(argv) == 1 or argv[1:] == ["-"]:
            return STATELESS, "cat", "identity over the stream", "transformer"
        return BLOCKING, None, "reads named files, not the pipe", "source"
    if name == "tac":
        return (
            PARALLELIZABLE,
            "tac-concat",
            "reverse chunks, then concatenate in reverse chunk order",
            "transformer",
        )
    if name == "sort":
        sort_flags = [a for a in argv[1:] if a.startswith("-")]
        merge = " ".join(["sort", "-m"] + sort_flags)
        return (
            COMMUTATIVE,
            merge,
            "total order is insensitive to input chunking",
            "transformer",
        )
    if name == "uniq":
        if "c" in flags:
            return (
                BLOCKING,
                None,
                "counts span chunk boundaries; no simple merge",
                "transformer",
            )
        return (
            PARALLELIZABLE,
            "uniq re-collapse",
            "re-run uniq over the concatenated chunk outputs",
            "transformer",
        )
    if name == "wc":
        return COMMUTATIVE, "sum", "per-chunk counts add up", "transformer"
    if name in ("head", "tail", "nl"):
        return (
            BLOCKING,
            None,
            f"{name} depends on absolute stream position",
            "transformer",
        )
    if name in _PRODUCERS:
        return BLOCKING, None, "producer: ignores stdin", "source"
    if name == "xargs":
        return UNKNOWN, None, "xargs re-invokes an inner command", "transformer"

    mutates = _spec_mutates(name)
    if mutates is not None:
        return UNSAFE, None, mutates, "transformer"

    sig = signature_for(argv)
    if sig is not None and _is_line_map(sig):
        return STATELESS, "cat", f"line-map signature: {sig.label}", "transformer"
    return UNKNOWN, None, "no signature or spec evidence", "transformer"


def _sed_is_per_line(argv: List[str]) -> Tuple[bool, str]:
    """A plain ``s///`` sed script with no address and no hold-space or
    multi-line commands rewrites each line independently."""
    operands = [a for a in argv[1:] if not a.startswith("-")]
    if len(operands) != 1:
        return False, ""
    script = operands[0]
    # script[0] == 's' means no address prefix (addresses would precede)
    if script.startswith("s") and len(script) > 3:
        delim = script[1]
        parts = script[2:].split(delim)
        if len(parts) >= 2:
            trailer = parts[2] if len(parts) >= 3 else ""
            if all(ch in "gip0123456789" for ch in trailer):
                return True, f"sed {script!r} substitutes within single lines"
    return False, ""


def classify_stage(node: Command, index: int) -> StagePlan:
    """Classify one pipeline stage, checking stage-local redirects."""
    argv = argv_of(node)
    text = command_label(node)
    klass, merge, evidence, role = classify_argv(argv)
    if isinstance(node, SimpleCommand):
        for redirect in node.redirects:
            if redirect.op in _WRITE_REDIRECTS:
                klass, merge, role = UNSAFE, None, role
                evidence = (
                    f"stage redirect '{redirect.op}' writes the file system; "
                    "per-chunk duplication would race"
                )
                break
    elif argv is None:
        evidence = "compound stage: internal control flow is opaque to splitting"
    return StagePlan(
        index=index,
        text=text,
        klass=klass,
        argv=argv,
        merge=merge,
        evidence=evidence,
        role=role,
    )


def _infer_stream_types(stages: List[StagePlan]) -> None:
    """Annotate each stage with its inferred output line language, typed
    as the engine types the pipeline (:func:`rtypes.check_pipeline`)."""
    types = check_pipeline([stage.argv or [] for stage in stages])
    for stage, inferred in zip(stages, types.stage_types):
        if not inferred.is_dead():
            stage.stream_type = inferred.describe()


def _split_ranges(stages: List[StagePlan]) -> List[SplitRange]:
    """Maximal stateless runs merge with ``cat``; each commutative or
    parallelizable stage splits on its own with its merge operator."""
    splits: List[SplitRange] = []
    run_start: Optional[int] = None

    def close_run(end: int) -> None:
        nonlocal run_start
        if run_start is None:
            return
        count = end - run_start + 1
        splits.append(
            SplitRange(
                begin=run_start,
                end=end,
                merge="cat",
                justification=(
                    f"{count} consecutive stateless line-map stage(s): chunks "
                    "can flow through independently and concatenate in order"
                ),
            )
        )
        run_start = None

    for stage in stages:
        if stage.klass == STATELESS:
            if run_start is None:
                run_start = stage.index
            continue
        close_run(stage.index - 1)
        if stage.klass in (COMMUTATIVE, PARALLELIZABLE) and stage.merge:
            splits.append(
                SplitRange(
                    begin=stage.index,
                    end=stage.index,
                    merge=stage.merge,
                    justification=stage.evidence,
                )
            )
    if stages and run_start is not None:
        close_run(stages[-1].index)
    return splits


def classify_pipeline(node: Pipeline, command_index: int, source_line: int) -> PipelinePlan:
    """The full stage-by-stage plan for one pipeline."""
    stages = [classify_stage(child, idx) for idx, child in enumerate(node.commands)]
    _infer_stream_types(stages)
    plan = PipelinePlan(
        command=command_index,
        line=source_line,
        source=render(node),
        stages=stages,
        splits=_split_ranges(stages),
    )
    if any(s.klass == UNSAFE for s in stages):
        plan.notes.append(
            "pipeline contains an unsafe stage; splits are limited to the "
            "segments around it"
        )
    if all(s.klass in (UNKNOWN, BLOCKING) for s in stages):
        plan.notes.append("no splittable stage found")
    return plan
