"""The descriptive type library and per-invocation command signatures.

Paper §4 ("ergonomic annotations") calls for "an extensible library of
descriptive types" — ``any`` for ``.*``, ``url`` for curl inputs,
``longlist`` for ``ls -l`` output — plus signature inference for common
stream commands from their concrete argv.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..rlang import Regex
from .signatures import (
    Signature,
    filter_sig,
    identity,
    prefix_sig,
    producer,
    simple,
    suffix_sig,
)
from .types import StreamType

# ---------------------------------------------------------------------------
# Named descriptive types (§4)
# ---------------------------------------------------------------------------

_NAMED_PATTERNS: Dict[str, str] = {
    "any": r".*",
    "empty": r"",
    "word": r"\S+",
    "number": r"[+-]?[0-9]+(\.[0-9]+)?",
    "integer": r"[+-]?[0-9]+",
    "hex": r"[0-9a-f]+",
    "hexnum": r"0x[0-9a-f]+",
    "path": r"/?([^/\n]*/)*[^/\n]+",
    "abspath": r"/([^/\n]*/)*[^/\n]*",
    "url": r"(https?|ftp)://[^\s]+",
    "ipv4": r"([0-9]{1,3}\.){3}[0-9]{1,3}",
    "identifier": r"[A-Za-z_][A-Za-z0-9_]*",
    # `ls -l` lines: mode, links, owner, group, size, date, name
    "longlist": r"[bcdlps-][rwxsStT-]{9}\+?\s+[0-9]+\s+\S+\s+\S+\s+[0-9]+\s+.*",
    # label<TAB>value pairs, as printed by lsb_release -a
    "labelled": r"[^\t\n]+:\t.*",
    "lsb_release": r"(Distributor ID|Description|Release|Codename):\t.*",
    "tsv2": r"[^\t\n]*\t[^\t\n]*",
    "csv": r"[^,\n]*(,[^,\n]*)*",
    "keyvalue": r"[A-Za-z_][A-Za-z0-9_]*=.*",
}

_named_cache: Dict[str, StreamType] = {}


def named_type(name: str) -> Optional[StreamType]:
    """Look up a descriptive type by name (``any``, ``url``, ...)."""
    if name not in _NAMED_PATTERNS:
        return None
    if name not in _named_cache:
        _named_cache[name] = StreamType.of(_NAMED_PATTERNS[name], name)
    return _named_cache[name]


def named_type_names() -> List[str]:
    return sorted(_NAMED_PATTERNS)


def register_named_type(name: str, pattern: str) -> StreamType:
    """Extend the library (user annotations may define new names)."""
    _NAMED_PATTERNS[name] = pattern
    _named_cache.pop(name, None)
    return named_type(name)


def type_of(name_or_pattern: str) -> StreamType:
    """``typeOf`` introspection: a name from the library, else a pattern."""
    named = named_type(name_or_pattern)
    if named is not None:
        return named
    return StreamType.of(name_or_pattern)


# ---------------------------------------------------------------------------
# grep pattern -> line language
# ---------------------------------------------------------------------------


def grep_line_language(pattern: str, whole_line: bool = False) -> Regex:
    """The language of *lines selected by* a grep pattern.

    Grep matching is unanchored unless the pattern anchors it: ``desc``
    selects ``.*desc.*``; ``^desc`` selects ``desc.*``; ``desc$`` selects
    ``.*desc``.
    """
    anchored_start = pattern.startswith("^")
    anchored_end = pattern.endswith("$") and not pattern.endswith("\\$")
    core = pattern
    if anchored_start:
        core = core[1:]
    if anchored_end:
        core = core[:-1]
    lang = Regex.compile(core)
    if whole_line:
        return lang
    if not anchored_start:
        lang = Regex.constant(".*") + lang
    if not anchored_end:
        lang = lang + Regex.constant(".*")
    return lang


# ---------------------------------------------------------------------------
# Signatures for common stream commands from argv
# ---------------------------------------------------------------------------

#: Numeric-token line shape for `sort -g`/`sort -n`: a general number
#: (hex per strtod, or decimal) followed by end-of-token.  The paper's
#: example instance: ∀α ⊆ 0x[0-9a-f]+.* for hex pipelines.
GENERAL_NUMERIC = r"[+-]?(0x[0-9a-f]+|[0-9]+(\.[0-9]+)?)(\s.*)?"


def signature_for(argv: Sequence[str]) -> Optional[Signature]:
    """A stream-type signature for a concrete invocation, or None when
    the command is untyped (triggering §4's runtime monitoring)."""
    if not argv:
        return None
    name = argv[0]
    builder = _BUILDERS.get(name)
    if builder is None:
        return None
    return builder(list(argv[1:]))


def _split_flags(args: List[str]) -> (List[str], List[str]):
    flags, operands = [], []
    for arg in args:
        if arg.startswith("-") and arg != "-":
            flags.append(arg)
        else:
            operands.append(arg)
    return flags, operands


def _sig_grep(args: List[str]) -> Optional[Signature]:
    flags, operands = _split_flags(args)
    flagchars = set("".join(f[1:] for f in flags if not f.startswith("--")))
    pattern: Optional[str] = None
    for flag in flags:
        if flag.startswith("--regexp="):
            pattern = flag.split("=", 1)[1]
    if pattern is None:
        if "e" in flagchars:
            # best effort: `-e PAT` — find the operand after -e
            for idx, arg in enumerate(args):
                if arg == "-e" and idx + 1 < len(args):
                    pattern = args[idx + 1]
                    operands = [o for o in operands if o != pattern]
                    break
        elif operands:
            pattern = operands[0]
    if pattern is None:
        return None
    try:
        if "o" in flagchars:
            # -o emits the matched fragments themselves, one per line
            core = pattern.lstrip("^").rstrip("$")
            out = Regex.compile(core)
            label = f"grep -o {pattern!r}"
            return Signature(
                _any_expr(), _concrete_expr(out), label=label
            )
        line_lang = grep_line_language(pattern, whole_line="x" in flagchars)
        if "c" in flagchars:
            return simple(".*", "[0-9]+", label=f"grep -c {pattern!r}")
        if "v" in flagchars:
            return _filter_complement(line_lang, label=f"grep -v {pattern!r}")
        return _filter(line_lang, label=f"grep {pattern!r}")
    except Exception:
        return None  # unsupported pattern syntax: untyped


def _sig_sed(args: List[str]) -> Optional[Signature]:
    flags, operands = _split_flags(args)
    if not operands:
        return None
    script = operands[0]
    parsed = _parse_sed_subst(script)
    if parsed is None:
        return None
    pattern, replacement = parsed
    if "&" in replacement or "\\" in replacement:
        return None
    if pattern == "^":
        return prefix_sig(replacement, label=f"sed {script!r}")
    if pattern == "$":
        return suffix_sig(replacement, label=f"sed {script!r}")
    return None  # general substitution: untyped (monitoring territory)


def _parse_sed_subst(script: str):
    if len(script) < 4 or script[0] != "s":
        return None
    delim = script[1]
    parts = script[2:].split(delim)
    if len(parts) < 2:
        return None
    return parts[0], parts[1]


def _sig_sort(args: List[str]) -> Signature:
    flags, _ = _split_flags(args)
    flagchars = set("".join(f[1:] for f in flags if not f.startswith("--")))
    if flagchars & {"g", "n"}:
        return identity(label="sort -g", bound=Regex.constant(GENERAL_NUMERIC))
    return identity(label="sort")


def _sig_cut(args: List[str]) -> Optional[Signature]:
    delim = "\t"
    for idx, arg in enumerate(args):
        if arg.startswith("-d") and len(arg) > 2:
            delim = arg[2:]
        elif arg == "-d" and idx + 1 < len(args):
            delim = args[idx + 1]
    escaped = "\\" + delim if delim in "\\^$.[]|()*+?{}" else delim
    return simple(".*", f"[^{escaped}\\n]*", label="cut")


def _sig_head_tail(args: List[str]) -> Signature:
    return identity(label="head/tail")


def _sig_wc(args: List[str]) -> Signature:
    return producer(r"\s*[0-9]+(\s+[0-9]+)*(\s+\S+)?", label="wc")


def _sig_cat(args: List[str]) -> Signature:
    return identity(label="cat")


def _sig_uniq(args: List[str]) -> Signature:
    flags, _ = _split_flags(args)
    if any("c" in f for f in flags):
        return Signature(
            Var_("α"),
            _concrete_then_var(Regex.constant(r"\s*[0-9]+ "), "α"),
            vars=(TypeVarT_("α"),),
            label="uniq -c",
        )
    return identity(label="uniq")


def _sig_tr(args: List[str]) -> Optional[Signature]:
    flags, operands = _split_flags(args)
    if "-d" in flags and operands:
        # deleting characters: output lines lack them
        try:
            removed = _tr_charset(operands[0])
            kept = removed.complement()
            out = Regex.from_ast(_star_of(kept))
            return Signature(_any_expr(), _concrete_expr(out), label="tr -d")
        except Exception:
            return None
    if len(operands) >= 2 and not flags:
        # translation mode: ∀α. α -> h(α), the homomorphic image under
        # the SET1 -> SET2 character map
        try:
            translate = _tr_translator(operands[0], operands[1])
        except ValueError:
            return None
        return Signature(
            Var_("α"),
            Mapped_("α", translate, label=f"tr[{operands[0]}→{operands[1]}]"),
            vars=(TypeVarT_("α"),),
            label=f"tr {operands[0]} {operands[1]}",
        )
    return None


def _tr_expand(spec: str) -> List[str]:
    """Expand a tr SET into its character list (ranges supported)."""
    chars: List[str] = []
    idx = 0
    while idx < len(spec):
        if idx + 2 < len(spec) and spec[idx + 1] == "-" and ord(spec[idx]) <= ord(spec[idx + 2]):
            chars.extend(
                chr(code) for code in range(ord(spec[idx]), ord(spec[idx + 2]) + 1)
            )
            idx += 3
        else:
            chars.append(spec[idx])
            idx += 1
    return chars


def _tr_translator(set1: str, set2: str):
    """A CharSet->CharSet image function for ``tr SET1 SET2``."""
    from ..rlang.charclass import CharSet

    src = _tr_expand(set1)
    dst = _tr_expand(set2)
    if not src or not dst:
        raise ValueError("empty tr set")
    if len(dst) < len(src):
        dst = dst + [dst[-1]] * (len(src) - len(dst))  # POSIX pads SET2
    mapping = dict(zip(src, dst))
    src_charset = CharSet.of("".join(src))

    def translate(charset):
        untouched = charset.difference(src_charset)
        mapped = CharSet.of(
            "".join(mapping[c] for c in src if c in charset)
        )
        return untouched.union(mapped)

    return translate


def _tr_charset(spec: str):
    from ..rlang.charclass import CharSet

    result = CharSet.empty()
    idx = 0
    while idx < len(spec):
        if idx + 2 < len(spec) and spec[idx + 1] == "-":
            result = result.union(CharSet.range(spec[idx], spec[idx + 2]))
            idx += 3
        else:
            result = result.union(CharSet.of(spec[idx]))
            idx += 1
    return result


def _star_of(charset):
    from ..rlang.syntax import Lit, Star

    return Star(Lit(charset))


def _sig_lsb_release(args: List[str]) -> Signature:
    return producer(_NAMED_PATTERNS["lsb_release"], label="lsb_release")


def _sig_ls(args: List[str]) -> Signature:
    flags, _ = _split_flags(args)
    if any("l" in f for f in flags):
        return producer(_NAMED_PATTERNS["longlist"], label="ls -l")
    return producer(r"[^\n]*", label="ls")


def _sig_echo(args: List[str]) -> Signature:
    return producer(".*", label="echo")


def _sig_basename(args: List[str]) -> Signature:
    return producer(r"[^/\n]+", label="basename")


def _sig_dirname(args: List[str]) -> Signature:
    return producer(_NAMED_PATTERNS["path"] + "|/|\\.", label="dirname")


def _sig_seq(args: List[str]) -> Signature:
    return producer(r"-?[0-9]+(\.[0-9]+)?", label="seq")


def _sig_xargs(args: List[str]) -> Optional[Signature]:
    """``xargs CMD ...``: output is CMD's output (on unknowable input)."""
    idx = 0
    while idx < len(args):
        arg = args[idx]
        if arg in ("-n", "-I", "-P", "-d", "-s"):
            idx += 2
            continue
        if arg.startswith("-"):
            idx += 1
            continue
        break
    inner = args[idx:]
    if not inner:
        return None
    inner_sig = signature_for(inner)
    if inner_sig is None:
        return None
    try:
        out = apply_signature_to_any(inner_sig)
    except Exception:
        return None
    return Signature(
        _any_expr(), _concrete_expr(out.line), label=f"xargs {' '.join(inner)}"
    )


def apply_signature_to_any(sig: Signature):
    """The output type of a signature fed the universal input."""
    from .signatures import apply_signature
    from .types import StreamType

    return apply_signature(sig, StreamType.any())


def _sig_awk(args: List[str]) -> Optional[Signature]:
    """``awk '{print $N}'`` selects one whitespace-separated field."""
    flags, operands = _split_flags(args)
    if flags or not operands:
        return None
    import re as _re

    match = _re.fullmatch(r"\s*\{\s*print\s+\$([0-9]+)\s*\}\s*", operands[0])
    if match:
        return simple(".*", r"[^\s\n]*", label=f"awk print ${match.group(1)}")
    return None  # general awk programs: untyped


def _sig_nl(args: List[str]) -> Signature:
    return Signature(
        Var_("α"),
        _concrete_then_var(Regex.constant(r"\s*[0-9]+\t"), "α"),
        vars=(TypeVarT_("α"),),
        label="nl",
    )


# -- small expression helpers (avoid importing names circularly) -------------

from .signatures import Concrete as _Concrete  # noqa: E402
from .signatures import ConcatT as _ConcatT  # noqa: E402
from .signatures import Filtered as _Filtered  # noqa: E402
from .signatures import Mapped as Mapped_  # noqa: E402
from .signatures import TypeVarT as TypeVarT_  # noqa: E402
from .signatures import Var as Var_  # noqa: E402


def _any_expr():
    return _Concrete(Regex.constant("(.|\\n)*"))


def _concrete_expr(lang: Regex):
    return _Concrete(lang)


def _concrete_then_var(lang: Regex, var: str):
    return _ConcatT((_Concrete(lang), Var_(var)))


def _filter(lang: Regex, label: str) -> Signature:
    return Signature(
        Var_("α"), _Filtered("α", lang), vars=(TypeVarT_("α"),), label=label
    )


def _filter_complement(lang: Regex, label: str) -> Signature:
    return Signature(
        Var_("α"), _Filtered("α", ~lang), vars=(TypeVarT_("α"),), label=label
    )


_BUILDERS: Dict[str, Callable[[List[str]], Optional[Signature]]] = {
    "grep": _sig_grep,
    "egrep": _sig_grep,
    "fgrep": _sig_grep,
    "sed": _sig_sed,
    "sort": _sig_sort,
    "cut": _sig_cut,
    "head": _sig_head_tail,
    "tail": _sig_head_tail,
    "wc": _sig_wc,
    "cat": _sig_cat,
    "tac": _sig_cat,
    "uniq": _sig_uniq,
    "tr": _sig_tr,
    "lsb_release": _sig_lsb_release,
    "ls": _sig_ls,
    "echo": _sig_echo,
    "basename": _sig_basename,
    "dirname": _sig_dirname,
    "seq": _sig_seq,
    "nl": _sig_nl,
    "xargs": _sig_xargs,
    "awk": _sig_awk,
}

#: Commands that emit output even when their input stream is empty.
PRODUCES_ON_EMPTY = {"wc", "echo", "lsb_release", "ls", "seq", "basename", "dirname"}
