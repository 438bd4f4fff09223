"""Path components over symbolic strings.

A symbolic path is a sequence of components, each either a concrete name
or a symbolic segment (an unexpanded variable).  ``$1/config`` becomes
``[Sym(v), "config"]``; ``/opt/steam`` becomes root + ``["opt", "steam"]``.

A symbolic segment denotes *the node that variable resolves to* — it may
textually contain many ``/``-separated names, but for node-identity
reasoning (paper §4) all that matters is that two occurrences of the same
variable reach the same node.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..records import FrozenRecord, set_field
from ..symstr import GlobAtom, LitAtom, SymString


class SymSegment(FrozenRecord):
    """A path segment whose name is an unexpanded symbolic variable."""

    __slots__ = ("vid",)

    def __init__(self, vid: int):
        set_field(self, "vid", vid)


Component = Union[str, SymSegment]


class SymPath(FrozenRecord):
    """``absolute`` paths start at "/"; otherwise resolution starts at the
    current working directory — unless the first component is symbolic, in
    which case the path hangs off that variable's own abstract root."""

    __slots__ = ("components", "absolute")

    def __init__(self, components: Tuple[Component, ...], absolute: bool):
        set_field(self, "components", components)
        set_field(self, "absolute", absolute)

    @property
    def sym_rooted(self) -> bool:
        return bool(self.components) and isinstance(self.components[0], SymSegment)

    def child(self, name: str) -> "SymPath":
        return SymPath(self.components + (name,), self.absolute)

    def __str__(self) -> str:
        parts = [
            c if isinstance(c, str) else f"<v{c.vid}>" for c in self.components
        ]
        prefix = "/" if self.absolute else ""
        return prefix + "/".join(parts) if parts else (prefix or ".")


def normalise_concrete(path: str) -> str:
    """Lexical normalisation à la ``realpath -m`` (no symlink awareness):
    collapse ``//``, drop ``.``, resolve ``..`` against the prefix."""
    absolute = path.startswith("/")
    parts: List[str] = []
    for segment in path.split("/"):
        if segment in ("", "."):
            continue
        if segment == "..":
            if parts and parts[-1] != "..":
                parts.pop()
            elif not absolute:
                parts.append("..")
            # ".." at the root stays at the root
        else:
            parts.append(segment)
    body = "/".join(parts)
    if absolute:
        return "/" + body
    return body or "."


def parse_sympath(value: SymString) -> Optional[SymPath]:
    """Interpret a symbolic string as a path.

    Returns None when a variable is glued onto literal text *within* one
    segment (e.g. ``foo$X``) — the path's shape is then unknown.  The
    exception is a trailing glob-free concatenation ``$X$Y`` which also
    yields None; callers fall back to language-level reasoning.
    """
    # split atoms into segments on "/" occurring in literal atoms
    segments: List[List[object]] = [[]]
    absolute = False
    seen_any = False
    for atom in value.atoms:
        if isinstance(atom, LitAtom):
            pieces = atom.text.split("/")
            if not seen_any and atom.text.startswith("/"):
                absolute = True
            seen_any = True
            for idx, piece in enumerate(pieces):
                if idx > 0:
                    segments.append([])
                if piece:
                    segments[-1].append(piece)
        elif isinstance(atom, GlobAtom):
            return None  # callers strip globs before resolving
        else:
            seen_any = True
            segments[-1].append(SymSegment(atom.vid))

    components: List[Component] = []
    for segment in segments:
        if not segment:
            continue  # empty from "//" or leading "/"
        if len(segment) == 1 and isinstance(segment[0], SymSegment):
            components.append(segment[0])
        elif all(isinstance(p, str) for p in segment):
            components.append("".join(segment))
        else:
            return None  # variable fused with literal text in one segment

    # normalise "." / ".." over concrete components only
    normalised: List[Component] = []
    for comp in components:
        if comp == ".":
            continue
        if comp == "..":
            if normalised and isinstance(normalised[-1], str) and normalised[-1] != "..":
                normalised.pop()
            elif absolute and not normalised:
                continue
            else:
                normalised.append(comp)
        else:
            normalised.append(comp)
    return SymPath(tuple(normalised), absolute)
