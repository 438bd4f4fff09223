"""Symbolic string values: concatenations of literals and variables."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

from ..records import FrozenRecord, set_field
from ..rlang import Regex
from .store import ConstraintStore


class LitAtom(FrozenRecord):
    __slots__ = ("text",)

    def __init__(self, text: str):
        set_field(self, "text", text)


class VarAtom(FrozenRecord):
    __slots__ = ("vid",)

    def __init__(self, vid: int):
        set_field(self, "vid", vid)


class GlobAtom(FrozenRecord):
    """An unexpanded pathname-expansion wildcard (``*`` or ``?``).

    In argument position a glob stands for *the matching pathnames*; its
    language contribution is ``[^/]*`` (``*``) or ``[^/]`` (``?``) since
    pathname expansion does not cross ``/`` boundaries.
    """

    __slots__ = ("char",)

    def __init__(self, char: str):
        set_field(self, "char", char)


Atom = Union[LitAtom, VarAtom, GlobAtom]


class SymString:
    """An immutable symbolic string: a sequence of atoms.

    The set of possible concrete values is the concatenation of each
    atom's language under a given :class:`ConstraintStore`.
    """

    __slots__ = ("atoms", "_hash", "_text")

    def __init__(self, atoms: Iterable[Atom] = ()):
        atoms = _normalise(atoms)
        object.__setattr__(self, "atoms", atoms)
        # state merging hashes every value of every state: hash once
        object.__setattr__(self, "_hash", hash(atoms))
        # normalising merged adjacent literals, so a concrete value is at
        # most one literal atom; every state asks, so answer once
        text: Optional[str] = None
        if not atoms:
            text = ""
        elif len(atoms) == 1 and isinstance(atoms[0], LitAtom):
            text = atoms[0].text
        object.__setattr__(self, "_text", text)

    def __setattr__(self, name, value):
        raise AttributeError("SymString is immutable")

    def __reduce__(self):
        return SymString, (self.atoms,)

    # -- constructors --------------------------------------------------------

    @classmethod
    def lit(cls, text: str) -> "SymString":
        return cls([LitAtom(text)]) if text else _EMPTY

    @classmethod
    def var(cls, vid: int) -> "SymString":
        return cls([VarAtom(vid)])

    @classmethod
    def empty(cls) -> "SymString":
        return _EMPTY

    # -- structure -------------------------------------------------------------

    def __add__(self, other: "SymString") -> "SymString":
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return SymString(self.atoms + other.atoms)

    def is_concrete(self) -> bool:
        return self._text is not None

    def concrete_value(self) -> Optional[str]:
        return self._text

    def variables(self) -> List[int]:
        return [a.vid for a in self.atoms if isinstance(a, VarAtom)]

    def has_glob(self) -> bool:
        return any(isinstance(a, GlobAtom) for a in self.atoms)

    def without_globs(self) -> "SymString":
        """The value with trailing glob atoms removed (e.g. the directory
        part of ``"$X"/*``)."""
        atoms = list(self.atoms)
        while atoms and isinstance(atoms[-1], GlobAtom):
            atoms.pop()
        return SymString(atoms)

    def single_var(self) -> Optional[int]:
        """The variable id when this value is exactly one variable."""
        if len(self.atoms) == 1 and isinstance(self.atoms[0], VarAtom):
            return self.atoms[0].vid
        return None

    # -- semantics ----------------------------------------------------------------

    def to_regex(self, store: ConstraintStore) -> Regex:
        """The language of possible concrete values (a glob contributes
        the language of the names it may expand to).

        Pathname expansion only ever produces *actual directory
        entries*: a ``*``/``?`` at the start of a path component cannot
        match the empty name and does not match a leading dot, so
        ``$X/*`` denotes ``$X/<entry>`` — never bare ``$X/`` and never
        ``$X/.hidden`` or ``$X/..``.  Mid-component globs (``foo*``)
        keep the permissive language (``foo*`` matches ``foo``, and dots
        are only special at the component start).
        """
        result: Optional[Regex] = None
        for index, atom in enumerate(self.atoms):
            if isinstance(atom, LitAtom):
                piece = Regex.literal(atom.text)
            elif isinstance(atom, GlobAtom):
                prev = self.atoms[index - 1] if index else None
                component_start = prev is None or (
                    isinstance(prev, LitAtom) and prev.text.endswith("/")
                )
                if atom.char == "*":
                    pattern = "[^/.\\n][^/\\n]*" if component_start else "[^/\\n]*"
                else:
                    pattern = "[^/.\\n]" if component_start else "[^/\\n]"
                piece = Regex.constant(pattern)
            else:
                piece = store.constraint(atom.vid)
            result = piece if result is None else result + piece
        if result is None:
            return Regex.literal("")
        return result

    def could_equal(self, text: str, store: ConstraintStore) -> bool:
        """May this value equal ``text`` on some feasible assignment?"""
        return self.to_regex(store).matches(text)

    def must_equal(self, text: str, store: ConstraintStore) -> bool:
        value = self.concrete_value()
        if value is not None:
            return value == text
        # A symbolic value must equal `text` when its language is {text}.
        lang = self.to_regex(store)
        return lang == Regex.literal(text)

    def could_be_empty(self, store: ConstraintStore) -> bool:
        return self.could_equal("", store)

    def could_match(self, language: Regex, store: ConstraintStore) -> bool:
        return not self.to_regex(store).disjoint(language)

    def must_match(self, language: Regex, store: ConstraintStore) -> bool:
        return self.to_regex(store) <= language

    def describe(self, store: ConstraintStore) -> str:
        """Human-readable rendering for diagnostics."""
        chunks = []
        for atom in self.atoms:
            if isinstance(atom, LitAtom):
                chunks.append(atom.text)
            elif isinstance(atom, GlobAtom):
                chunks.append(atom.char)
            else:
                chunks.append(f"⟨{store.label(atom.vid)}⟩")
        return "".join(chunks) or "''"

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, SymString) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SymString({list(self.atoms)!r})"


def _normalise(atoms: Iterable[Atom]) -> Tuple[Atom, ...]:
    """Drop empty literals, merge adjacent literals."""
    result: List[Atom] = []
    for atom in atoms:
        if isinstance(atom, LitAtom):
            if not atom.text:
                continue
            if result and isinstance(result[-1], LitAtom):
                result[-1] = LitAtom(result[-1].text + atom.text)
                continue
        result.append(atom)
    return tuple(result)


#: the empty value, shared: values are immutable
_EMPTY = SymString()
