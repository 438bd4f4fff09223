"""The specification registry.

Specs enter the registry from two provenances — the hand-written corpus
(:mod:`repro.specs.corpus`) and the miner (:mod:`repro.miner`) — and the
analyzer consumes them uniformly (DESIGN.md decision 4).

The bundled corpus enters as a table from name to factory: a spec is
built on its first :meth:`SpecRegistry.get`, so a script that names five
commands builds five specs, not forty (DESIGN.md, "What a one-shot
process loads")."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..budget import use_budget
from ..obs import get_recorder
from .ir import CommandSpec


class SpecRegistry:
    def __init__(self, factories: Optional[Dict[str, Callable[[], CommandSpec]]] = None):
        self._specs: Dict[str, CommandSpec] = {}
        #: name -> the factory of a spec not built yet
        self._factories = dict(factories or {})

    def register(self, spec: CommandSpec, replace: bool = True) -> None:
        if not replace and spec.name in self:
            raise ValueError(f"spec for {spec.name!r} already registered")
        self._specs[spec.name] = spec
        self._factories.pop(spec.name, None)

    def get(self, name: str) -> Optional[CommandSpec]:
        spec = self._specs.get(name)
        if spec is None:
            factory = self._factories.get(name)
            # a spec is stored before its factory leaves the table, so a
            # factory gone since the first read means the spec is stored
            spec = self._build(name, factory) if factory else self._specs.get(name)
        get_recorder().count(
            "specs.lookup_hits" if spec is not None else "specs.lookup_misses"
        )
        return spec

    def _build(self, name: str, factory: Callable[[], CommandSpec]) -> CommandSpec:
        """Build a tabled spec.  It belongs to the analyzer, not to the
        script whose lookup asked for it, so no script's budget pays for
        it.  Two threads may both build it; the first stored wins."""
        with use_budget(None):
            built = factory()
        spec = self._specs.setdefault(name, built)
        self._factories.pop(name, None)
        return spec

    def build_all(self) -> None:
        """Build every spec that is still only in the table."""
        for name, factory in list(self._factories.items()):
            self._build(name, factory)

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._factories

    def names(self) -> List[str]:
        return sorted({*self._specs, *self._factories})

    def __len__(self) -> int:
        return len(self.names())


_default: Optional[SpecRegistry] = None


def default_registry() -> SpecRegistry:
    """The registry preloaded with the bundled corpus, each spec built on
    its first lookup."""
    global _default
    if _default is None:
        from .corpus import FACTORIES

        _default = SpecRegistry(FACTORIES)
    return _default
