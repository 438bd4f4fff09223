"""repro — ahead-of-time, semantics-driven static analysis for shell programs.

A reproduction of the system sketched in *"From Ahead-of- to Just-in-Time
and Back Again: Static Analysis for Unix Shell Programs"* (HotOS '25):

- :mod:`repro.shell` — POSIX shell lexer, parser, and AST
- :mod:`repro.rlang` — regular-language engine (the constraint formalism)
- :mod:`repro.rtypes` — regular types for stream contents, incl. polymorphism
- :mod:`repro.symstr` — symbolic string values for parameter expansion
- :mod:`repro.fs` — symbolic file-system model with node identity
- :mod:`repro.specs` — Hoare-triple command specifications + corpus
- :mod:`repro.miner` — documentation mining with instrumented probing
- :mod:`repro.symex` — symbolic execution of the shell semantics
- :mod:`repro.checkers` — incorrectness criteria catalog
- :mod:`repro.monitor` — runtime stream monitoring and `verify` policies
- :mod:`repro.lint` — syntactic baseline linter (ShellCheck-class)
- :mod:`repro.analysis` — the end-to-end analyzer
"""

from .lazy import exports

__version__ = "0.1.0"

__all__ = ["analyze", "Report", "__version__"]

#: lazily exported name -> the submodule defining it (lazy imports keep
#: ``import repro`` cheap and avoid import cycles)
_LAZY = dict.fromkeys(("analyze", "Report"), "analysis")
__getattr__ = exports(globals(), _LAZY)
