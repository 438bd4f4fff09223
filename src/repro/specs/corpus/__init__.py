"""The bundled specification corpus (~40 POSIX utilities).

Each spec is built by the function ``<name>_spec`` of one module here.
:data:`FACTORIES` maps each name to a factory that imports that module
on first use, so the default registry builds, and loads, only the specs
a script looks up."""

from functools import partial
from importlib import import_module

#: spec name -> the module whose ``<name>_spec`` builds it, in registration order
MODULES = {
    **dict.fromkeys(("rm", "mkdir", "rmdir", "touch", "cp", "mv", "ln", "chmod"), "fileops"),
    **dict.fromkeys(("cat", "grep", "sed", "sort", "cut", "head", "tail", "wc", "uniq",
                    "tr", "xargs", "tee"), "streams"),
    **dict.fromkeys(("lsb_release", "uname", "echo", "printf", "true", "false", "sleep",
                    "ls", "realpath", "readlink", "dirname", "basename", "pwd", "date",
                    "curl", "wget", "sh", "find", "mktemp", "trap", "test"), "sysinfo"),
}


def build(name: str):
    """The bundled spec ``name``, built now."""
    return getattr(import_module(f".{MODULES[name]}", __name__), f"{name}_spec")()


#: spec name -> its factory
FACTORIES = {name: partial(build, name) for name in MODULES}


def all_specs():
    """Every bundled spec, built now."""
    return [build(name) for name in MODULES]


__all__ = ["FACTORIES", "MODULES", "all_specs", "build"]
