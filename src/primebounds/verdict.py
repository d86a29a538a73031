"""The one result type of every check in the package.

A check decides ``passed`` and reports the facts it decided it from, in a
fixed order: the margins of a stepping window, the last violation of a
scan, the empirical sum and bound of the zero-sum check, and so on.  Facts
read as attributes (``v.min_margin``), and ``to_dict`` gives them, with
``passed`` last, as the JSON-ready mapping the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpf

__all__ = ["Verdict"]


@dataclass(frozen=True, init=False)
class Verdict:
    passed: bool
    facts: dict

    def __init__(self, passed: bool, /, **facts):
        object.__setattr__(self, "passed", bool(passed))
        object.__setattr__(self, "facts", facts)

    def __getattr__(self, name: str):
        # reached only for names that are not fields; going through __dict__
        # keeps copy and pickle, which probe a half-built instance, from recursing
        try:
            return self.__dict__["facts"][name]
        except KeyError:
            raise AttributeError(f"verdict has no fact {name!r}") from None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        """The facts in order, mpf values as float, then ``passed``."""
        out = {k: float(v) if isinstance(v, mpf) else v for k, v in self.facts.items()}
        out["passed"] = self.passed
        return out
