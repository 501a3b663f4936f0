"""The discovery-language grammar of paper §IV-C, as an executable DSL.

The paper defines::

    expression ::= seeker(Q) | combiner(expression(,expression)+)
    seeker     ::= KW | SC | MC | C
    combiner   ::= ∩ | ∪ | \\ | Counter
    Q          ::= keyword | table

This module parses that grammar (with both the set symbols and spelled
names) into a :class:`~.plan.Plan`. Query inputs are bound by name::

    plan = parse_plan(
        "∩(\\\\(MC($pos), MC($neg)), SC($departments))",
        bindings={
            "pos": [("hr", "firenze")],
            "neg": [("it", "tom riddle")],
            "departments": ["hr", "it", "finance"],
        },
        k=10,
    )
    result = blend.run(plan)

Every sub-expression may carry a ``k=<int>`` argument overriding the
default, e.g. ``SC($departments, k=50)``.

Seekers are resolved through :data:`SEEKER_REGISTRY` -- a by-name table
of :class:`SeekerSpec` entries -- so new modalities register with
:func:`register_seeker` instead of patching the parser. Registered specs
may declare extra keyword arguments (``$ref``, int or float), which is
how the mixed semantic predicates parse::

    SS($topic, k=20)                       # pure semantic search
    HY($cities, about=$topic, alpha=0.5)   # joinable on X AND about Y
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from ..errors import PlanError
from .combiners import Combiners
from .hybrid import HybridSeeker
from .plan import Plan
from .seekers import Seekers
from .semantic import SemanticSeeker


@dataclass(frozen=True)
class SeekerSpec:
    """One registered seeker modality: how a grammar name becomes an
    operator. ``builder(query, k=..., **keywords)`` receives the bound
    ``$ref`` query plus any declared keyword arguments."""

    name: str
    builder: Callable[..., Any]
    keywords: tuple[str, ...] = ()


SEEKER_REGISTRY: dict[str, SeekerSpec] = {}


def register_seeker(
    name: str,
    builder: Callable[..., Any],
    keywords: tuple[str, ...] = (),
) -> SeekerSpec:
    """Register a seeker modality under *name* (grammar v2). Future
    modalities plug in here without touching the tokenizer or parser."""
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise PlanError(f"seeker name {name!r} is not a grammar identifier")
    if name in SEEKER_REGISTRY:
        raise PlanError(f"seeker {name!r} is already registered")
    spec = SeekerSpec(name=name, builder=builder, keywords=tuple(keywords))
    SEEKER_REGISTRY[name] = spec
    return spec


def _build_correlation(query: Any, k: int) -> Any:
    try:
        keys, targets = query
    except (TypeError, ValueError):
        raise PlanError(
            "the C seeker's binding must be a (keys, targets) pair"
        ) from None
    return Seekers.Correlation(keys, targets, k=k)


register_seeker("KW", lambda query, k: Seekers.KW(query, k=k))
register_seeker("SC", lambda query, k: Seekers.SC(query, k=k))
register_seeker("MC", lambda query, k: Seekers.MC(query, k=k))
register_seeker("C", _build_correlation)
register_seeker("SS", lambda query, k: SemanticSeeker(query, k=k))
register_seeker(
    "HY",
    lambda query, k, about=None, alpha=0.5: HybridSeeker(
        query, about=about, k=k, alpha=float(alpha)
    ),
    keywords=("about", "alpha"),
)

_COMBINER_ALIASES = {
    "∩": "Intersect",
    "∪": "Union",
    "\\": "Difference",
    "intersect": "Intersect",
    "union": "Union",
    "difference": "Difference",
    "counter": "Counter",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "symbol" | "ref" | "int" | "float" | "eof"
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),=":
            tokens.append(_Token("symbol", ch, i))
            i += 1
            continue
        if ch in "∩∪\\":
            tokens.append(_Token("name", ch, i))
            i += 1
            continue
        if ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1:
                raise PlanError(f"'$' must introduce a binding name (position {i})")
            tokens.append(_Token("ref", text[i + 1 : j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(_Token("float", text[i:j], i))
            else:
                tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise PlanError(f"unexpected character {ch!r} in plan expression (position {i})")
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        bindings: Mapping[str, Any],
        default_k: int,
    ) -> None:
        self._tokens = tokens
        self._pos = 0
        self._bindings = bindings
        self._default_k = default_k
        self._plan = Plan()
        self._counter = 0

    def parse(self) -> Plan:
        self._parse_expression()  # builds self._plan as it recurses
        if self._peek().kind != "eof":
            token = self._peek()
            raise PlanError(
                f"unexpected trailing input {token.value!r} (position {token.position})"
            )
        return self._plan

    # -- helpers -----------------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _expect_symbol(self, symbol: str) -> None:
        token = self._advance()
        if token.kind != "symbol" or token.value != symbol:
            raise PlanError(
                f"expected {symbol!r}, found {token.value!r} (position {token.position})"
            )

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # -- grammar ------------------------------------------------------------------

    def _parse_expression(self) -> str:
        """Parse one expression; returns the plan-node name it defines."""
        token = self._advance()
        if token.kind != "name":
            raise PlanError(
                f"expected a seeker or combiner, found {token.value!r} "
                f"(position {token.position})"
            )
        name = token.value
        spec = SEEKER_REGISTRY.get(name)
        if spec is not None:
            return self._parse_seeker(spec)
        canonical = _COMBINER_ALIASES.get(name) or _COMBINER_ALIASES.get(name.lower())
        if canonical is not None:
            return self._parse_combiner(canonical)
        raise PlanError(
            f"unknown operator {name!r} (position {token.position}); "
            f"registered seekers are {sorted(SEEKER_REGISTRY)}, "
            "combiners are Intersect/Union/Difference/Counter (or ∩ ∪ \\)"
        )

    def _parse_seeker(self, spec: SeekerSpec) -> str:
        self._expect_symbol("(")
        token = self._advance()
        if token.kind != "ref":
            raise PlanError(
                f"seeker {spec.name} expects a $binding argument "
                f"(position {token.position})"
            )
        if token.value not in self._bindings:
            raise PlanError(
                f"unbound plan input: ${token.value} (position {token.position}); "
                f"bound names are {sorted(self._bindings)}"
            )
        query = self._bindings[token.value]
        k = self._default_k
        keywords: dict[str, Any] = {}
        while True:
            token = self._peek()
            if not (token.kind == "symbol" and token.value == ","):
                break
            self._advance()
            name_token = self._advance()
            if name_token.kind != "name":
                raise PlanError(
                    f"expected <name>=<value> argument, found {name_token.value!r} "
                    f"(position {name_token.position})"
                )
            if name_token.value != "k" and name_token.value not in spec.keywords:
                accepted = ["k", *spec.keywords]
                raise PlanError(
                    f"seeker {spec.name} does not accept argument "
                    f"{name_token.value!r} (position {name_token.position}); "
                    f"accepted arguments are {accepted}"
                )
            self._expect_symbol("=")
            if name_token.value == "k":
                value = self._advance()
                if value.kind != "int":
                    raise PlanError(f"k must be an integer (position {value.position})")
                k = int(value.value)
            else:
                keywords[name_token.value] = self._parse_argument_value()
        self._expect_symbol(")")
        operator = spec.builder(query, k=k, **keywords)
        node_name = self._fresh_name(spec.name.lower())
        self._plan.add(node_name, operator)
        return node_name

    def _parse_argument_value(self) -> Any:
        """A seeker keyword value: ``$ref`` (bound input), int or float."""
        token = self._advance()
        if token.kind == "ref":
            if token.value not in self._bindings:
                raise PlanError(
                    f"unbound plan input: ${token.value} "
                    f"(position {token.position}); "
                    f"bound names are {sorted(self._bindings)}"
                )
            return self._bindings[token.value]
        if token.kind == "int":
            return int(token.value)
        if token.kind == "float":
            return float(token.value)
        raise PlanError(
            f"argument values are $refs or numbers; "
            f"found {token.value!r} (position {token.position})"
        )

    def _parse_combiner(self, kind: str) -> str:
        self._expect_symbol("(")
        inputs = [self._parse_expression()]
        k: Optional[int] = None
        while True:
            token = self._peek()
            if token.kind == "symbol" and token.value == ",":
                self._advance()
                # Either another sub-expression or a trailing k=...
                if (
                    self._peek().kind == "name"
                    and self._peek().value == "k"
                    and self._tokens[self._pos + 1].value == "="
                ):
                    k = self._parse_k_value()
                    break
                inputs.append(self._parse_expression())
                continue
            break
        self._expect_symbol(")")
        combiner_class = getattr(Combiners, kind)
        node_name = self._fresh_name(kind.lower())
        self._plan.add(node_name, combiner_class(k=k if k is not None else self._default_k), inputs)
        return node_name

    def _parse_k_value(self) -> int:
        token = self._advance()
        if token.kind != "name" or token.value != "k":
            raise PlanError(f"expected k=<int> (position {token.position})")
        self._expect_symbol("=")
        value = self._advance()
        if value.kind != "int":
            raise PlanError(f"k must be an integer (position {value.position})")
        return int(value.value)


def parse_plan(
    expression: str,
    bindings: Mapping[str, Any],
    k: int = 10,
) -> Plan:
    """Parse a §IV-C grammar expression into an executable :class:`Plan`.

    ``bindings`` maps ``$name`` references to query inputs: a value list
    for SC/KW, a tuple list for MC, and a ``(keys, targets)`` pair for C.
    ``k`` is the default top-k for every operator without an explicit
    ``k=<int>`` argument.
    """
    if not expression.strip():
        raise PlanError("empty plan expression")
    parser = _Parser(_tokenize(expression), bindings, k)
    return parser.parse()
