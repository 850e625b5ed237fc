"""Abstract syntax trees for regex formulas (RGX).

The grammar follows the paper (Section 2):

    γ := ε | a | x{γ} | γ · γ | γ ∨ γ | γ*

extended with the standard convenience forms ``γ+``, ``γ?``, the wildcard
``.`` and character classes ``[a-z]`` / ``[^a-z]``, which are syntactic
sugar over finite unions once an alphabet is fixed.

Nodes are immutable and hashable.  ``str(node)`` renders the concrete
syntax accepted by :func:`repro.regex.parser.parse_regex`.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.errors import CompilationError

__all__ = [
    "RegexNode",
    "Epsilon",
    "Literal",
    "AnyChar",
    "CharClass",
    "Capture",
    "Concat",
    "Union",
    "Star",
    "Plus",
    "Optional",
    "concat",
    "union",
    "literal_string",
]

_SPECIAL_CHARACTERS = set("\\.|*+?()[]{}")


def _escape(character: str) -> str:
    """Escape a character for the concrete regex syntax."""
    if character in _SPECIAL_CHARACTERS:
        return "\\" + character
    if character == "\n":
        return "\\n"
    if character == "\t":
        return "\\t"
    if character == "\r":
        return "\\r"
    return character


class RegexNode:
    """Base class of all regex formula AST nodes."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        """``var(γ)``: the capture variables occurring in the formula."""
        return frozenset(self._collect_variables())

    def _collect_variables(self) -> Iterator[str]:
        for child in self.children():
            yield from child._collect_variables()

    def children(self) -> tuple["RegexNode", ...]:
        """The direct sub-formulas."""
        return ()

    def literals(self) -> frozenset[str]:
        """All concrete characters mentioned by the formula."""
        found: set[str] = set()
        for node in self.walk():
            if isinstance(node, Literal):
                found.add(node.symbol)
            elif isinstance(node, CharClass):
                found.update(node.characters)
        return frozenset(found)

    def walk(self) -> Iterator["RegexNode"]:
        """Pre-order traversal of the AST."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """``|γ|``: the number of AST nodes."""
        return sum(1 for _ in self.walk())

    def needs_alphabet(self) -> bool:
        """Whether the formula reads characters it does not mention.

        True when the formula contains a wildcard or a negated character
        class: their expansion depends on the alphabet, and the spanner
        pipeline compiles them over the literals plus the OTHER letter.
        """
        return any(
            isinstance(node, AnyChar) or (isinstance(node, CharClass) and node.negated)
            for node in self.walk()
        )

    # Subclasses override __str__, __eq__, __hash__, __repr__.

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError

    def __hash__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError


class Epsilon(RegexNode):
    """The empty-word formula ``ε``."""

    __slots__ = ()

    def __str__(self) -> str:
        return "()"

    def __repr__(self) -> str:
        return "Epsilon()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Epsilon)

    def __hash__(self) -> int:
        return hash("Epsilon")


class Literal(RegexNode):
    """A single concrete character."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: str) -> None:
        if not isinstance(symbol, str) or len(symbol) != 1:
            raise CompilationError(f"Literal expects a single character, got {symbol!r}")
        self.symbol = symbol

    def __str__(self) -> str:
        return _escape(self.symbol)

    def __repr__(self) -> str:
        return f"Literal({self.symbol!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.symbol == self.symbol

    def __hash__(self) -> int:
        return hash(("Literal", self.symbol))


class AnyChar(RegexNode):
    """The wildcard ``.`` — any single character of the alphabet."""

    __slots__ = ()

    def __str__(self) -> str:
        return "."

    def __repr__(self) -> str:
        return "AnyChar()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AnyChar)

    def __hash__(self) -> int:
        return hash("AnyChar")


class CharClass(RegexNode):
    """A character class ``[abc]`` or its complement ``[^abc]``."""

    __slots__ = ("characters", "negated")

    def __init__(self, characters, negated: bool = False) -> None:
        characters = frozenset(characters)
        for character in characters:
            if not isinstance(character, str) or len(character) != 1:
                raise CompilationError(f"character classes hold single characters, got {character!r}")
        if not characters and not negated:
            raise CompilationError("a positive character class cannot be empty")
        self.characters = characters
        self.negated = bool(negated)

    def expand(self, alphabet) -> frozenset[str]:
        """The concrete characters matched, relative to *alphabet*."""
        alphabet = frozenset(alphabet)
        if self.negated:
            return alphabet - self.characters
        return self.characters

    def __str__(self) -> str:
        prefix = "^" if self.negated else ""
        body = "".join(
            c if c not in "]^-\\" else "\\" + c for c in sorted(self.characters)
        )
        return f"[{prefix}{body}]"

    def __repr__(self) -> str:
        return f"CharClass({sorted(self.characters)!r}, negated={self.negated})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CharClass)
            and other.characters == self.characters
            and other.negated == self.negated
        )

    def __hash__(self) -> int:
        return hash(("CharClass", self.characters, self.negated))


class Capture(RegexNode):
    """A variable capture ``x{γ}``."""

    __slots__ = ("variable", "inner")

    def __init__(self, variable: str, inner: RegexNode) -> None:
        if not isinstance(variable, str) or not variable:
            raise CompilationError(f"capture variables must be non-empty strings, got {variable!r}")
        self.variable = variable
        self.inner = inner

    def children(self) -> tuple[RegexNode, ...]:
        return (self.inner,)

    def _collect_variables(self) -> Iterator[str]:
        yield self.variable
        yield from self.inner._collect_variables()

    def __str__(self) -> str:
        return f"{self.variable}{{{self.inner}}}"

    def __repr__(self) -> str:
        return f"Capture({self.variable!r}, {self.inner!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Capture)
            and other.variable == self.variable
            and other.inner == self.inner
        )

    def __hash__(self) -> int:
        return hash(("Capture", self.variable, self.inner))


class Concat(RegexNode):
    """Concatenation ``γ1 · γ2 · … · γk``."""

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        parts = tuple(parts)
        if len(parts) < 2:
            raise CompilationError("Concat requires at least two sub-formulas")
        self.parts = parts

    def children(self) -> tuple[RegexNode, ...]:
        return self.parts

    def __str__(self) -> str:
        rendered = []
        for part in self.parts:
            text = str(part)
            if isinstance(part, Union):
                text = f"({text})"
            rendered.append(text)
        return "".join(rendered)

    def __repr__(self) -> str:
        return f"Concat({list(self.parts)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Concat) and other.parts == self.parts

    def __hash__(self) -> int:
        return hash(("Concat", self.parts))


class Union(RegexNode):
    """Disjunction ``γ1 ∨ γ2 ∨ … ∨ γk``."""

    __slots__ = ("parts",)

    def __init__(self, parts) -> None:
        parts = tuple(parts)
        if len(parts) < 2:
            raise CompilationError("Union requires at least two sub-formulas")
        self.parts = parts

    def children(self) -> tuple[RegexNode, ...]:
        return self.parts

    def __str__(self) -> str:
        return "|".join(str(part) for part in self.parts)

    def __repr__(self) -> str:
        return f"Union({list(self.parts)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Union) and other.parts == self.parts

    def __hash__(self) -> int:
        return hash(("Union", self.parts))


class _Postfix(RegexNode):
    """Shared implementation of the postfix operators ``*``, ``+`` and ``?``."""

    __slots__ = ("inner",)
    _symbol = "?"

    def __init__(self, inner: RegexNode) -> None:
        self.inner = inner

    def children(self) -> tuple[RegexNode, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        text = str(self.inner)
        if isinstance(self.inner, (Concat, Union)):
            text = f"({text})"
        return text + self._symbol

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.inner == self.inner

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.inner))


class Star(_Postfix):
    """Kleene star ``γ*``."""

    __slots__ = ()
    _symbol = "*"


class Plus(_Postfix):
    """One-or-more repetition ``γ+`` (sugar for ``γ · γ*``)."""

    __slots__ = ()
    _symbol = "+"


class Optional(_Postfix):
    """Zero-or-one repetition ``γ?`` (sugar for ``γ ∨ ε``)."""

    __slots__ = ()
    _symbol = "?"


# ---------------------------------------------------------------------- #
# Convenience constructors
# ---------------------------------------------------------------------- #


def concat(*parts: RegexNode) -> RegexNode:
    """Concatenate formulas, flattening nested concatenations."""
    flattened: list[RegexNode] = []
    for part in parts:
        if isinstance(part, Concat):
            flattened.extend(part.parts)
        elif isinstance(part, Epsilon):
            continue
        else:
            flattened.append(part)
    if not flattened:
        return Epsilon()
    if len(flattened) == 1:
        return flattened[0]
    return Concat(flattened)


def union(*parts: RegexNode) -> RegexNode:
    """Build a disjunction, flattening nested unions."""
    flattened: list[RegexNode] = []
    for part in parts:
        if isinstance(part, Union):
            flattened.extend(part.parts)
        else:
            flattened.append(part)
    if not flattened:
        raise CompilationError("union of zero formulas is undefined")
    if len(flattened) == 1:
        return flattened[0]
    return Union(flattened)


def literal_string(text: str) -> RegexNode:
    """A formula matching exactly *text*."""
    if not text:
        return Epsilon()
    return concat(*(Literal(character) for character in text))
