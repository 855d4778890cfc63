"""Complex Document Editing (CDE) — paper Section 4.3.

A CDE-expression builds a new document out of the documents of an
SLP-represented database, using the algebra

* ``concat(D, D′)``
* ``extract(D, i, j)`` — the factor from position i to j (1-based, inclusive)
* ``delete(D, i, j)``
* ``insert(D, D′, k)`` — D′ begins at position k of the result
* ``copy(D, i, j, k)`` — extract then insert into the same document

(the last three are definable from the first two, and are implemented that
way).  Two semantics are provided:

* :func:`eval_cde` — the specification: plain-string evaluation;
* :func:`apply_cde` — evaluation *directly on the strongly balanced SLP*:
  every operation reduces to balanced splits and concats, costing
  ``O(log d)`` fresh nodes per operation, so a whole expression φ costs
  ``O(|φ| · log d)`` — the paper's headline bound for [40].

:meth:`Editor.apply` additionally stores the result as a new database
document and re-uses the incremental matrices of the compressed-evaluation
machinery, so the updated document can be queried immediately without
re-preprocessing (experiment C4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CDEError
from repro.slp.balance import (
    assert_strongly_balanced,
    concat_balanced,
    rebalance,
    split_balanced,
)
from repro.slp.slp import SLP, DocumentDatabase

__all__ = [
    "CDE",
    "Doc",
    "Concat",
    "Extract",
    "Delete",
    "Insert",
    "Copy",
    "eval_cde",
    "apply_cde",
    "format_cde",
    "parse_cde",
    "Editor",
]


class CDE:
    """Base class of CDE-expression nodes."""

    def size(self) -> int:
        """The size |φ| of the expression (number of operator nodes)."""
        return 1 + sum(child.size() for child in self._children())

    def _children(self) -> tuple["CDE", ...]:
        return ()


@dataclass(frozen=True)
class Doc(CDE):
    """A database document, by name."""

    name: str


@dataclass(frozen=True)
class Concat(CDE):
    left: CDE
    right: CDE

    def _children(self) -> tuple[CDE, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Extract(CDE):
    """``extract(D, i, j)``: positions i..j inclusive, 1-based, i ≤ j."""

    inner: CDE
    i: int
    j: int

    def _children(self) -> tuple[CDE, ...]:
        return (self.inner,)


@dataclass(frozen=True)
class Delete(CDE):
    """``delete(D, i, j)``: remove positions i..j inclusive."""

    inner: CDE
    i: int
    j: int

    def _children(self) -> tuple[CDE, ...]:
        return (self.inner,)


@dataclass(frozen=True)
class Insert(CDE):
    """``insert(D, D′, k)``: D′ begins at position k (1 ≤ k ≤ |D| + 1)."""

    target: CDE
    source: CDE
    k: int

    def _children(self) -> tuple[CDE, ...]:
        return (self.target, self.source)


@dataclass(frozen=True)
class Copy(CDE):
    """``copy(D, i, j, k)``: paste the factor i..j at position k."""

    inner: CDE
    i: int
    j: int
    k: int

    def _children(self) -> tuple[CDE, ...]:
        return (self.inner,)


def _check_range(i: int, j: int, length: int) -> None:
    if not 1 <= i <= j <= length:
        raise CDEError(f"factor range [{i}, {j}] invalid for length {length}")


def _check_insert(k: int, length: int) -> None:
    if not 1 <= k <= length + 1:
        raise CDEError(f"insert position {k} invalid for length {length}")


def eval_cde(expr: CDE, documents: dict[str, str]) -> str:
    """The string semantics ``eval(φ)`` (the specification)."""
    if isinstance(expr, Doc):
        try:
            return documents[expr.name]
        except KeyError:
            raise CDEError(f"no document named {expr.name!r}") from None
    if isinstance(expr, Concat):
        return eval_cde(expr.left, documents) + eval_cde(expr.right, documents)
    if isinstance(expr, Extract):
        doc = eval_cde(expr.inner, documents)
        _check_range(expr.i, expr.j, len(doc))
        return doc[expr.i - 1: expr.j]
    if isinstance(expr, Delete):
        doc = eval_cde(expr.inner, documents)
        _check_range(expr.i, expr.j, len(doc))
        return doc[: expr.i - 1] + doc[expr.j:]
    if isinstance(expr, Insert):
        doc = eval_cde(expr.target, documents)
        other = eval_cde(expr.source, documents)
        _check_insert(expr.k, len(doc))
        return doc[: expr.k - 1] + other + doc[expr.k - 1:]
    if isinstance(expr, Copy):
        doc = eval_cde(expr.inner, documents)
        _check_range(expr.i, expr.j, len(doc))
        _check_insert(expr.k, len(doc))
        factor = doc[expr.i - 1: expr.j]
        return doc[: expr.k - 1] + factor + doc[expr.k - 1:]
    raise CDEError(f"unknown CDE node {expr!r}")


def apply_cde(expr: CDE, db: DocumentDatabase, budget=None) -> int:
    """Evaluate φ directly on the strongly balanced SLP of *db*.

    Returns the node deriving ``eval(φ)``; the database is untouched except
    for fresh nodes added to the arena.  Every operation costs O(log d)
    fresh nodes (d as in the paper's bound).  Raises :class:`CDEError` if
    the expression evaluates to the empty document (SLPs derive non-empty
    strings) or on out-of-range positions.

    An optional :class:`~repro.util.Budget` is charged one step per
    operator and guards every intermediate result's *derived length*
    against ``max_bytes`` — editing never decompresses, but repeated
    ``concat``/``copy`` can grow a document exponentially, and the guard
    stops such a bomb at the first oversized intermediate.
    """
    slp = db.slp
    node = _apply(expr, db, slp, budget)
    if node is None:
        raise CDEError("CDE expression evaluates to the empty document")
    return node


def _apply(expr: CDE, db: DocumentDatabase, slp: SLP, budget=None) -> int | None:
    if budget is not None:
        budget.step()
    result = _apply_op(expr, db, slp, budget)
    if budget is not None and result is not None:
        budget.charge_bytes(slp.length(result), what="CDE intermediate result")
    return result


def _apply_op(expr: CDE, db: DocumentDatabase, slp: SLP, budget) -> int | None:
    if isinstance(expr, Doc):
        return db.node(expr.name)
    if isinstance(expr, Concat):
        return concat_balanced(
            slp, _apply(expr.left, db, slp, budget), _apply(expr.right, db, slp, budget)
        )
    if isinstance(expr, Extract):
        inner = _require(_apply(expr.inner, db, slp, budget))
        _check_range(expr.i, expr.j, slp.length(inner))
        _, tail = split_balanced(slp, inner, expr.i - 1)
        middle, _ = split_balanced(slp, _require(tail), expr.j - expr.i + 1)
        return middle
    if isinstance(expr, Delete):
        inner = _require(_apply(expr.inner, db, slp, budget))
        _check_range(expr.i, expr.j, slp.length(inner))
        prefix, tail = split_balanced(slp, inner, expr.i - 1)
        _, suffix = split_balanced(slp, _require(tail), expr.j - expr.i + 1)
        return concat_balanced(slp, prefix, suffix)
    if isinstance(expr, Insert):
        target = _require(_apply(expr.target, db, slp, budget))
        source = _apply(expr.source, db, slp, budget)
        _check_insert(expr.k, slp.length(target))
        prefix, suffix = split_balanced(slp, target, expr.k - 1)
        return concat_balanced(slp, concat_balanced(slp, prefix, source), suffix)
    if isinstance(expr, Copy):
        inner = _require(_apply(expr.inner, db, slp, budget))
        _check_range(expr.i, expr.j, slp.length(inner))
        _check_insert(expr.k, slp.length(inner))
        _, tail = split_balanced(slp, inner, expr.i - 1)
        factor, _ = split_balanced(slp, _require(tail), expr.j - expr.i + 1)
        prefix, suffix = split_balanced(slp, inner, expr.k - 1)
        return concat_balanced(slp, concat_balanced(slp, prefix, factor), suffix)
    raise CDEError(f"unknown CDE node {expr!r}")


def _require(node: int | None) -> int:
    if node is None:
        raise CDEError("intermediate CDE result is the empty document")
    return node


# ----------------------------------------------------------------------
# textual form (used by the SpannerDB edit journal and the CLI)
# ----------------------------------------------------------------------

_ESCAPES = {"\\": "\\\\", "\n": "\\n", "\r": "\\r", " ": "\\s",
            "(": "\\(", ")": "\\)", ",": "\\,"}
_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r", "s": " ",
              "(": "(", ")": ")", ",": ","}
_MAX_PARSE_DEPTH = 400


def _escape_name(name: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in name)


def format_cde(expr: CDE) -> str:
    """Render a CDE-expression in its canonical textual form, e.g.
    ``delete(concat(doc(a),doc(b)),2,5)``.

    Document names are backslash-escaped (``\\(``, ``\\)``, ``\\,``,
    ``\\s`` for space, ``\\n``, ``\\r``), so any name round-trips through
    :func:`parse_cde`: ``parse_cde(format_cde(e)) == e``.
    """
    if isinstance(expr, Doc):
        return f"doc({_escape_name(expr.name)})"
    if isinstance(expr, Concat):
        return f"concat({format_cde(expr.left)},{format_cde(expr.right)})"
    if isinstance(expr, Extract):
        return f"extract({format_cde(expr.inner)},{expr.i},{expr.j})"
    if isinstance(expr, Delete):
        return f"delete({format_cde(expr.inner)},{expr.i},{expr.j})"
    if isinstance(expr, Insert):
        return f"insert({format_cde(expr.target)},{format_cde(expr.source)},{expr.k})"
    if isinstance(expr, Copy):
        return f"copy({format_cde(expr.inner)},{expr.i},{expr.j},{expr.k})"
    raise CDEError(f"unknown CDE node {expr!r}")


class _CDEParser:
    """Recursive-descent parser for the textual CDE form.

    Every syntactic failure raises :class:`CDEError` (the fuzzing contract:
    garbage in, a clean typed error out — never an internal exception).
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> "CDEError":
        return CDEError(f"bad CDE expression at offset {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.fail(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        # ASCII digits only: str.isdigit() also accepts e.g. superscripts,
        # which int() then rejects
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def name(self) -> str:
        out: list[str] = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "),":
                return "".join(out)
            if ch == "(":
                raise self.fail("unescaped '(' in document name")
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise self.fail("dangling escape in document name")
                code = self.text[self.pos + 1]
                if code not in _UNESCAPES:
                    raise self.fail(f"unknown escape \\{code}")
                out.append(_UNESCAPES[code])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1
        raise self.fail("unterminated document name")

    def expression(self, depth: int = 0) -> CDE:
        if depth > _MAX_PARSE_DEPTH:
            raise self.fail(f"expression nested deeper than {_MAX_PARSE_DEPTH}")
        op = self.word()
        self.expect("(")
        if op == "doc":
            name = self.name()
            self.expect(")")
            return Doc(name)
        if op == "concat":
            left = self.expression(depth + 1)
            self.expect(",")
            right = self.expression(depth + 1)
            self.expect(")")
            return Concat(left, right)
        if op in ("extract", "delete"):
            inner = self.expression(depth + 1)
            self.expect(",")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect(")")
            return Extract(inner, i, j) if op == "extract" else Delete(inner, i, j)
        if op == "insert":
            target = self.expression(depth + 1)
            self.expect(",")
            source = self.expression(depth + 1)
            self.expect(",")
            k = self.integer()
            self.expect(")")
            return Insert(target, source, k)
        if op == "copy":
            inner = self.expression(depth + 1)
            self.expect(",")
            i = self.integer()
            self.expect(",")
            j = self.integer()
            self.expect(",")
            k = self.integer()
            self.expect(")")
            return Copy(inner, i, j, k)
        raise self.fail(f"unknown CDE operator {op!r}")


def parse_cde(text: str) -> CDE:
    """Parse the textual CDE form produced by :func:`format_cde`.

    Raises :class:`CDEError` on any malformed input; never any other
    exception type (fuzz-tested in ``tests/test_robustness.py``).
    """
    parser = _CDEParser(text)
    expr = parser.expression()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.fail("trailing garbage after expression")
    return expr


class Editor:
    """Stateful CDE front-end over a document database.

    Documents added through the editor are strongly balanced; the editor
    asserts the invariant (the [40] precondition) and maintains it through
    every update.
    """

    def __init__(self, db: DocumentDatabase) -> None:
        self.db = db
        for _, node in db.documents():
            assert_strongly_balanced(db.slp, node)

    @classmethod
    def from_texts(cls, texts: dict[str, str]) -> "Editor":
        return cls(DocumentDatabase.from_texts(texts))

    def apply(self, name: str, expr: CDE) -> int:
        """Evaluate φ and store the result as the new document *name*.

        The new node is strongly balanced by construction; the invariant is
        re-checked cheaply on the node itself.
        """
        node = apply_cde(expr, self.db)
        self.db.add_node(name, node)
        return node

    def rebalance_document(self, name: str) -> int:
        """Force a document onto a strongly balanced equivalent (useful when
        nodes were imported from an external, unbalanced SLP)."""
        node = rebalance(self.db.slp, self.db.node(name))
        self.db._docs[name] = node
        return node
